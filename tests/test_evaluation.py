import math
import tracemalloc

import numpy as np
import pytest

from qmultitest import (
    Ensemble,
    binary_chernoff_upper_check,
    chernoff_distance,
    classical_state,
    density_from_matrix,
    error_sum,
    exponent_estimate,
    holevo_helstrom,
    lemma_bound_check,
    mix,
    overall_bound_check,
    pure_state,
    random_density,
    run_experiment,
    tensor_power,
    wedge,
)
from qmultitest import linalg
from qmultitest.detectors import Detector
from qmultitest.errors import DimensionCapExceeded, DimensionMismatch
from qmultitest.selfcheck import random_feasible_partials


def orthogonal_triple():
    return Ensemble(tuple(pure_state(v) for v in np.eye(3)))


class TestErrorSum:
    def test_perfect_pvm_on_orthogonal_states(self):
        ens = orthogonal_triple()
        det = Detector(3, tuple(s.matrix.copy() for s in ens.states))
        report = error_sum(ens, 1, det)
        assert report.err_sm == pytest.approx(0.0, abs=1e-12)
        assert report.succ_sm == pytest.approx(3.0, abs=1e-12)

    def test_uninformative_detector(self):
        ens = Ensemble(tuple(random_density(2, 2, k) for k in range(3)))
        det = Detector(2, tuple(np.eye(2) / 3 for _ in range(3)))
        report = error_sum(ens, 1, det)
        np.testing.assert_allclose(report.per_state_error, [2 / 3] * 3)
        assert report.err_sm == pytest.approx(2.0)
        assert report.err_avg == pytest.approx(2.0 / 3.0)

    def test_binary_matches_wedge_trace(self):
        rho1, rho2 = random_density(2, 2, 5), random_density(2, 2, 6)
        ens = Ensemble((rho1, rho2))
        det = holevo_helstrom(rho1, rho2)
        report = error_sum(ens, 1, det)
        assert report.err_sm == pytest.approx(
            np.trace(wedge(rho1, rho2)).real, abs=1e-10
        )

    def test_sum_plus_success_is_r(self):
        ens = Ensemble(tuple(random_density(2, 2, 10 + k) for k in range(3)))
        det = Detector(2, tuple(np.eye(2) / 3 for _ in range(3)))
        report = error_sum(ens, 1, det)
        assert report.err_sm + report.succ_sm == pytest.approx(3.0, abs=1e-9)

    def test_dimension_mismatch(self):
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        det = holevo_helstrom(ens.states[0], ens.states[1])
        with pytest.raises(DimensionMismatch):
            error_sum(ens, 2, det)

    def test_out_of_range_miss_raises(self):
        # An unvalidated element 2 I gives the miss 1 - tr[2 rho] = -1.
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        det = Detector(2, (2.0 * np.eye(2), -np.eye(2)))
        message = r"error probability -1\.0 out of range"
        with pytest.raises(ArithmeticError, match=message):
            error_sum(ens, 1, det)


class TestLemmaBound:
    def test_zero_partials_term_by_term(self):
        rho1, rho2 = random_density(2, 2, 21), random_density(2, 2, 22)
        rho3 = random_density(2, 2, 23)
        report = lemma_bound_check(rho1, rho2, [np.zeros((2, 2))], [rho3])
        wedge_trace = np.trace(wedge(rho1, rho2)).real
        assert report.lhs == pytest.approx(wedge_trace + 1.0, abs=1e-10)
        assert report.rhs == pytest.approx(2 * wedge_trace + 1.0, abs=1e-10)
        assert report.term_partials == pytest.approx(0.0, abs=1e-12)
        assert report.term_rest == pytest.approx(1.0, abs=1e-12)
        assert report.holds

    def test_orthogonal_triple_with_exact_partials(self):
        rho1, rho2, rho3 = orthogonal_triple().states
        report = lemma_bound_check(rho1, rho2, [rho3.matrix.copy()], [rho3])
        assert report.lhs == pytest.approx(0.0, abs=1e-10)
        assert report.rhs == pytest.approx(0.0, abs=1e-10)
        assert report.holds

    @pytest.mark.parametrize("r", [3, 4])
    def test_seeded_configurations_hold(self, r):
        for seed in range(50):
            states = [
                random_density(2, 2, 10000 + 100 * seed + k) for k in range(r)
            ]
            partials = random_feasible_partials(2, r - 2, 20000 + seed)
            report = lemma_bound_check(
                states[0], states[1], partials, states[2:]
            )
            assert report.holds


class TestOverallBound:
    def test_orthogonal_ensemble_is_tight_at_zero(self):
        report = overall_bound_check(orthogonal_triple(), 2)
        assert report.lhs == pytest.approx(0.0, abs=1e-9)
        assert report.rhs == pytest.approx(0.0, abs=1e-9)
        assert report.holds

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_seeded_scenarios_hold(self, sub):
        for seed in range(5):
            ens = Ensemble(
                tuple(random_density(2, 2, 500 + 10 * seed + k) for k in range(3))
            )
            report = overall_bound_check(ens, 4, 0.5, sub)
            assert report.holds
            assert report.lhs >= 0.0

    def test_orthogonal_tail_reduces_to_binary(self):
        base1, base2 = random_density(2, 2, 61), random_density(2, 2, 62)
        rho1 = density_from_matrix(
            np.block([[base1.matrix, np.zeros((2, 1))], [np.zeros((1, 3))]])
        )
        rho2 = density_from_matrix(
            np.block([[base2.matrix, np.zeros((2, 1))], [np.zeros((1, 3))]])
        )
        rho3 = pure_state([0.0, 0.0, 1.0])
        report = overall_bound_check(Ensemble((rho1, rho2, rho3)), 2)
        expected = np.trace(
            wedge(tensor_power(rho1, 2), tensor_power(rho2, 2))
        ).real
        assert report.lhs == pytest.approx(expected, abs=1e-9)
        assert report.holds


class TestBinaryDecay:
    def test_equal_states(self):
        rho = random_density(2, 2, 71)
        rows = binary_chernoff_upper_check(rho, rho, 3)
        for row in rows:
            assert row.err_sm == pytest.approx(1.0, abs=1e-10)
            assert row.bound == pytest.approx(1.0)
            assert row.holds

    def test_orthogonal_pures(self):
        rows = binary_chernoff_upper_check(
            pure_state([1.0, 0.0]), pure_state([0.0, 1.0]), 3
        )
        for row in rows:
            assert row.err_sm == pytest.approx(0.0, abs=1e-12)
            assert row.bound == 0.0
            assert row.holds

    def test_seeded_pair_satisfies_bound(self):
        rho1, rho2 = random_density(2, 2, 81), random_density(2, 2, 82)
        rows = binary_chernoff_upper_check(rho1, rho2, 8)
        assert all(row.holds for row in rows)
        # decreasing errors: an extra copy never hurts the optimal test
        errs = [row.err_sm for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_error_matches_detector_route(self):
        rho1, rho2 = random_density(2, 2, 91), random_density(2, 2, 92)
        rows = binary_chernoff_upper_check(rho1, rho2, 3)
        for row in rows:
            det = holevo_helstrom(
                tensor_power(rho1, row.n), tensor_power(rho2, row.n)
            )
            ens = Ensemble((rho1, rho2))
            report = error_sum(ens, row.n, det)
            assert row.err_sm == pytest.approx(report.err_sm, abs=1e-10)

    def test_rates_stay_above_exponent(self):
        # err <= exp(-n xi) forces -log(err)/n >= xi; finite-copy rates
        # approach the exponent from above as the prefactor decays
        rho1, rho2 = random_density(2, 2, 95), random_density(2, 2, 96)
        xi = chernoff_distance(rho1, rho2).exponent
        rows = binary_chernoff_upper_check(rho1, rho2, 8)
        for row in rows:
            rate = -math.log(row.err_sm) / row.n
            assert rate >= xi - 1e-9


class TestExponentEstimate:
    def test_exact_exponential(self):
        rows = [(n, math.exp(-0.3 * n)) for n in range(1, 7)]
        series = exponent_estimate(rows, 4)
        assert series.fitted_slope == pytest.approx(0.3, abs=1e-12)
        assert not series.exact_discrimination
        for row in series.rows:
            assert row.rate == pytest.approx(0.3, abs=1e-12)

    def test_constant_series(self):
        rows = [(n, 0.5) for n in range(1, 6)]
        series = exponent_estimate(rows, 4)
        assert series.fitted_slope == pytest.approx(0.0, abs=1e-12)

    def test_zero_rows_are_flagged(self):
        rows = [(1, 0.5), (2, 0.25), (3, 0.0), (4, 0.0625)]
        series = exponent_estimate(rows, 4)
        assert series.rows[2].rate is None
        assert series.fitted_slope is not None

    def test_all_zero_series(self):
        series = exponent_estimate([(1, 0.0), (2, 0.0)], 2)
        assert series.exact_discrimination
        assert series.fitted_slope is None

    def test_needs_two_positive_rows(self):
        with pytest.raises(ValueError):
            exponent_estimate([(1, 0.5), (2, 0.0)], 2)

    def test_binary_series_slope_against_exponent(self):
        rho1, rho2 = random_density(2, 2, 101), random_density(2, 2, 102)
        xi = chernoff_distance(rho1, rho2).exponent
        rows = [
            (row.n, row.err_sm)
            for row in binary_chernoff_upper_check(rho1, rho2, 9)
            if row.n >= 2
        ]
        series = exponent_estimate(rows, 5)
        assert series.fitted_slope > 0.0
        assert series.fitted_slope >= xi - 1e-9

    def test_unordered_rows_rejected(self):
        with pytest.raises(ValueError):
            exponent_estimate([(2, 0.5), (1, 0.7)], 2)

    @pytest.mark.parametrize("k_fit", [0, 1])
    def test_slope_needs_two_fit_rows(self, k_fit):
        rows = [(n, math.exp(-0.3 * n)) for n in range(1, 5)]
        with pytest.raises(ValueError, match=r"k_fit must lie in \[2, 4\]"):
            exponent_estimate(rows, k_fit)


class TestRunExperiment:
    def test_copy_count_past_the_cap_raises_cap_error(self):
        ens = Ensemble((random_density(2, 2, 111), random_density(2, 2, 112)))
        with pytest.raises(DimensionCapExceeded, match="n = 13 needs dim 8192"):
            run_experiment(ens, [13])

    def test_each_pair_computed_once(self, chernoff_calls):
        ens = Ensemble(tuple(random_density(2, 2, 140 + k) for k in range(4)))
        table = run_experiment(ens, [2], k_fit=2)
        assert len(chernoff_calls) == 6
        assert table.condition is not None

    @pytest.mark.parametrize("k_fit", [0, 1])
    def test_short_fit_window_refused_before_any_work(
        self, k_fit, monkeypatch, chernoff_calls
    ):
        from qmultitest import evaluation

        def no_detector(*args, **kwargs):
            raise AssertionError("a detector was built")

        monkeypatch.setattr(evaluation, "build_split_detector", no_detector)
        monkeypatch.setattr(evaluation, "holevo_helstrom", no_detector)
        for r in (2, 3):
            ens = Ensemble(tuple(random_density(2, 2, 150 + k) for k in range(r)))
            with pytest.raises(ValueError, match="k_fit must be at least 2"):
                run_experiment(ens, range(2, 5), k_fit=k_fit)
        assert chernoff_calls == []

    def test_binary_table_matches_decay_check(self):
        rho1, rho2 = random_density(2, 2, 111), random_density(2, 2, 112)
        ens = Ensemble((rho1, rho2))
        table = run_experiment(ens, range(1, 7), k_fit=3)
        rows = binary_chernoff_upper_check(rho1, rho2, 6)
        for table_row, check_row in zip(table.rows, rows):
            assert table_row.report.err_sm == pytest.approx(
                check_row.err_sm, abs=1e-10
            )
            assert table_row.binary_bound == pytest.approx(check_row.bound)
            assert table_row.n1 is None and table_row.lemma_holds is None
        assert table.condition is None
        assert table.reference_level == pytest.approx(table.pair_exponent)

    def test_orthogonal_ensemble_is_exact(self):
        table = run_experiment(orthogonal_triple(), [2, 3], k_fit=2)
        assert table.series.exact_discrimination
        for row in table.rows:
            assert row.report.err_sm == pytest.approx(0.0, abs=1e-9)
            assert row.rate is None

    def test_close_pair_scenario_decays(self):
        rho = random_density(2, 2, 121)
        sigma = random_density(2, 2, 122)
        far = random_density(2, 1, 123)
        ens = Ensemble((rho, mix(rho, sigma, 0.125), far))
        table = run_experiment(ens, range(2, 7), k_fit=3)
        errs = [row.report.err_sm for row in table.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert all(row.lemma_holds for row in table.rows)
        assert all(row.overall_holds for row in table.rows)
        assert table.condition is not None
        assert table.reference_level <= table.pair_exponent + 1e-12

    def test_reference_level_uses_first_pair(self):
        ens = Ensemble(tuple(random_density(2, 2, 130 + k) for k in range(3)))
        table = run_experiment(ens, [2, 3], k_fit=2)
        assert table.reference_level == pytest.approx(
            min(table.pair_exponent, table.others_min / 6.0)
        )


def peak_operators_per_row(ensemble, n):
    """Traced peak of one ``run_experiment`` row, in ``D x D`` complex
    matrices (``16 D^2`` bytes each)."""
    tracemalloc.start()
    try:
        run_experiment(ensemble, [n])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = ensemble.dim ** n
    return peak / (16 * dim * dim)


class TestRowMemory:
    """Full-size operators live only from construction to last use.

    Measured at D = 256: 12.16 matrices on a split row and 5.13 on a
    binary row.  Keeping the composition trace's five operators and the
    n-copy states across the Helstrom decomposition gives 17.16 and 7.13.
    """

    def test_split_row_peak(self):
        rho, sigma = random_density(2, 2, 9001), random_density(2, 2, 9002)
        ens = Ensemble((rho, mix(rho, sigma, 0.125), random_density(2, 1, 9003)))
        assert peak_operators_per_row(ens, 8) <= 12.16 + 0.5

    def test_binary_row_peak(self):
        ens = Ensemble((random_density(2, 2, 9011), random_density(2, 2, 9012)))
        assert peak_operators_per_row(ens, 8) <= 5.13 + 0.5

import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from qmultitest import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    Ensemble,
    chernoff_distance,
    classical_state,
    error_sum,
    holevo_helstrom,
    lemma_bound_check,
    mix,
    pure_state,
    random_density,
    run_experiment,
    tensor_power,
)
from qmultitest import cli, linalg
from qmultitest.detectors import misses
from qmultitest.evaluation import ExperimentRow, _fitted_slope, _ls_slope
from qmultitest.errors import DimensionCapExceeded, DimensionMismatch
from qmultitest.selfcheck import random_feasible_partials

from conftest import (
    DECAY_SLACK,
    binary_table,
    clear_sectors_caches,
    dense_detector,
    helstrom_error_oracle,
    table_without_parts,
)


def orthogonal_triple():
    return Ensemble(tuple(pure_state(v) for v in np.eye(3)))


def written_row(report, r):
    """The row that a table writes for this report on ``r`` hypotheses."""
    row = ExperimentRow(1, None, None, report, None, 1.0, None, None, None, None)
    return cli._row_document(row, r)


def written_table(table):
    """The JSON document that ``run --format json`` writes for ``table``."""
    return json.loads(cli.table_to_json(table))


class TestErrorSum:
    def test_perfect_pvm_on_orthogonal_states(self):
        ens = orthogonal_triple()
        det = dense_detector([s.matrix.copy() for s in ens.states])
        report = error_sum(ens, det)
        assert report.err_sm == pytest.approx(0.0, abs=1e-12)
        assert written_row(report, 3)["succ_sm"] == pytest.approx(3.0, abs=1e-12)

    def test_uninformative_detector(self):
        ens = Ensemble(tuple(random_density(2, 2, k) for k in range(3)))
        det = dense_detector([np.eye(2) / 3 for _ in range(3)])
        report = error_sum(ens, det)
        np.testing.assert_allclose(report.per_state_error, [2 / 3] * 3)
        assert report.err_sm == pytest.approx(2.0)
        assert written_row(report, 3)["err_avg"] == pytest.approx(2.0 / 3.0)

    def test_binary_matches_wedge_trace(self):
        rho1, rho2 = random_density(2, 2, 5), random_density(2, 2, 6)
        ens = Ensemble((rho1, rho2))
        det = holevo_helstrom(rho1, rho2)
        report = error_sum(ens, det)
        assert report.err_sm == pytest.approx(
            helstrom_error_oracle(rho1.matrix, rho2.matrix), abs=1e-10
        )

    def test_sum_plus_success_is_r(self):
        ens = Ensemble(tuple(random_density(2, 2, 10 + k) for k in range(3)))
        det = dense_detector([np.eye(2) / 3 for _ in range(3)])
        row = written_row(error_sum(ens, det), 3)
        assert row["err_sm"] + row["succ_sm"] == pytest.approx(3.0, abs=1e-9)

    def test_dimension_mismatch(self):
        # One copy of C^4 has the dimension of two qubits, not their copies.
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        pair = [tensor_power(s, 2) for s in ens.states]
        message = r"holds 1 copies of dim 4, not 2\^1$"
        with pytest.raises(DimensionMismatch, match=message):
            error_sum(ens, holevo_helstrom(*pair))

    @pytest.mark.parametrize("n", [1, 3])
    def test_copies_come_from_the_layout(self, n):
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        det = holevo_helstrom(*ens.states, n)
        report = error_sum(ens, det)
        assert det.layout.copies == n
        assert report.per_state_error == tuple(misses(ens.states, det))

    def test_copies_are_not_a_parameter(self):
        # The cap is keyword-only, so an old positional n is refused.
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        det = holevo_helstrom(*ens.states)
        with pytest.raises(TypeError):
            error_sum(ens, 1, det)
        with pytest.raises(TypeError):
            error_sum(ens, det, 4096)

    def test_out_of_range_miss_raises(self):
        # An unvalidated element 2 I gives the miss 1 - tr[2 rho] = -1.
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        det = dense_detector([2.0 * np.eye(2), -np.eye(2)])
        message = r"error probability -1\.0 out of range"
        with pytest.raises(ArithmeticError, match=message):
            error_sum(ens, det)


class TestLemmaBound:
    def test_zero_partials_term_by_term(self):
        rho1, rho2 = random_density(2, 2, 21), random_density(2, 2, 22)
        rho3 = random_density(2, 2, 23)
        report = lemma_bound_check(rho1, rho2, [np.zeros((2, 2))], [rho3])
        wedge_trace = helstrom_error_oracle(rho1.matrix, rho2.matrix)
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

    def test_one_state_per_partial_element(self):
        rho1, rho2, rho3 = (random_density(2, 2, 24 + k) for k in range(3))
        partials = [np.eye(2) * 0.1]
        for rest in ([], [rho3, rho3]):
            with pytest.raises(ValueError, match="one state per partial"):
                lemma_bound_check(rho1, rho2, partials, rest)

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
    """The multi-copy bound as every split row of ``run_experiment``
    records it."""

    def test_orthogonal_ensemble_is_tight_at_zero(self):
        row = run_experiment(orthogonal_triple(), [2]).rows[0]
        assert row.report.err_sm == pytest.approx(0.0, abs=1e-9)
        assert row.overall_rhs == pytest.approx(0.0, abs=1e-9)
        assert row.overall_holds

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_seeded_scenarios_hold(self, sub):
        for seed in range(5):
            ens = Ensemble(
                tuple(random_density(2, 2, 500 + 10 * seed + k) for k in range(3))
            )
            row = run_experiment(ens, [4], 0.5, sub).rows[0]
            assert row.overall_holds
            assert row.report.err_sm >= 0.0

    def test_orthogonal_tail_reduces_to_binary(self):
        base1, base2 = random_density(2, 2, 61), random_density(2, 2, 62)
        rho1 = DensityMatrix(
            np.block([[base1.matrix, np.zeros((2, 1))], [np.zeros((1, 3))]])
        )
        rho2 = DensityMatrix(
            np.block([[base2.matrix, np.zeros((2, 1))], [np.zeros((1, 3))]])
        )
        rho3 = pure_state([0.0, 0.0, 1.0])
        row = run_experiment(Ensemble((rho1, rho2, rho3)), [2]).rows[0]
        expected = helstrom_error_oracle(
            tensor_power(rho1, 2).matrix, tensor_power(rho2, 2).matrix
        )
        assert row.report.err_sm == pytest.approx(expected, abs=1e-9)
        assert row.overall_holds


class TestBinaryDecay:
    def test_orthogonal_pures(self):
        rows = binary_table(pure_state([1.0, 0.0]), pure_state([0.0, 1.0]), 3).rows
        for row in rows:
            assert row.report.err_sm == pytest.approx(0.0, abs=1e-12)
            assert row.binary_bound == 0.0

    def test_seeded_pair_satisfies_bound(self):
        rho1, rho2 = random_density(2, 2, 81), random_density(2, 2, 82)
        rows = binary_table(rho1, rho2, 8).rows
        errs = [row.report.err_sm for row in rows]
        assert all(
            err <= row.binary_bound + DECAY_SLACK for err, row in zip(errs, rows)
        )
        # decreasing errors: an extra copy never hurts the optimal test
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_error_matches_detector_route(self):
        rho1, rho2 = random_density(2, 2, 91), random_density(2, 2, 92)
        for row in binary_table(rho1, rho2, 3).rows:
            # A test of the explicit n-copy states is one copy of their
            # space: its errors are taken on those states, with n = 1.
            powers = Ensemble(tuple(tensor_power(s, row.n) for s in (rho1, rho2)))
            det = holevo_helstrom(*powers.states)
            report = error_sum(powers, det)
            assert row.report.err_sm == pytest.approx(report.err_sm, abs=1e-10)

    def test_rates_stay_above_exponent(self):
        # err <= exp(-n xi) forces -log(err)/n >= xi; finite-copy rates
        # approach the exponent from above as the prefactor decays
        rho1, rho2 = random_density(2, 2, 95), random_density(2, 2, 96)
        xi = chernoff_distance(rho1, rho2).exponent
        for row in binary_table(rho1, rho2, 8).rows:
            assert row.rate >= xi - 1e-9

    def test_exact_exponential_rates(self):
        # With p = (1, 0) and q = (a, 1 - a), only the all-zero string is
        # ambiguous: the optimal test misses q there, so err_sm = a^n and
        # every row's rate -log(err_sm) / n is -log(a).
        a = math.exp(-0.3)
        p, q = classical_state([1.0, 0.0]), classical_state([a, 1 - a])
        table = binary_table(p, q, 6)
        for row in table.rows:
            assert row.report.err_sm == pytest.approx(a**row.n, rel=1e-12)
            assert row.rate == pytest.approx(0.3, abs=1e-12)
        assert table.fitted_slope == pytest.approx(0.3, abs=1e-12)
        assert written_table(table)["exact_discrimination"] is False


class TestSeries:
    """The table's slope rule, ``evaluation._fitted_slope``, on
    ``(n, err_sm)`` points."""

    def test_exact_exponential(self):
        slope = _fitted_slope([(n, math.exp(-0.3 * n)) for n in range(1, 7)], 4)
        assert slope == pytest.approx(0.3, abs=1e-12)

    def test_constant_series(self):
        slope = _fitted_slope([(n, 0.5) for n in range(1, 6)], 4)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_zero_row_is_left_out_of_the_fit(self):
        slope = _fitted_slope([(1, 0.5), (2, 0.25), (3, 0.0), (4, 0.0625)], 4)
        # ln 2 per copy over n = 1, 2, 4: the zero at n = 3 is skipped.
        assert slope == pytest.approx(math.log(2.0), abs=1e-12)

    def test_all_zero_series(self):
        assert _fitted_slope([(1, 0.0), (2, 0.0)], 2) is None

    def test_one_positive_row_gives_no_slope(self):
        assert _fitted_slope([(1, 0.5), (2, 0.0)], 2) is None

    def test_k_fit_above_the_row_count_gives_no_slope(self):
        points = [(n, math.exp(-0.3 * n)) for n in range(1, 4)]
        assert _fitted_slope(points, 4) is None

    def test_binary_series_slope_against_exponent(self):
        rho1, rho2 = random_density(2, 2, 101), random_density(2, 2, 102)
        xi = chernoff_distance(rho1, rho2).exponent
        table = run_experiment(Ensemble((rho1, rho2)), range(2, 10), k_fit=5)
        slope = table.fitted_slope
        assert slope > 0.0
        assert slope >= xi - 1e-9

    def test_split_table_slope_is_its_rows_fit(self):
        ens = Ensemble(tuple(random_density(2, 2, 1 + k) for k in range(3)))
        table = run_experiment(ens, range(2, 9))
        window = [row for row in table.rows if row.report.err_sm > 0.0][-4:]
        want = _ls_slope(
            [row.n for row in window], [-math.log(row.report.err_sm) for row in window]
        )
        assert table.k_fit == 4
        assert table.fitted_slope == want
        for row in table.rows:
            assert row.rate == -math.log(row.report.err_sm) / row.n


class TestExactDiscrimination:
    """The written ``exact_discrimination`` marker: true exactly when no row
    has ``err_sm > 0``.  A real binary table's rows are given the points'
    ``err_sm`` and the slope fitted to them."""

    @staticmethod
    def written(errors, k_fit):
        pair = (random_density(2, 2, 103), random_density(2, 2, 104))
        table = run_experiment(Ensemble(pair), range(1, len(errors) + 1), k_fit=k_fit)
        rows = tuple(
            dataclasses.replace(row, report=dataclasses.replace(row.report, err_sm=err))
            for row, err in zip(table.rows, errors, strict=True)
        )
        points = [(row.n, row.report.err_sm) for row in rows]
        return written_table(
            dataclasses.replace(
                table, rows=rows, fitted_slope=_fitted_slope(points, k_fit)
            )
        )

    def test_all_zero_rows_are_exact(self):
        doc = self.written([0.0, 0.0], 2)
        assert doc["exact_discrimination"] is True
        assert doc["fitted_slope"] is None

    def test_one_positive_row(self):
        doc = self.written([0.5, 0.0], 2)
        assert doc["exact_discrimination"] is False
        assert doc["fitted_slope"] is None

    def test_zero_row_among_positive_ones(self):
        doc = self.written([0.5, 0.25, 0.0, 0.0625], 4)
        assert doc["exact_discrimination"] is False
        assert doc["fitted_slope"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_k_fit_above_the_row_count(self):
        doc = self.written([math.exp(-0.3 * n) for n in range(1, 4)], 4)
        assert doc["exact_discrimination"] is False
        assert doc["fitted_slope"] is None


class TestClosestPair:
    """A split row composes on the closest pair, whatever its place in the
    scenario (``gen random --r 3 --d 2 --seed 1``: the pair ``(0, 2)``)."""

    @staticmethod
    def states(order):
        return Ensemble(tuple(random_density(2, 2, 1 + k) for k in order))

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_reordering_moves_only_the_per_state_errors(self, sub):
        table = run_experiment(self.states([0, 1, 2]), range(2, 7), sub=sub)
        first = run_experiment(self.states([0, 2, 1]), range(2, 7), sub=sub)
        assert table.pairs.least == (0, 2)
        assert first.pairs.least == (0, 1)
        # The pair's Chernoff search runs on the same states in both.
        assert table.pairs.distances[(0, 2)] == first.pairs.distances[(0, 1)]
        assert table.reference_level == pytest.approx(first.reference_level, rel=1e-12)
        assert (table.k_fit, table.fitted_slope) == (first.k_fit, first.fitted_slope)
        for row, ref in zip(table.rows, first.rows, strict=True):
            errors = ref.report.per_state_error
            assert row.report.per_state_error == (errors[0], errors[2], errors[1])
            assert row.report.err_sm == ref.report.err_sm
            assert (row.lemma_rhs, row.overall_rhs) == (ref.lemma_rhs, ref.overall_rhs)
            assert row.lemma_holds and row.overall_holds

    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 2, 0], [2, 0, 1, 3]])
    def test_pair_fields_are_the_closest_pair(self, order):
        ens = Ensemble(tuple(random_density(2, 2, 1 + k) for k in order))
        table = run_experiment(ens, [2, 3])
        pair = table.pairs.least
        exponent = table.pairs.distances[pair].exponent
        assert exponent == min(r.exponent for r in table.pairs.distances.values())
        condition = table.pairs.condition()
        assert (condition.pair, condition.pair_distance) == (pair, exponent)
        assert table.rows[0].binary_bound == math.exp(-2 * exponent)


class TestRunExperiment:
    def test_copy_count_past_the_cap_raises_cap_error(self):
        ens = Ensemble((random_density(2, 2, 111), random_density(2, 2, 112)))
        with pytest.raises(DimensionCapExceeded, match="n = 13 needs dim 8192"):
            run_experiment(ens, [13])

    def test_cap_refuses_before_copying_the_copy_counts(self):
        # The walk stops at n = 13; a copied, sorted and hashed range of a
        # million counts would take tens of megabytes.
        ens = Ensemble((random_density(2, 2, 113), random_density(2, 2, 114)))
        tracemalloc.start()
        try:
            with pytest.raises(
                DimensionCapExceeded, match="^n = 13 needs dim 8192 > cap 4096$"
            ):
                run_experiment(ens, range(2, 10**6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("d, n", [(2, 14285), (3, 10**8)])
    def test_cap_far_past_it_names_the_power(self, d, n):
        # d^n is not formed past one copy beyond the cap.
        ens = Ensemble(tuple(random_density(d, d, 115 + k) for k in range(2)))
        message = rf"^n = {n} needs dim {d}\^{n} > cap 4096$"
        with pytest.raises(DimensionCapExceeded, match=message):
            run_experiment(ens, [n])

    def test_copy_counts_may_be_an_iterator(self):
        ens = Ensemble((random_density(2, 2, 117), random_density(2, 2, 118)))
        table = run_experiment(ens, iter([2, 3]), k_fit=2)
        assert table == run_experiment(ens, [2, 3], k_fit=2)

    def test_each_pair_computed_once(self, chernoff_calls):
        ens = Ensemble(tuple(random_density(2, 2, 140 + k) for k in range(4)))
        table = run_experiment(ens, [2], k_fit=2)
        assert len(chernoff_calls) == 6
        assert len(table.pairs.distances) == 6

    @pytest.mark.parametrize("k_fit", [0, 1])
    def test_short_fit_window_refused_before_any_work(
        self, k_fit, monkeypatch, chernoff_calls
    ):
        from qmultitest import detectors, evaluation

        def no_detector(*args, **kwargs):
            raise AssertionError("a detector was built")

        monkeypatch.setattr(evaluation, "build_split_detector", no_detector)
        monkeypatch.setattr(evaluation, "holevo_helstrom", no_detector)
        monkeypatch.setattr(detectors, "holevo_helstrom", no_detector)
        for r in (2, 3):
            ens = Ensemble(tuple(random_density(2, 2, 150 + k) for k in range(r)))
            with pytest.raises(ValueError, match="k_fit must be at least 2"):
                run_experiment(ens, range(2, 5), k_fit=k_fit)
        assert chernoff_calls == []

    @pytest.mark.parametrize("n_values", [[2.7, 3.2], [2, 3.0], ["4"]])
    def test_copy_count_that_is_not_an_integer_is_refused(
        self, n_values, chernoff_calls
    ):
        # Not rounded down to a copy count: refused before any work.
        ens = Ensemble((random_density(2, 2, 155), random_density(2, 2, 156)))
        with pytest.raises(TypeError):
            run_experiment(ens, n_values)
        assert chernoff_calls == []

    def test_fit_window_that_is_not_an_integer_is_refused(self, chernoff_calls):
        ens = Ensemble((random_density(2, 2, 157), random_density(2, 2, 158)))
        with pytest.raises(TypeError):
            run_experiment(ens, range(2, 6), k_fit=2.5)
        assert chernoff_calls == []

    def test_numpy_integer_copy_counts_run(self):
        ens = Ensemble((random_density(2, 2, 157), random_density(2, 2, 158)))
        table = run_experiment(ens, np.arange(2, 5), k_fit=np.int64(2))
        assert table == run_experiment(ens, [2, 3, 4], k_fit=2)
        assert [type(row.n) for row in table.rows] == [int] * 3

    @pytest.mark.parametrize("n", [5, 7])
    def test_split_row_computes_each_spin_block_once(self, n):
        # Five qubit states on parts n // 2 and n - n // 2 are ten keys of
        # sectors._spin_blocks; the cache keeps them all through the row.
        from qmultitest import sectors

        ens = Ensemble(tuple(random_density(2, 2, 170 + k) for k in range(5)))
        sectors._spin_blocks.cache_clear()
        run_experiment(ens, [n], k_fit=2)
        info = sectors._spin_blocks.cache_info()
        assert info.misses == info.currsize == 10

    @pytest.mark.parametrize("r", [3, 4])
    def test_split_row_builds_each_tail_state_once(self, r, monkeypatch):
        # A split row builds no dense n-copy state: every state enters as
        # its sector blocks, made from one copy.  Each tail state's are
        # built once, in error_sum, which also takes the tail's misses; the
        # closest pair's once more, for the composition's Helstrom test and
        # trace terms.
        from qmultitest import sectors

        ens = Ensemble(tuple(random_density(2, 2, 160 + k) for k in range(r)))
        built, sizes = [], []
        original = sectors.power_blocks

        def counted(rho, layout):
            built.append((id(rho), layout.copies))
            blocks = original(rho, layout)
            sizes.extend(len(b) for b in blocks)
            return blocks

        monkeypatch.setattr(sectors, "power_blocks", counted)
        table = run_experiment(ens, [4], k_fit=2)
        assert max(sizes) < 2 ** 4
        pair = table.pairs.least
        full = [built.count((id(s), 4)) for s in ens.states]
        assert full == [2 if k in pair else 1 for k in range(r)]
        row = table.rows[0]
        tail = [e for k, e in enumerate(row.report.per_state_error) if k not in pair]
        assert row.lemma_holds
        assert row.lemma_rhs >= sum(tail)

    @pytest.mark.parametrize("d,n_max", [(2, 11), (3, 8)])
    def test_binary_rows_are_the_test_and_its_misses(self, d, n_max):
        # The same test, the same misses in the same order, and exp(-n xi)
        # from the pair's own Chernoff search: the same floats, bit for bit.
        pair = (random_density(d, d, 201), random_density(d, d, 202))
        xi = chernoff_distance(*pair).exponent
        cap = d ** n_max
        table = run_experiment(Ensemble(pair), range(1, n_max + 1), dim_cap=cap)
        for row in table.rows:
            per_state = tuple(misses(pair, holevo_helstrom(*pair, row.n, cap)))
            assert row.report.per_state_error == per_state
            assert row.report.err_sm == sum(per_state)
            assert row.binary_bound == math.exp(-row.n * xi)
            assert row.n1 is None and row.lemma_holds is None
        assert table.pairs.least == (0, 1)
        assert table.reference_level == table.pairs.distances[(0, 1)].exponent == xi

    @pytest.mark.parametrize("r", [2, 3])
    def test_one_error_sum_per_row(self, r, monkeypatch):
        from qmultitest import evaluation

        original = evaluation.error_sum
        calls = []

        def counted(ensemble, detector):
            calls.append(detector.layout.copies)
            return original(ensemble, detector)

        monkeypatch.setattr(evaluation, "error_sum", counted)
        ens = Ensemble(tuple(random_density(2, 2, 210 + k) for k in range(r)))
        run_experiment(ens, range(2, 7))
        assert calls == [2, 3, 4, 5, 6]

    def test_pure_pair_errors_stay_exact(self):
        # |<psi|phi>|^2 = F: the optimal summed error on n copies is
        # F^n / (1 + sqrt(1 - F^n)), below exp(-n*xi) = F^n.  Errors of
        # the form 1 - tr[rho E] bottom out near 1e-15 instead.  The qubit
        # pair runs on spin blocks, the qutrit pair on copy-pair sectors.
        fid = math.exp(-4.61)
        for d, n_max in ((2, 10), (3, 6)):
            pad = [0.0] * (d - 2)
            ens = Ensemble(
                (
                    pure_state([1.0, 0.0, *pad]),
                    pure_state([math.sqrt(fid), math.sqrt(1.0 - fid), *pad]),
                )
            )
            table = run_experiment(ens, range(2, n_max + 1))
            for row in table.rows:
                power = fid**row.n
                exact = power / (1.0 + math.sqrt(1.0 - power))
                assert row.report.err_sm == pytest.approx(
                    exact, rel=1e-12, abs=0.0
                ), (d, row.n)
                assert row.report.err_sm <= row.binary_bound

    def test_qubit_binary_row_builds_no_dense_operator(self, monkeypatch):
        # The qubit test is holevo_helstrom on spin blocks: no state block
        # past the largest spin block, n + 1, and no Schur basis.  One copy
        # is its own block.
        from qmultitest import sectors

        original = sectors.power_blocks
        built = []

        def recorded(rho, layout):
            blocks = original(rho, layout)
            built.append((layout.copies, max(len(b) for b in blocks)))
            return blocks

        def forbidden(*args, **kwargs):
            raise AssertionError("a Schur basis was built")

        monkeypatch.setattr(sectors, "power_blocks", recorded)
        monkeypatch.setattr(sectors, "schur_basis", forbidden)
        ens = Ensemble((random_density(2, 2, 181), random_density(2, 2, 182)))
        table = run_experiment(ens, range(1, 7), k_fit=3)
        assert [row.n for row in table.rows] == list(range(1, 7))
        assert {n for n, _ in built} == set(range(1, 7))
        assert all(size == n + 1 for n, size in built)

    def test_qutrit_binary_table_is_the_dense_test(self, monkeypatch):
        # The qutrit test runs on copy-pair sectors; the reference is the
        # dense test, every layout one block.  Tolerance: 1e-10 relative on
        # the error, rate and slope columns, and the same booleans.
        # Measured over 107 d >= 3 tables with one and two BLAS threads: at
        # most 2.5e-11 on per_state_error, 1.4e-11 on err_sm, 2.6e-12 on the
        # rate and 6.5e-12 on the slope.
        rho1, rho2 = random_density(3, 3, 191), random_density(3, 2, 192)
        ens = Ensemble((rho1, rho2))
        table = run_experiment(ens, range(1, 6), k_fit=2)
        dense = table_without_parts(ens, range(1, 6), "pgm", monkeypatch)
        for row, ref in zip(table.rows, dense.rows, strict=True):
            assert row.n == ref.n and row.binary_bound == ref.binary_bound
            assert row.report.per_state_error == pytest.approx(
                ref.report.per_state_error, rel=1e-10, abs=0.0
            )
            written, dense_row = cli._row_document(row, 2), cli._row_document(ref, 2)
            for column in ("err_sm", "err_avg", "succ_sm"):
                assert written[column] == pytest.approx(
                    dense_row[column], rel=1e-10, abs=0.0
                )
            assert row.rate == pytest.approx(ref.rate, rel=1e-10, abs=0.0)
            assert row.report.err_sm <= row.binary_bound
        assert table.fitted_slope == pytest.approx(
            dense.fitted_slope, rel=1e-10, abs=0.0
        )
        assert written_table(table)["exact_discrimination"] is False
        assert written_table(dense)["exact_discrimination"] is False

    def test_orthogonal_ensemble_is_exact(self):
        table = run_experiment(orthogonal_triple(), [2, 3], k_fit=2)
        assert written_table(table)["exact_discrimination"] is True
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
        assert table.pairs.least == (0, 1)
        exponent = table.pairs.distances[(0, 1)].exponent
        assert table.reference_level <= exponent + 1e-12

    def test_reference_level_uses_first_pair(self):
        ens = Ensemble(tuple(random_density(2, 2, 130 + k) for k in range(3)))
        table = run_experiment(ens, [2, 3], k_fit=2)
        least = table.pairs.least
        others_min = table.pairs.others_min(least)
        assert table.reference_level == pytest.approx(
            min(table.pairs.distances[least].exponent, others_min / 6.0)
        )


class TestSharedSubDetectors:
    """A table builds each sub-detector once: rows share them through
    ``run_experiment``'s map, and every row is exactly the one built with
    no map."""

    @staticmethod
    def ensemble(r):
        from qmultitest.cli import _gen_condition_satisfying
        from qmultitest.scenario import scenario_from_dict

        return scenario_from_dict(_gen_condition_satisfying(r, 2, 7)[0])

    @staticmethod
    def table(ens, ns, sub, monkeypatch, shared):
        """The table and each row's split detector, built with the table's
        map or, unless ``shared``, with none."""
        from qmultitest import evaluation

        original = evaluation.build_split_detector
        built = []

        def recorded(ensemble, n, w1, sub, dim_cap, table_map):
            out = original(
                ensemble, n, w1, sub, dim_cap, table_map if shared else None
            )
            built.append(out)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "build_split_detector", recorded)
            return run_experiment(ens, ns, sub=sub), built

    @pytest.mark.parametrize(
        "r,sub,ns", [(3, "pgm", range(2, 11)), (5, "recursive", range(2, 9))]
    )
    def test_rows_equal_the_rows_built_alone(self, r, sub, ns, monkeypatch):
        ens = self.ensemble(r)
        table, built = self.table(ens, ns, sub, monkeypatch, shared=True)
        alone, built_alone = self.table(ens, ns, sub, monkeypatch, shared=False)
        assert table == alone
        for (det, trace, split), (ref, ref_trace, ref_split) in zip(
            built, built_alone, strict=True
        ):
            assert (trace, split) == (ref_trace, ref_split)
            assert det.layout is ref.layout
            for blocks, ref_blocks in zip(det.blocks, ref.blocks, strict=True):
                for a, b in zip(blocks, ref_blocks, strict=True):
                    assert np.array_equal(a, b)

    def test_each_pgm_built_once_per_table(self, monkeypatch):
        # n1 = floor(n / 2) and n2 = n - n1 take each of 1..5 copies on
        # each side over n = 2..10: 10 sub-detectors, not two per row.
        from qmultitest import detectors

        ens = self.ensemble(3)
        original = detectors.pgm
        calls = []

        def counted(states, n=1, dim_cap=DEFAULT_DIM_CAP):
            calls.append(n)
            return original(states, n, dim_cap)

        monkeypatch.setattr(detectors, "pgm", counted)
        run_experiment(ens, range(2, 11), sub="pgm")
        assert sorted(calls) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        calls.clear()
        self.table(ens, range(2, 11), "pgm", monkeypatch, shared=False)
        assert len(calls) == 18


def row_bits(row):
    """A row's fields by name, every float as its IEEE-754 bytes."""

    def bits(value):
        if dataclasses.is_dataclass(value):
            value = dataclasses.astuple(value)
        if isinstance(value, tuple):
            return tuple(map(bits, value))
        return struct.pack("<d", value) if isinstance(value, float) else value

    return {f.name: bits(getattr(row, f.name)) for f in dataclasses.fields(row)}


class TestRowIndependence:
    """The ``sectors`` caches are shared by a table's rows, so a row must
    not depend on the rows before it: each row of a qubit table is, field
    by field and bit for bit, the row built alone from empty caches."""

    def check(self, ens, ns, **kwargs):
        clear_sectors_caches()
        table = run_experiment(ens, ns, **kwargs)
        assert [row.n for row in table.rows] == list(ns)
        for row in table.rows:
            clear_sectors_caches()
            (alone,) = run_experiment(ens, [row.n], **kwargs).rows
            assert row_bits(row) == row_bits(alone), row.n

    def test_binary_table(self):
        ens = Ensemble((random_density(2, 2, 61), random_density(2, 2, 62)))
        self.check(ens, range(2, 12))

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_split_table(self, sub):
        self.check(TestSharedSubDetectors.ensemble(3), range(2, 11), sub=sub)


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

    Measured at D = 256: 0.25 matrices on a qubit split row, which is
    built and evaluated on spin blocks and forms no full-size operator (its
    blocks hold about 0.02 of one each; 1.95 on copy-pair sectors), and
    1.14 on a binary row on copy-pair sectors (d = 4; 5.13 on the dense
    test).  A qubit binary row builds no full-size operator: its blocks
    have size at most n + 1.
    """

    def test_split_row_peak(self):
        rho, sigma = random_density(2, 2, 9001), random_density(2, 2, 9002)
        ens = Ensemble((rho, mix(rho, sigma, 0.125), random_density(2, 1, 9003)))
        assert peak_operators_per_row(ens, 8) <= 0.25 + 0.5

    def test_binary_row_peak(self):
        ens = Ensemble((random_density(4, 4, 9011), random_density(4, 4, 9012)))
        assert peak_operators_per_row(ens, 4) <= 1.14 + 0.5

    def test_qubit_binary_row_peak(self):
        ens = Ensemble((random_density(2, 2, 9011), random_density(2, 2, 9012)))
        assert peak_operators_per_row(ens, 8) <= 0.1

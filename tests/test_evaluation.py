import math
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
    exponent_estimate,
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
from qmultitest.evaluation import ExperimentRow
from qmultitest.errors import DimensionCapExceeded, DimensionMismatch
from qmultitest.selfcheck import random_feasible_partials

from conftest import (
    DECAY_SLACK,
    binary_rows,
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
        rows = binary_rows(pure_state([1.0, 0.0]), pure_state([0.0, 1.0]), 3)
        for row in rows:
            assert row.report.err_sm == pytest.approx(0.0, abs=1e-12)
            assert row.binary_bound == 0.0

    def test_seeded_pair_satisfies_bound(self):
        rho1, rho2 = random_density(2, 2, 81), random_density(2, 2, 82)
        rows = binary_rows(rho1, rho2, 8)
        errs = [row.report.err_sm for row in rows]
        assert all(
            err <= row.binary_bound + DECAY_SLACK for err, row in zip(errs, rows)
        )
        # decreasing errors: an extra copy never hurts the optimal test
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_error_matches_detector_route(self):
        rho1, rho2 = random_density(2, 2, 91), random_density(2, 2, 92)
        for row in binary_rows(rho1, rho2, 3):
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
        for row in binary_rows(rho1, rho2, 8):
            assert row.rate >= xi - 1e-9


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
            (row.n, row.report.err_sm)
            for row in binary_rows(rho1, rho2, 9)
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

    @pytest.mark.parametrize("rows", [[], [(2, 0.5)]])
    def test_fit_needs_two_rows(self, rows):
        message = f"a fit needs at least 2 rows, got {len(rows)}"
        with pytest.raises(ValueError, match=message):
            exponent_estimate(rows, 2)


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
        assert table.series == first.series
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
        assert table.series.fitted_slope == pytest.approx(
            dense.series.fitted_slope, rel=1e-10, abs=0.0
        )
        assert not table.series.exact_discrimination
        assert not dense.series.exact_discrimination

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

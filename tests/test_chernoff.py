import math

import numpy as np
import pytest

from qmultitest import (
    attainability_condition,
    chernoff_curve,
    chernoff_distance,
    classical_state,
    mix,
    pure_state,
    random_density,
    ChernoffResult,
    DensityMatrix,
    Ensemble,
    PairwiseTable,
)
from qmultitest import chernoff, linalg, selfcheck
from qmultitest.errors import DimensionMismatch, UndefinedQuantity

from conftest import matrix_power


def state_rank(rho):
    return int(np.count_nonzero(np.linalg.eigvalsh(rho.matrix) > 1e-12))


def assert_each_pair_as_alone(table, states):
    """Every result of ``table`` equals, field for field and exactly, the
    one ``chernoff_distance`` gives for its pair of ``states`` alone."""
    for (i, j), result in table.distances.items():
        alone = chernoff_distance(states[i], states[j])
        assert (result.exponent, result.s_opt, result.f_min) == (
            alone.exponent,
            alone.s_opt,
            alone.f_min,
        )


def classical_overlap(p, q, s):
    """Scalar overlap sum_i p_i^(1-s) q_i^s with the 0^0 := 0 convention."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0.0 or qi <= 0.0:
            if pi > 0.0 and s == 0.0:
                total += pi
            elif qi > 0.0 and s == 1.0:
                total += qi
            continue
        total += pi ** (1.0 - s) * qi ** s
    return total


def classical_grid_exponent(p, q, step=1e-5):
    n = int(round(1.0 / step))
    best = min(classical_overlap(p, q, k / n) for k in range(n + 1))
    return -math.log(best)


class TestChernoffCurve:
    def test_equal_states_give_one(self):
        rho = random_density(2, 2, 1)
        for s in (0.0, 0.25, 0.5, 1.0):
            assert chernoff_curve(rho, rho, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states_give_zero(self):
        rho = pure_state([1.0, 0.0])
        sigma = pure_state([0.0, 1.0])
        assert chernoff_curve(rho, sigma, 0.5) == 0.0

    def test_bernoulli_half_point(self):
        p, q = 0.9, 0.5
        rho = classical_state([p, 1 - p])
        sigma = classical_state([q, 1 - q])
        expected = math.sqrt(p * q) + math.sqrt((1 - p) * (1 - q))
        assert chernoff_curve(rho, sigma, 0.5) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_matrix_power_route(self):
        rho = random_density(3, 3, 7)
        sigma = random_density(3, 3, 8)
        for s in (0.0, 0.3, 0.77, 1.0):
            via_powers = linalg.real_scalar(
                linalg.trace_product(
                    matrix_power(rho.matrix, 1.0 - s),
                    matrix_power(sigma.matrix, s),
                )
            )
            assert chernoff_curve(rho, sigma, s) == pytest.approx(
                via_powers, abs=1e-12
            )

    @pytest.mark.parametrize("d, seed", [(2, 9500), (2, 9510), (3, 9520)])
    def test_one_call_over_the_grid_equals_each_point(self, d, seed):
        # verify's chernoff-grid suite evaluates its whole grid in one call;
        # a single-row curve broadcasts over the points.
        curve = chernoff._PairCurve(
            random_density(d, d, seed), random_density(d, d, seed + 1)
        )
        steps = int(round(1.0 / selfcheck.GRID_STEP))
        points = [k / steps for k in range(steps + 1)]
        at_once = chernoff._overlaps(curve.weights, curve.log_a, curve.log_b, points)
        one_by_one = [curve.value(s) for s in points]
        assert np.array(at_once).tobytes() == np.array(one_by_one).tobytes()

    def test_rejects_out_of_range_s(self):
        rho = random_density(2, 2, 1)
        with pytest.raises(ValueError):
            chernoff_curve(rho, rho, 1.5)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chernoff_curve(random_density(2, 2, 1), random_density(3, 3, 1), 0.5)


class TestChernoffDistance:
    def test_equal_states(self):
        rho = random_density(2, 2, 11)
        result = chernoff_distance(rho, rho)
        assert 0.0 <= result.exponent <= 1e-8

    def test_pure_pair_overlap(self):
        # interior of the curve is flat at |<psi|phi>|^2
        psi = np.array([1.0, 0.0])
        phi = np.array([math.cos(0.4), math.sin(0.4)])
        overlap = abs(np.dot(psi, phi)) ** 2
        result = chernoff_distance(pure_state(psi), pure_state(phi))
        assert result.exponent == pytest.approx(-math.log(overlap), abs=1e-9)
        for s in (0.1, 0.5, 0.9):
            assert chernoff_curve(pure_state(psi), pure_state(phi), s) == (
                pytest.approx(overlap, abs=1e-12)
            )

    def test_matches_grid_minimum(self):
        for seed in range(6):
            rho = random_density(2, 2, 100 + seed)
            sigma = random_density(2, 2, 200 + seed)
            golden = chernoff_distance(rho, sigma).exponent
            # One curve over the whole grid: bit for bit the per-point
            # chernoff_curve values (test_one_call_over_the_grid_equals_each_point).
            curve = chernoff._PairCurve(rho, sigma)
            points = [k / 10000 for k in range(10001)]
            f_grid = min(
                chernoff._overlaps(curve.weights, curve.log_a, curve.log_b, points)
            )
            assert abs(golden - (-math.log(f_grid))) <= 1e-6

    def test_symmetric(self):
        rho = random_density(2, 2, 21)
        sigma = random_density(2, 2, 22)
        fwd = chernoff_distance(rho, sigma)
        rev = chernoff_distance(sigma, rho)
        assert abs(fwd.exponent - rev.exponent) <= 1e-9
        assert abs(fwd.s_opt - (1.0 - rev.s_opt)) <= 1e-6

    def test_orthogonal_supports_are_infinite(self):
        result = chernoff_distance(pure_state([1, 0]), pure_state([0, 1]))
        assert math.isinf(result.exponent)
        assert result.f_min == 0.0

    def test_endpoint_minimum_is_found(self):
        # supp(rho) strictly inside supp(sigma): f is monotone, min at s=1
        rho = pure_state([1.0, 0.0])
        sigma = DensityMatrix(np.diag([0.2, 0.8]))
        result = chernoff_distance(rho, sigma)
        f0 = chernoff_curve(rho, sigma, 0.0)
        f1 = chernoff_curve(rho, sigma, 1.0)
        assert result.f_min <= min(f0, f1) + 1e-12

    def test_curve_samples(self):
        # The minimum lies below the curve on an 11-point grid, ends included.
        rho = random_density(2, 2, 31)
        sigma = random_density(2, 2, 32)
        result = chernoff_distance(rho, sigma)
        grid = np.linspace(0.0, 1.0, 11)
        curve = [chernoff_curve(rho, sigma, float(s)) for s in grid]
        assert all(result.f_min <= f + 1e-12 for f in curve)

    def test_classical_reduction(self):
        # commuting states reduce to the scalar classical exponent
        rng = np.random.default_rng(77)
        for d in (2, 4):
            for _ in range(5):
                p = rng.dirichlet(np.ones(d))
                q = rng.dirichlet(np.ones(d))
                quantum = chernoff_distance(
                    classical_state(p), classical_state(q)
                ).exponent
                scalar = classical_grid_exponent(p, q)
                assert abs(quantum - scalar) <= 1e-8

    def test_convexity_of_sampled_curve(self):
        for seed in range(20):
            rho = random_density(2, 2, 300 + seed)
            sigma = random_density(2, 2, 400 + seed)
            grid = np.linspace(0.0, 1.0, 101)
            values = [chernoff_curve(rho, sigma, s) for s in grid]
            for a in range(0, 101, 10):
                for b in range(a + 2, 101, 10):
                    midpoint = values[(a + b) // 2]
                    assert midpoint <= (values[a] + values[b]) / 2 + 1e-9


def least_favorable(ens):
    """Minimum pairwise exponent and the pair attaining it."""
    table = PairwiseTable(ens)
    return table.distances[table.least].exponent, table.least


class TestEnsembleQuantities:
    def test_two_states(self):
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        value, pair = least_favorable(ens)
        assert pair == (0, 1)
        assert value == pytest.approx(
            chernoff_distance(ens.states[0], ens.states[1]).exponent
        )

    def test_three_diagonal_states_match_scalar_oracle(self):
        ps = [[0.9, 0.1], [0.6, 0.4], [0.2, 0.8]]
        ens = Ensemble(tuple(classical_state(p) for p in ps))
        value, pair = least_favorable(ens)
        oracle = {
            (i, j): classical_grid_exponent(ps[i], ps[j])
            for i in range(3)
            for j in range(i + 1, 3)
        }
        best = min(oracle, key=oracle.get)
        assert pair == best
        assert value == pytest.approx(oracle[best], abs=1e-8)

    def test_close_pair_wins(self):
        rho = random_density(2, 2, 51)
        sigma = random_density(2, 2, 52)
        far = pure_state([0.0, 1.0])
        ens = Ensemble((rho, mix(rho, sigma, 0.05), far))
        value, pair = least_favorable(ens)
        assert pair == (0, 1)
        distances = PairwiseTable(ens).distances
        assert value <= distances[(0, 2)].exponent
        assert value <= distances[(1, 2)].exponent

    def test_minimum_over_all_pairs(self):
        ens = Ensemble(tuple(random_density(2, 2, 60 + k) for k in range(4)))
        value, _ = least_favorable(ens)
        for result in PairwiseTable(ens).distances.values():
            assert value <= result.exponent + 1e-12

    def test_excluding_pair_r3(self):
        ens = Ensemble(tuple(random_density(2, 2, 70 + k) for k in range(3)))
        table = PairwiseTable(ens)
        distances = table.distances
        got = table.others_min((0, 1))
        assert got == pytest.approx(
            min(distances[(0, 2)].exponent, distances[(1, 2)].exponent)
        )

    def test_excluding_pair_r4_enumeration(self):
        ens = Ensemble(tuple(random_density(2, 2, 80 + k) for k in range(4)))
        table = PairwiseTable(ens)
        distances = table.distances
        for pair in distances:
            expected = min(
                res.exponent for q, res in distances.items() if q != pair
            )
            assert table.others_min(pair) == pytest.approx(expected)

    @pytest.mark.parametrize("r,d", [(3, 2), (5, 3)])
    def test_table_decomposes_each_state_once(self, r, d, monkeypatch):
        # r decompositions, not two per pair, and every result bit for bit
        # the one chernoff_distance gives on its own.
        states = [random_density(d, 1 + k % d, 90 + 10 * d + k) for k in range(r)]
        ens = Ensemble(tuple(states))
        sizes = []
        original = linalg.eigh

        def counted(h):
            sizes.append(len(h))
            return original(h)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "eigh", counted)
            table = PairwiseTable(ens)
        assert sizes == [d] * r
        assert_each_pair_as_alone(table, states)

    @pytest.mark.parametrize("seed", range(6))
    def test_table_matches_each_pair_alone_bit_for_bit(self, seed):
        # The search runs every pair of a table in lockstep; each result is
        # still exactly what chernoff_distance gives for the pair alone.
        # States 0 and 1 are orthogonal pure states and the rest have rank
        # 2..d, so from r = 3 on a table's pairs have several support shapes.
        for r in range(2, 7):
            for d in range(2, 5):
                base = 1000 * seed + 100 * r + 10 * d
                eye = np.eye(d)
                states = [pure_state(eye[0]), pure_state(eye[1])] + [
                    random_density(d, 2 + (k + seed) % (d - 1), base + k)
                    for k in range(2, r)
                ]
                table = PairwiseTable(Ensemble(tuple(states)))
                assert math.isinf(table.distances[(0, 1)].exponent)
                assert r == 2 or len({state_rank(s) for s in states}) > 1
                assert_each_pair_as_alone(table, states)

    def test_known_pairs_kept_and_the_rest_as_alone(self):
        states = [random_density(3, 1 + k % 3, 9300 + k) for k in range(5)]
        ens = Ensemble(tuple(states))
        known = {
            pair: result
            for pair, result in PairwiseTable(ens).distances.items()
            if 1 not in pair
        }
        table = PairwiseTable(ens, known)
        for pair, result in known.items():
            assert table.distances[pair] is result
        assert_each_pair_as_alone(table, states)

    def test_batch_with_identical_and_orthogonal_pairs_as_alone(self):
        # An identical pair and an orthogonal pure pair (an infinite
        # exponent through F_MIN_ZERO), in one batch with other pairs of
        # their shapes.
        rho, sigma = random_density(2, 2, 9400), random_density(2, 2, 9401)
        up, down = pure_state([1.0, 0.0]), pure_state([0.0, 1.0])
        tilted = pure_state([math.cos(0.3), math.sin(0.3)])
        pairs = [(rho, rho), (rho, sigma), (up, down), (up, tilted), (down, rho)]
        found = chernoff._minimize([chernoff._PairCurve(a, b) for a, b in pairs])
        assert math.isinf(found[2].exponent) and found[2].f_min == 0.0
        for result, (a, b) in zip(found, pairs, strict=True):
            alone = chernoff_distance(a, b)
            assert (result.exponent, result.s_opt, result.f_min) == (
                alone.exponent,
                alone.s_opt,
                alone.f_min,
            )

    def test_excluding_pair_undefined_for_two(self):
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        with pytest.raises(UndefinedQuantity):
            PairwiseTable(ens).others_min((0, 1))

    def test_excluding_pair_rejects_bad_indices(self):
        ens = Ensemble(tuple(random_density(2, 2, k) for k in range(3)))
        table = PairwiseTable(ens)
        with pytest.raises(ValueError):
            table.others_min((1, 0))
        with pytest.raises(ValueError):
            table.others_min((0, 3))

    def test_ties_break_toward_the_smallest_pair(self, monkeypatch):
        # (0, 2) and (1, 2) tie at the minimum; the table picks (0, 2).
        ens = Ensemble(tuple(random_density(2, 2, 10 + k) for k in range(3)))
        exponents = {(0, 1): 0.5, (0, 2): 0.25, (1, 2): 0.25}

        def fixed(curves):
            # The table hands its pairs to the search in ascending order.
            assert len(curves) == len(exponents)
            return [ChernoffResult(x, 0.5, math.exp(-x)) for x in exponents.values()]

        monkeypatch.setattr(chernoff, "_minimize", fixed)
        table = PairwiseTable(ens)
        assert table.least == (0, 2)
        assert table.others_min(table.least) == 0.25
        report = table.condition()
        assert report.pair == (0, 2) and report.threshold == 0.25 / 6.0

    def test_golden_section_matches_scipy_minimizer(self):
        # independent bounded minimizer as a cross-check of the search
        from scipy.optimize import minimize_scalar

        for seed in range(8):
            rho = random_density(2, 2, 500 + seed)
            sigma = random_density(2, 2, 600 + seed)
            golden = chernoff_distance(rho, sigma)
            res = minimize_scalar(
                lambda s: chernoff_curve(rho, sigma, s),
                bounds=(0.0, 1.0),
                method="bounded",
                options={"xatol": 1e-10},
            )
            best = min(
                res.fun,
                chernoff_curve(rho, sigma, 0.0),
                chernoff_curve(rho, sigma, 1.0),
            )
            assert golden.exponent == pytest.approx(-math.log(best), abs=1e-8)


class TestAttainabilityCondition:
    @staticmethod
    def condition(closest, others):
        """The condition of a table whose pairs have these exponents: the
        closest pair ``(0, 1)``, the others both at ``others``."""
        ens = Ensemble(tuple(random_density(2, 2, 40 + k) for k in range(3)))
        exponents = {(0, 1): closest, (0, 2): others, (1, 2): others}
        known = {
            pair: ChernoffResult(x, 0.5, math.exp(-x)) for pair, x in exponents.items()
        }
        return PairwiseTable(ens, known).condition()

    def test_boundary_is_non_strict(self):
        report = self.condition(0.02, 0.12)
        assert report.holds and report.margin == pytest.approx(0.0, abs=1e-15)
        assert not self.condition(0.02 + 1e-9, 0.12).holds

    def test_infinite_exponents_hold_with_nan_margin(self):
        report = self.condition(math.inf, math.inf)
        assert report.holds and math.isnan(report.margin)
        report = self.condition(1.0, math.inf)
        assert report.holds and math.isinf(report.margin)

    def test_equidistant_triple_fails(self):
        ens = Ensemble(
            (
                classical_state([0.15, 0.85]),
                classical_state([0.5, 0.5]),
                classical_state([0.85, 0.15]),
            )
        )
        report = attainability_condition(ens)
        assert not report.holds
        assert report.margin < 0

    def test_calibrated_pair_holds(self):
        rho = random_density(2, 2, 90)
        sigma = random_density(2, 2, 91)
        far = random_density(2, 1, 92)
        for eps in (0.25, 0.125, 0.0625, 0.03125, 0.015625):
            ens = Ensemble((rho, mix(rho, sigma, eps), far))
            report = attainability_condition(ens)
            if report.holds:
                assert report.pair == (0, 1)
                assert report.margin > 0
                assert report.pair_distance <= report.others_min
                break
        else:
            pytest.fail("no mixing weight satisfied the condition")

    def test_undefined_for_two_states(self):
        ens = Ensemble((random_density(2, 2, 1), random_density(2, 2, 2)))
        with pytest.raises(UndefinedQuantity):
            attainability_condition(ens)

import math
import weakref

import numpy as np
import pytest

from qmultitest import (
    DEFAULT_DIM_CAP,
    Detector,
    Ensemble,
    build_split_detector,
    check_detector,
    compose_with_binary,
    density_from_matrix,
    holevo_helstrom,
    pgm,
    pure_state,
    random_density,
    tensor_power,
    validate_detector,
    wedge,
)
from qmultitest import linalg
from qmultitest.detectors import _sub_detector, misses
from qmultitest.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    PartialsEqualIdentity,
    PartialsExceedIdentity,
    PSDViolation,
    SplitTooSmall,
)
from qmultitest.selfcheck import random_feasible_partials

from conftest import residual_oracle


def binary_sum_error(rho1, rho2, det):
    return linalg.real_scalar(
        linalg.trace_product(rho1.matrix, det.elements[1])
        + linalg.trace_product(rho2.matrix, det.elements[0])
    )


def embed_qubit_in_qutrit(rho):
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = rho.matrix
    return density_from_matrix(out)


class TestHolevoHelstrom:
    def test_orthogonal_diagonal(self):
        det = holevo_helstrom(
            density_from_matrix(np.diag([1.0, 0.0])),
            density_from_matrix(np.diag([0.0, 1.0])),
        )
        np.testing.assert_allclose(det.elements[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(det.elements[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_equal_states(self):
        rho = random_density(2, 2, 1)
        det = holevo_helstrom(rho, rho)
        np.testing.assert_allclose(det.elements[0], np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(det.elements[1], np.eye(2), atol=1e-12)

    def test_elements_are_projections(self):
        for seed in range(10):
            det = holevo_helstrom(
                random_density(3, 3, seed), random_density(3, 3, 100 + seed)
            )
            for e in det.elements:
                assert np.max(np.abs(e @ e - e)) <= 1e-9

    def test_sum_error_matches_trace_norm(self):
        # optimal summed error is 1 - ||rho1 - rho2||_1 / 2
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            s1, s2 = int(rng.integers(0, 1 << 30)), int(rng.integers(0, 1 << 30))
            rho1, rho2 = random_density(d, d, s1), random_density(d, d, s2)
            det = holevo_helstrom(rho1, rho2)
            expected = 1.0 - 0.5 * np.sum(
                np.abs(np.linalg.eigvalsh(rho1.matrix - rho2.matrix))
            )
            assert binary_sum_error(rho1, rho2, det) == pytest.approx(
                expected, abs=1e-10
            )


class TestWedge:
    def test_orthogonal_pures_vanish(self):
        out = wedge(pure_state([1.0, 0.0]), pure_state([0.0, 1.0]))
        assert np.max(np.abs(out)) <= 1e-12

    def test_same_state_returns_it(self):
        rho = random_density(2, 2, 9)
        out = wedge(rho, rho)
        np.testing.assert_allclose(out, rho.matrix, atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_trace_identity_on_seeded_pairs(self):
        for seed in range(100):
            d = 2 if seed % 2 == 0 else 3
            rho1 = random_density(d, d, 1000 + seed)
            rho2 = random_density(d, d, 2000 + seed)
            got = np.trace(wedge(rho1, rho2)).real
            expected = 1.0 - 0.5 * linalg.trace_norm(rho1.matrix - rho2.matrix)
            assert abs(got - expected) <= 1e-10


class TestPgm:
    def test_orthogonal_pures_discriminate_exactly(self):
        states = [pure_state(v) for v in np.eye(3)]
        det = pgm(states)
        for k, rho in enumerate(states):
            hit = linalg.real_scalar(
                linalg.trace_product(rho.matrix, det.elements[k])
            )
            assert hit == pytest.approx(1.0, abs=1e-10)

    def test_copies_of_same_state(self):
        rho = random_density(2, 2, 3)
        det = pgm([rho, rho, rho])
        for e in det.elements:
            np.testing.assert_allclose(e, np.eye(2) / 3, atol=1e-9)

    def test_kernel_share_keeps_povm_valid(self):
        # two pure states in d=3 leave a one-dimensional kernel
        det = pgm([pure_state([1, 0, 0]), pure_state([0, 1, 0])])
        assert check_detector(det) == []

    def test_factor_two_suboptimality(self):
        for seed in range(50):
            rho1 = random_density(2, 2, 3000 + seed)
            rho2 = random_density(2, 2, 4000 + seed)
            sqm = pgm([rho1, rho2])
            opt = holevo_helstrom(rho1, rho2)
            assert binary_sum_error(rho1, rho2, sqm) <= (
                2.0 * binary_sum_error(rho1, rho2, opt) + 1e-9
            )

    def test_ill_conditioned_average_stays_valid(self):
        # a nearly-pure state against a pure state at several copies
        rho = random_density(2, 2, 77)
        peak = pure_state([0.3, 0.9])
        for n in (3, 5):
            det = pgm([tensor_power(rho, n), tensor_power(peak, n)])
            assert check_detector(det) == []


class TestComposeWithBinary:
    def test_zero_partials_reduce_to_binary(self):
        states = [random_density(2, 2, 11 + k) for k in range(3)]
        binary = holevo_helstrom(states[0], states[1])
        det, _ = compose_with_binary([np.zeros((2, 2))], states)
        np.testing.assert_allclose(det.elements[0], binary.elements[0], atol=1e-12)
        np.testing.assert_allclose(det.elements[1], binary.elements[1], atol=1e-12)
        np.testing.assert_allclose(
            det.elements[0] + det.elements[1], np.eye(2), atol=1e-12
        )

    def test_scalar_partials_scale_binary(self):
        states = [random_density(2, 2, 13 + k) for k in range(3)]
        binary = holevo_helstrom(states[0], states[1])
        det, _ = compose_with_binary([np.eye(2) * 0.5], states)
        np.testing.assert_allclose(
            det.elements[0], binary.elements[0] / 2, atol=1e-10
        )
        np.testing.assert_allclose(
            det.elements[1], binary.elements[1] / 2, atol=1e-10
        )

    def test_random_partials_yield_valid_povm(self):
        for seed in range(20):
            rho1 = random_density(2, 2, 5000 + seed)
            rho2 = random_density(2, 2, 6000 + seed)
            rho3 = random_density(2, 2, 7500 + seed)
            partials = random_feasible_partials(2, 1, 7000 + seed)
            det, _ = compose_with_binary(partials, [rho1, rho2, rho3])
            assert check_detector(det) == []
            residual, sqrt_residual = residual_oracle(partials)
            np.testing.assert_allclose(
                det.elements[0] + det.elements[1], residual, atol=1e-10
            )
            sqrt_defect = np.eye(2) - sqrt_residual
            w_defect = np.linalg.eigvalsh(sqrt_defect)
            assert w_defect[0] >= -1e-10 and w_defect[-1] <= 1.0 + 1e-10
            gap = np.linalg.eigvalsh(partials[0] - sqrt_defect @ sqrt_defect)
            assert gap[0] >= -1e-9

    @staticmethod
    def states():
        return [random_density(2, 2, k) for k in (1, 2, 3)]

    def test_rejects_oversized_partials(self):
        with pytest.raises(PartialsExceedIdentity):
            compose_with_binary([np.eye(2) * 1.5], self.states())

    def test_rejects_exhausted_identity(self):
        with pytest.raises(PartialsEqualIdentity):
            compose_with_binary([np.eye(2)], self.states())

    def test_rejects_negative_partials(self):
        with pytest.raises(PSDViolation):
            compose_with_binary([np.diag([0.5, -0.1])], self.states())

    def test_rejects_empty_partials_and_bad_shapes(self):
        states = self.states()
        with pytest.raises(ValueError, match="at least one partial"):
            compose_with_binary([], states[:2])
        with pytest.raises(DimensionMismatch):
            compose_with_binary([np.eye(3) * 0.1], states)
        with pytest.raises(ValueError, match="one state per partial"):
            compose_with_binary([np.eye(2) * 0.1], states[:2])
        with pytest.raises(ValueError, match="one state per partial"):
            compose_with_binary([np.eye(2) * 0.1], [*states, states[2]])

    @staticmethod
    def gram_oracle(partials, rho1, rho2):
        """``sqQ P_+ sqQ`` and ``sqQ P_- sqQ`` from raw decompositions of
        ``Q = I - sum(partials)`` and of ``rho1 - rho2``."""
        _, sq = residual_oracle(partials)
        w, v = np.linalg.eigh(rho1.matrix - rho2.matrix)
        keep = (w > 1e-12 * np.max(np.abs(w))).astype(np.float64)
        plus = (v * keep) @ v.conj().T
        minus = (v * (1.0 - keep)) @ v.conj().T
        return sq @ plus @ sq, sq @ minus @ sq

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("d", [2, 4])
    def test_pair_elements_are_conjugated_projections(self, r, d):
        for seed in range(5):
            base = 8600 + 100 * r + 10 * d + seed
            states = [random_density(d, d, base + 1000 * k) for k in range(r)]
            partials = random_feasible_partials(d, r - 2, base)
            det, _ = compose_with_binary(partials, states)
            expected = self.gram_oracle(partials, states[0], states[1])
            for got, want in zip(det.elements[:2], expected):
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_split_pair_elements_are_conjugated_projections(self):
        ens = Ensemble(tuple(random_density(2, 2, 8500 + k) for k in range(3)))
        n = 6
        det, _, split = build_split_detector(ens, n)
        first, second, tail = ens.states
        sub_1 = pgm([tensor_power(s, split.n1) for s in (first, tail)])
        sub_2 = pgm([tensor_power(s, split.n2) for s in (second, tail)])
        partials = [np.kron(sub_1.elements[1], sub_2.elements[1])]
        expected = self.gram_oracle(
            partials, tensor_power(first, n), tensor_power(second, n)
        )
        for got, want in zip(det.elements[:2], expected):
            assert np.max(np.abs(got - want)) <= 1e-12


class TestComposeOperatorKeyword:
    """The ``states`` argument: builders, as the split passes them, and
    explicit states give the same elements and bound terms."""

    @staticmethod
    def terms(trace):
        return (
            trace.wedge_trace,
            trace.term_wedge,
            trace.term_partials,
            trace.term_rest,
        )

    @pytest.mark.parametrize("r", [3, 4])
    def test_builders_match_explicit_states(self, r):
        states = [random_density(2, 2, 8100 + 10 * r + k) for k in range(r)]
        partials = random_feasible_partials(2, r - 2, 8200 + r)
        explicit_det, explicit = compose_with_binary(partials, states)
        built = []

        def builder(state):
            def build():
                built.append(state)
                return state

            return build

        lazy_det, lazy = compose_with_binary(
            partials, [builder(state) for state in states]
        )
        assert [e.tobytes() for e in lazy_det.elements] == [
            e.tobytes() for e in explicit_det.elements
        ]
        assert self.terms(lazy) == self.terms(explicit)
        assert all(isinstance(term, float) for term in self.terms(explicit))
        # The pair is built for the Helstrom test and again for the
        # trace terms; every other state once.
        assert built == [states[0], states[1], states[0], states[1], *states[2:]]

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_split_terms_match_explicit_states(self, n):
        ens = Ensemble(tuple(random_density(2, 2, 8400 + k) for k in range(3)))
        det, trace, split = build_split_detector(ens, n)
        first, second, tail = ens.states[0], ens.states[1], ens.states[2]
        sub_1 = pgm([tensor_power(s, split.n1) for s in (first, tail)])
        sub_2 = pgm([tensor_power(s, split.n2) for s in (second, tail)])
        partials = [np.kron(sub_1.elements[1], sub_2.elements[1])]
        ref_det, ref = compose_with_binary(
            partials,
            [tensor_power(first, n), tensor_power(second, n), tensor_power(tail, n)],
        )
        assert [e.tobytes() for e in det.elements] == [
            e.tobytes() for e in ref_det.elements
        ]
        assert self.terms(trace) == self.terms(ref)


def orthogonal_triple():
    return Ensemble(tuple(pure_state(v) for v in np.eye(3)))


class TestBuildSplitDetector:
    def test_orthogonal_triple_is_exact(self):
        det, _, report = build_split_detector(orthogonal_triple(), 2, 0.5)
        total = 0.0
        for k, state in enumerate(orthogonal_triple().states):
            power = tensor_power(state, 2)
            total += linalg.real_scalar(
                1.0 - linalg.trace_product(power.matrix, det.elements[k])
            )
        assert abs(total) <= 1e-9
        assert report.n1 == 1 and report.n2 == 1

    def test_orthogonal_tail_leaves_binary_error(self):
        # third state orthogonal to the first pair's block: only the
        # binary overlap term survives
        rho1 = embed_qubit_in_qutrit(random_density(2, 2, 21))
        rho2 = embed_qubit_in_qutrit(random_density(2, 2, 22))
        rho3 = pure_state([0.0, 0.0, 1.0])
        ens = Ensemble((rho1, rho2, rho3))
        det, trace, _ = build_split_detector(ens, 2, 0.5)
        total = 0.0
        for k, state in enumerate(ens.states):
            power = tensor_power(state, 2)
            total += linalg.real_scalar(
                1.0 - linalg.trace_product(power.matrix, det.elements[k])
            )
        expected = np.trace(
            wedge(tensor_power(rho1, 2), tensor_power(rho2, 2))
        ).real
        assert abs(total - expected) <= 1e-9
        assert trace.wedge_trace == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_seeded_build_is_valid(self, sub):
        ens = Ensemble(tuple(random_density(2, 2, 30 + k) for k in range(3)))
        det, trace, report = build_split_detector(ens, 4, 0.5, sub)
        assert check_detector(det) == []
        assert report.n1 == 2 and report.n2 == 2
        assert trace.term_wedge == pytest.approx(2 * trace.wedge_trace)
        assert trace.term_partials is not None and trace.term_rest is not None

    def test_weight_moves_the_split(self):
        ens = Ensemble(tuple(random_density(2, 2, 40 + k) for k in range(3)))
        _, _, report = build_split_detector(ens, 5, 0.4)
        assert (report.n1, report.n2) == (2, 3)

    def test_too_few_copies(self):
        ens = Ensemble(tuple(random_density(2, 2, 50 + k) for k in range(3)))
        with pytest.raises(SplitTooSmall):
            build_split_detector(ens, 1, 0.5)
        with pytest.raises(SplitTooSmall):
            build_split_detector(ens, 2, 0.2)

    def test_dimension_cap(self):
        ens = Ensemble(tuple(random_density(2, 2, 60 + k) for k in range(3)))
        with pytest.raises(DimensionCapExceeded):
            build_split_detector(ens, 4, 0.5, dim_cap=8)


class TestRecursiveDetector:
    def test_two_states_is_binary_test(self):
        rho1, rho2 = random_density(2, 2, 71), random_density(2, 2, 72)
        rec = _sub_detector([rho1, rho2], 3, 0.5, "recursive", DEFAULT_DIM_CAP)
        direct = holevo_helstrom(tensor_power(rho1, 3), tensor_power(rho2, 3))
        for a, b in zip(rec.elements, direct.elements):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_three_states_use_binary_sub_tests(self):
        # with r = 3 the two sub-problems are pairs, so the tail element
        # is the tensor product of two binary-test projections
        ens = Ensemble(tuple(random_density(2, 2, 80 + k) for k in range(3)))
        rho1, rho2, rho3 = ens.states
        det = build_split_detector(ens, 4, 0.5, "recursive")[0]
        sub1 = holevo_helstrom(tensor_power(rho1, 2), tensor_power(rho3, 2))
        sub2 = holevo_helstrom(tensor_power(rho2, 2), tensor_power(rho3, 2))
        expected_tail = np.kron(sub1.elements[1], sub2.elements[1])
        np.testing.assert_allclose(det.elements[2], expected_tail, atol=1e-10)

    def test_four_states(self):
        ens = Ensemble(tuple(random_density(2, 2, 90 + k) for k in range(4)))
        det = build_split_detector(ens, 4, 0.5, "recursive")[0]
        assert len(det.elements) == 4
        assert check_detector(det) == []
        total = 0.0
        for k, state in enumerate(ens.states):
            power = tensor_power(state, 4)
            total += linalg.real_scalar(
                1.0 - linalg.trace_product(power.matrix, det.elements[k])
            )
        assert 0.0 <= total <= 4.0 + 1e-9

    def test_exhausted_budget_falls_back_to_pgm(self):
        # r = 4 at n = 2 gives one-copy sub-problems with three states,
        # which cannot split further and must use the square-root detector
        ens = Ensemble(tuple(random_density(2, 2, 95 + k) for k in range(4)))
        det = build_split_detector(ens, 2, 0.5, "recursive")[0]
        assert check_detector(det) == []
        sub1 = pgm([ens.states[0], ens.states[2], ens.states[3]])
        sub2 = pgm([ens.states[1], ens.states[2], ens.states[3]])
        expected_tail = np.kron(sub1.elements[1], sub2.elements[1])
        np.testing.assert_allclose(det.elements[2], expected_tail, atol=1e-10)


class TestMisses:
    def test_matches_explicit_traces(self):
        states = [random_density(2, 2, 160 + k) for k in range(3)]
        det = pgm(states)
        expected = [
            1.0 - np.trace(s.matrix @ e).real for s, e in zip(states, det.elements)
        ]
        builders = [lambda s=s: s for s in states]
        for sources in (states, builders):
            got = list(misses(sources, det.elements))
            np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_builds_one_state_at_a_time(self):
        # Every state built so far is gone when the next one is built.
        states = [random_density(2, 2, 170 + k) for k in range(4)]
        det = pgm([tensor_power(s, 3) for s in states])
        built = []

        def builder(state):
            def build():
                assert all(ref() is None for ref in built)
                power = tensor_power(state, 3)
                built.append(weakref.ref(power.matrix))
                return power

            return build

        total = sum(misses([builder(s) for s in states], det.elements))
        assert len(built) == 4
        assert 0.0 <= total <= 4.0


class TestDetectorChecks:
    def test_corrupted_element_is_flagged(self):
        det = pgm([random_density(2, 2, 1), random_density(2, 2, 2)])
        bad = Detector(det.dim, (det.elements[0] * 1.1, det.elements[1]))
        assert check_detector(bad) != []
        with pytest.raises(PSDViolation):
            validate_detector(bad)

    def test_product_elements_factorize_traces(self):
        # tr[rho^(x)2 (A (x) B)] = tr[rho A] tr[rho B]
        rng = np.random.default_rng(31)
        rho = random_density(2, 2, 31)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = (a + a.conj().T) / 2
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = (b + b.conj().T) / 2
            lhs = np.trace(tensor_power(rho, 2).matrix @ np.kron(a, b))
            rhs = np.trace(rho.matrix @ a) * np.trace(rho.matrix @ b)
            assert abs(lhs - rhs) <= 1e-12


class TestPsdFastPath:
    """POVM checks certify positivity by Cholesky; ``eigvalsh`` at the full
    dimension would mean the fast path silently fell back."""

    @pytest.fixture
    def kernel_sizes(self, monkeypatch):
        sizes = {"eigvalsh": [], "cholesky": []}
        for name in sizes:
            real = getattr(np.linalg, name)

            def counting(a, *args, _real=real, _name=name, **kwargs):
                sizes[_name].append(np.shape(a)[-1])
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return sizes

    def test_helstrom_checks_skip_full_size_eigvalsh(self, kernel_sizes):
        rho1 = tensor_power(random_density(2, 2, 11), 8)
        rho2 = tensor_power(random_density(2, 2, 12), 8)
        holevo_helstrom(rho1, rho2)
        assert kernel_sizes["eigvalsh"].count(256) == 0
        assert kernel_sizes["cholesky"].count(256) == 2

    def test_split_checks_skip_full_size_eigvalsh(self, kernel_sizes):
        ens = Ensemble(tuple(random_density(2, 2, 20 + k) for k in range(3)))
        build_split_detector(ens, 6)
        assert kernel_sizes["eigvalsh"].count(64) == 0
        # Binary test (2), partial (1), composed detector (3), squared defect (1).
        assert kernel_sizes["cholesky"].count(64) == 7

    def test_planted_negative_element_keeps_its_message(self):
        d = 256
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        spectrum = np.linspace(0.0, 1.0, d)
        spectrum[0] = -3e-7
        first = (q * spectrum) @ q.conj().T
        first = (first + first.conj().T) / 2.0
        det = Detector(d, (first, np.eye(d) - first))
        with pytest.raises(PSDViolation) as info:
            validate_detector(det)
        assert str(info.value) == (
            "invalid POVM: element 0 has negative eigenvalue -3.000e-07"
        )

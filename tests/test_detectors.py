import collections
import dataclasses
import functools
import itertools
import math
import time
import weakref

import numpy as np
import pytest

from qmultitest import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    Detector,
    Ensemble,
    PairwiseTable,
    build_split_detector,
    check_detector,
    classical_state,
    compose_with_binary,
    error_sum,
    holevo_helstrom,
    pgm,
    pure_state,
    random_density,
    tensor_power,
)
from qmultitest import linalg
from qmultitest import sectors
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

from conftest import (
    dense_detector,
    helstrom_error_oracle,
    random_hermitian,
    residual_oracle,
    table_without_parts,
)


def binary_sum_error(rho1, rho2, det):
    return linalg.real_scalar(
        linalg.trace_product(rho1.matrix, det.elements[1])
        + linalg.trace_product(rho2.matrix, det.elements[0])
    )


def helstrom_misses(rho1, rho2, n, dim_cap=DEFAULT_DIM_CAP):
    """The two misses of the optimal binary test on ``n`` copies."""
    test = holevo_helstrom(rho1, rho2, n, dim_cap)
    return tuple(misses((rho1, rho2), test))


def embed_qubit_in_qutrit(rho):
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = rho.matrix
    return DensityMatrix(out)


class TestHolevoHelstrom:
    def test_orthogonal_diagonal(self):
        det = holevo_helstrom(
            DensityMatrix(np.diag([1.0, 0.0])),
            DensityMatrix(np.diag([0.0, 1.0])),
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
        rho1, rho2 = random_density(2, 2, 11), random_density(2, 2, 12)
        binary = holevo_helstrom(rho1, rho2)
        det, _ = compose_with_binary([np.zeros((2, 2))], rho1, rho2)
        np.testing.assert_allclose(det.elements[0], binary.elements[0], atol=1e-12)
        np.testing.assert_allclose(det.elements[1], binary.elements[1], atol=1e-12)
        np.testing.assert_allclose(
            det.elements[0] + det.elements[1], np.eye(2), atol=1e-12
        )

    def test_scalar_partials_scale_binary(self):
        rho1, rho2 = random_density(2, 2, 13), random_density(2, 2, 14)
        binary = holevo_helstrom(rho1, rho2)
        det, _ = compose_with_binary([np.eye(2) * 0.5], rho1, rho2)
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
            partials = random_feasible_partials(2, 1, 7000 + seed)
            det, _ = compose_with_binary(partials, rho1, rho2)
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
    def pair():
        return random_density(2, 2, 1), random_density(2, 2, 2)

    def test_rejects_oversized_partials(self):
        with pytest.raises(PartialsExceedIdentity) as info:
            compose_with_binary([np.eye(2) * 1.5], *self.pair())
        assert str(info.value) == "partial elements reach eigenvalue 1.5 > 1"

    def test_rejects_exhausted_identity(self):
        with pytest.raises(PartialsEqualIdentity):
            compose_with_binary([np.eye(2)], *self.pair())

    def test_rejects_negative_partials(self):
        with pytest.raises(PSDViolation):
            compose_with_binary([np.diag([0.5, -0.1])], *self.pair())

    def test_rejects_empty_partials_and_bad_shapes(self):
        with pytest.raises(ValueError, match="at least one partial"):
            compose_with_binary([], *self.pair())
        with pytest.raises(DimensionMismatch):
            compose_with_binary([np.eye(3) * 0.1], *self.pair())

    @pytest.mark.parametrize("size", [3, 6, 12])
    def test_refuses_a_dense_partial_of_no_power_size(self, size):
        # A dense partial on n copies of a qubit has size 2^n.
        with pytest.raises(DimensionMismatch) as info:
            compose_with_binary([np.zeros((4, 4)), np.eye(size) * 0.1], *self.pair())
        assert str(info.value) == "partial 1 does not fit the sectors"

    def test_dense_partials_set_the_copies(self):
        rho1, rho2 = self.pair()
        det, _ = compose_with_binary([np.eye(8) * 0.1], rho1, rho2)
        assert det.layout is sectors.layout(2, (1, 1, 1))

    def test_copies_are_not_a_parameter(self):
        # The copies come from the partials' layout; the cap is keyword-only.
        with pytest.raises(TypeError):
            compose_with_binary([np.eye(2) * 0.1], *self.pair(), 1)

    @staticmethod
    def scaled_identity(d, parts):
        """``0.1 I`` as its blocks on ``sectors.layout(d, parts)``."""
        lay = sectors.layout(d, parts)
        rho = random_density(d, d, 1)
        blocks = sectors.power_blocks(rho, lay)
        return sectors.Blocks([0.1 * np.eye(len(b)) for b in blocks], lay)

    @pytest.mark.parametrize("d,parts", [(2, (2,)), (3, (2,)), (3, (1, 2))])
    def test_refuses_a_dense_partial_on_several_blocks(self, d, parts):
        # A dense partial is the one block of a layout of one-copy factors,
        # so next to a partial on the blocks of a pair of copies it is on
        # another layout; so is a partial on other parts.
        rho1, rho2 = random_density(d, d, 1), random_density(d, d, 2)
        n = sum(parts)
        blocks = self.scaled_identity(d, parts)
        assert len(blocks.layout.mults) > 1
        for other in 0.1 * np.eye(d ** n), self.scaled_identity(d, (1,) * n):
            for partials in [blocks, other], [other, blocks]:
                with pytest.raises(DimensionMismatch) as info:
                    compose_with_binary(partials, rho1, rho2)
                assert str(info.value) == "partial 1 does not fit the sectors"

    @pytest.mark.parametrize("d,parts", [(2, (2,)), (2, (1, 2)), (3, (2, 1))])
    def test_refuses_partials_on_other_copies(self, d, parts):
        # The partials' layout must hold n copies of the pair's C^d: copies
        # of another dimension are refused before anything is built.
        n = sum(parts)
        partial = self.scaled_identity(d, parts)
        e = d + 1
        rho1, rho2 = random_density(e, e, 1), random_density(e, e, 2)
        with pytest.raises(DimensionMismatch) as info:
            compose_with_binary([partial], rho1, rho2)
        assert str(info.value) == (
            f"the layout holds {n} copies of dim {d ** n}, not {e}^{n}"
        )

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
            rho1, rho2 = (random_density(d, d, base + 1000 * k) for k in range(2))
            partials = random_feasible_partials(d, r - 2, base)
            det, _ = compose_with_binary(partials, rho1, rho2)
            expected = self.gram_oracle(partials, rho1, rho2)
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
    """The pair argument: one-copy states, with the copies read from the
    partials' layout as the split passes them, and explicit n-copy states
    give the same elements and bound terms."""

    @staticmethod
    def terms(trace):
        return (trace.wedge_trace, trace.term_partials)

    @pytest.mark.parametrize("r", [3, 4])
    def test_builds_the_pair_once_and_no_tail_state(self, r, monkeypatch):
        states = [random_density(2, 2, 8100 + 10 * r + k) for k in range(r)]
        partials = random_feasible_partials(4, r - 2, 8200 + r)
        built = []
        original = sectors.power_blocks

        def counted(rho, layout):
            built.append((id(rho), layout.copies))
            return original(rho, layout)

        monkeypatch.setattr(sectors, "power_blocks", counted)
        det, trace = compose_with_binary(partials, states[0], states[1])
        # The pair is built once, for the Helstrom test and the trace terms;
        # a tail state is never built.
        assert built == [(id(states[0]), 2), (id(states[1]), 2)]
        assert all(isinstance(term, float) for term in self.terms(trace))
        assert len(det.elements) == r

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_split_terms_match_explicit_states(self, n):
        # The split composes on copy-pair sectors; the reference is the
        # one-sector composition of explicit n-copy states.  Measured: at
        # most 9.1e-14 on the elements and a relative 3.3e-15 on the terms.
        ens = Ensemble(tuple(random_density(2, 2, 8400 + k) for k in range(3)))
        det, trace, split = build_split_detector(ens, n)
        first, second, tail = ens.states[0], ens.states[1], ens.states[2]
        sub_1 = pgm([tensor_power(s, split.n1) for s in (first, tail)])
        sub_2 = pgm([tensor_power(s, split.n2) for s in (second, tail)])
        partials = [np.kron(sub_1.elements[1], sub_2.elements[1])]
        ref_det, ref = compose_with_binary(
            partials, tensor_power(first, n), tensor_power(second, n)
        )
        for got, want in zip(det.elements, ref_det.elements, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-12
        assert self.terms(trace) == pytest.approx(self.terms(ref), rel=1e-12)


def explicit_pair(d):
    """A pair of copies of ``C^d`` as a factor ``(W, sizes, mults)``, from
    its definition: the symmetric ``e_i e_i`` and ``(e_i e_j + e_j e_i) /
    sqrt 2`` (``i < j``), then the antisymmetric ``(e_i e_j - e_j e_i) /
    sqrt 2``, each one block."""
    e = np.eye(d)
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    root = math.sqrt(2)
    sym = [np.kron(e[i], e[i]) for i in range(d)]
    sym += [(np.kron(e[i], e[j]) + np.kron(e[j], e[i])) / root for i, j in upper]
    anti = [(np.kron(e[i], e[j]) - np.kron(e[j], e[i])) / root for i, j in upper]
    return np.stack(sym + anti, axis=1), [len(sym), len(anti)], [1, 1]


def explicit_spin(p):
    """A part of ``p`` qubits as a factor ``(W, sizes, mults)``:
    ``explicit_schur``, whose block ``t`` has size ``p - 2t + 1`` and is
    repeated ``C(p, t) - C(p, t - 1)`` times."""
    ts = range(p // 2 + 1)
    mults = [math.comb(p, t) - (math.comb(p, t - 1) if t else 0) for t in ts]
    return explicit_schur(p), [p - 2 * t + 1 for t in ts], mults


def explicit_factors(d, parts, kind):
    """The tensor factors ``(W, sizes, mults)`` of a layout on ``parts``,
    built apart from ``sectors``: for ``"spin"`` one qubit part each, for
    ``"pair"`` the copy pairs of each part and a lone copy, ``W = I``, for
    an odd one."""
    if kind == "spin":
        return [explicit_spin(p) for p in parts]
    lone = (np.eye(d), [d], [1])
    return [f for m in parts for f in [explicit_pair(d)] * (m // 2) + [lone] * (m % 2)]


def explicit_w(factors):
    """A layout's ``W`` as a dense matrix, the tensor product of its
    factors' ``W``: block ``(t_1, ..., t_k)`` takes the columns of the
    factors' local blocks ``t_i`` with their rows major and their copies
    minor; with each block's ``(size, multiplicity)``."""
    full = np.ones((1, 1))
    for w, _, _ in factors:
        full = np.kron(full, w)
    dims = [len(w) for w, _, _ in factors]
    order, shapes = [], []
    for label in itertools.product(*(range(len(f[1])) for f in factors)):
        local = [(f[1], f[2], t) for f, t in zip(factors, label)]
        sizes = [f_sizes[t] for f_sizes, _, t in local]
        mults = [f_mults[t] for _, f_mults, t in local]
        starts = [
            sum(size * m for size, m in zip(f_sizes[:t], f_mults[:t]))
            for f_sizes, f_mults, t in local
        ]
        for a in itertools.product(*map(range, sizes)):
            for c in itertools.product(*map(range, mults)):
                column = 0
                for dim, start, m, ai, ci in zip(dims, starts, mults, a, c):
                    column = column * dim + start + ai * m + ci
                order.append(column)
        shapes.append((math.prod(sizes), math.prod(mults)))
    return full[:, order], shapes


def block_sum(blocks, shapes):
    """``(+)_s B_s (x) I_{m_s}`` as a dense matrix."""
    out = np.zeros((sum(n * m for n, m in shapes),) * 2, dtype=complex)
    start = 0
    for block, (n, m) in zip(blocks, shapes, strict=True):
        out[start : start + n * m, start : start + n * m] = np.kron(block, np.eye(m))
        start += n * m
    return out


def random_blocks(rng, d, layout):
    """Random Hermitian blocks on ``layout`` of copies of ``C^d``, of the
    sizes of a state's."""
    rho = random_density(d, d, 1)
    sizes = [len(b) for b in sectors.power_blocks(rho, layout)]
    return [random_hermitian(rng, size) for size in sizes]


# The checks every layout passes against its explicit W, for the layout
# ``lay`` under test and the ``factors`` of ``explicit_factors``.


def check_w_is_orthogonal(lay, factors, dim, tol):
    w, shapes = explicit_w(factors)
    assert w.shape == (dim, dim)
    assert np.max(np.abs(w.T @ w - np.eye(len(w)))) <= tol
    for factor in lay.factors:
        basis = factor.basis()
        assert np.max(np.abs(basis.T @ basis - np.eye(len(basis)))) <= tol
    assert list(lay.mults) == [m for _, m in shapes]
    assert sum(size * m for size, m in shapes) == len(w)


def check_state_blocks(lay, factors, n, states, tol):
    # W^T rho^(x)n W = (+) B_s (x) I_{m_s}, with B_s from power_blocks.
    w, shapes = explicit_w(factors)
    for rho in states:
        rotated = w.T @ tensor_power(rho, n).matrix @ w
        blocks = sectors.power_blocks(rho, lay)
        assert [len(b) for b in blocks] == [size for size, _ in shapes]
        assert np.max(np.abs(rotated - block_sum(blocks, shapes))) <= tol


def check_from_blocks(lay, factors, rng, tol):
    # W ((+)_s B_s (x) I_{m_s}) W^T for random blocks B_s.
    w, shapes = explicit_w(factors)
    blocks = [random_hermitian(rng, size) for size, _ in shapes]
    got = sectors.from_blocks(blocks, lay)
    assert np.max(np.abs(got - w @ block_sum(blocks, shapes) @ w.T)) <= tol


def check_kron(make, d, parts_x, parts_y, rng, tol):
    # Blocks on the layouts under test (``make(parts)``) of two runs of
    # parts, side by side: their kron is the dense product, on the layout
    # of both runs, and an n-copy state's blocks on it are the kron of each
    # side's.
    lay_x, lay_y, lay = make(parts_x), make(parts_y), make(parts_x + parts_y)
    n_y = sum(parts_y)
    x = random_blocks(rng, d, lay_x)
    y = random_blocks(rng, d, lay_y)
    got = sectors.kron(sectors.Blocks(x, lay_x), sectors.Blocks(y, lay_y))
    assert got.layout is lay
    want = np.kron(sectors.from_blocks(x, lay_x), sectors.from_blocks(y, lay_y))
    assert np.max(np.abs(sectors.from_blocks(got.blocks, lay) - want)) <= tol
    rho = random_density(d, d, 9900 + d)
    sides = [
        sectors.Blocks(sectors.power_blocks(rho, side), side)
        for side in (lay_x, lay_y)
    ]
    product = sectors.kron(*sides)
    assert product.layout is lay
    both = sectors.power_blocks(rho, lay)
    # Each entry is the same product of one-copy entries, which power_blocks
    # folds from the first factor: bit for bit when the second side is one
    # factor or one copy, else associated otherwise, within 4 ulps
    # (measured: 2.0).
    exact = n_y == 1 or len(lay_y.factors) == 1
    for a, b in zip(both, product.blocks, strict=True):
        if exact:
            assert np.array_equal(a, b)
        else:
            assert np.all(np.abs(a - b) <= 4 * np.finfo(float).eps * np.abs(b))


def pair_layout(d, parts):
    """The copy-pair layout of ``parts`` for any ``d``, made of the factors
    that ``sectors.layout`` takes for ``d >= 3``: the copies of each part
    paired in order, and the last copy of an odd part alone."""
    kinds = [(sectors._pair,) * (m // 2) + (sectors._lone,) * (m % 2) for m in parts]
    return sectors._layout(tuple(kind(d) for run in kinds for kind in run))


class TestSectors:
    """The copy-pair layout against an explicit ``W``, for every ``d``:
    qubit split rows run on spin blocks (``TestSpinLayout``), but the
    copy-pair layout serves any ``d``."""

    LAYOUTS = [
        (2, (2,)), (2, (3, 3)), (2, (2, 3, 2, 3)), (3, (1, 2)), (3, (2, 2)), (4, (2, 1))
    ]

    @pytest.mark.parametrize("d,parts", LAYOUTS)
    def test_w_is_orthogonal(self, d, parts):
        lay = pair_layout(d, parts)
        factors = explicit_factors(d, parts, "pair")
        check_w_is_orthogonal(lay, factors, d ** sum(parts), 1e-15)
        # Each pair has d(d+1)/2 symmetric and d(d-1)/2 antisymmetric
        # vectors, first pair most significant; a lone copy keeps all d.
        halves = (d * (d + 1) // 2, d * (d - 1) // 2)
        pairs = sum(m // 2 for m in parts)
        lone = d ** sum(m % 2 for m in parts)
        sizes = [
            math.prod(halves[b] for b in labels) * lone
            for labels in itertools.product((0, 1), repeat=pairs)
        ]
        rho = random_density(d, d, 1)
        blocks = sectors.power_blocks(rho, lay)
        assert [len(b) for b in blocks] == sizes

    @pytest.mark.parametrize("d,parts", LAYOUTS)
    def test_one_copy_blocks_match_the_n_copy_state(self, d, parts):
        n = sum(parts)
        check_state_blocks(
            pair_layout(d, parts),
            explicit_factors(d, parts, "pair"),
            n,
            [random_density(d, d, 9100 + 10 * d + n)],
            1e-15,
        )

    @pytest.mark.parametrize("d,parts", LAYOUTS)
    def test_basis_changes_match_explicit_w(self, d, parts, np_rng):
        lay = pair_layout(d, parts)
        check_from_blocks(lay, explicit_factors(d, parts, "pair"), np_rng, 1e-13)

    def test_no_pair_is_one_sector(self):
        # Three lone copies: one block, the dense operator, with W = I.
        x = np.arange(64.0).reshape(8, 8) * (1.0 - 0.5j)
        for layout in sectors.layout(2, (1, 1, 1)), pair_layout(2, (1, 1, 1)):
            assert [f.copies for f in layout.factors] == [1, 1, 1]
            assert layout.mults == (1,) and (layout.dim, layout.copies) == (8, 3)
            assert sectors.from_blocks([x], layout).tobytes() == x.tobytes()

    @pytest.mark.parametrize(
        "d,parts_x,parts_y",
        [
            (2, (2,), (3,)),
            (2, (1, 2), (2, 1)),
            (3, (2,), (1,)),
            (2, (1,), (1,)),
            # A lone copy, and one block, on either side.
            (3, (1,), (2, 1)),
            (4, (3,), (1,)),
            (3, (1, 1), (3,)),
        ],
    )
    def test_kron_matches_the_dense_product(self, d, parts_x, parts_y, np_rng):
        make = functools.partial(pair_layout, d)
        check_kron(make, d, parts_x, parts_y, np_rng, 1e-13)

    def test_layout_is_built_once(self):
        assert sectors.layout(2, (3, 3)) is sectors.layout(2, (3, 3))
        for d in (3, 4):
            assert sectors.layout(d, (3, 2)) is pair_layout(d, (3, 2))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kron_layout_is_the_layout_of_both_runs(self, d):
        # For every two runs of parts up to four copies each: the product's
        # layout is the factors joined, which is the layout of the parts
        # side by side, the same object.
        def runs(m):
            return [
                tuple(b - a for a, b in zip((0, *cuts), (*cuts, m)))
                for k in range(m)
                for cuts in itertools.combinations(range(1, m), k)
            ]

        every = [p for m in range(1, 5) for p in runs(m)]
        assert len(every) == 15
        for parts_x, parts_y in itertools.product(every, repeat=2):
            x = sectors.Blocks([], sectors.layout(d, parts_x))
            y = sectors.Blocks([], sectors.layout(d, parts_y))
            lay = sectors.kron(x, y).layout
            assert lay is sectors.layout(d, parts_x + parts_y)
            assert lay.copies == sum(parts_x + parts_y)

    @pytest.mark.parametrize(
        "r,parts", [(3, (4,)), (4, (2, 2)), (5, (1, 1, 1, 1))]
    )
    def test_sub_detector_parts(self, r, parts):
        # A recursive sub-detector is on the layout of its nested parts;
        # the PGM on one part.
        states = [random_density(2, 2, 9200 + k) for k in range(r - 1)]
        got, _ = _sub_detector(states, 4, 0.5, "recursive", DEFAULT_DIM_CAP, {})
        assert got.layout is sectors.layout(2, parts)
        got, _ = _sub_detector(states, 4, 0.5, "pgm", DEFAULT_DIM_CAP, {})
        assert got.layout is sectors.layout(2, (4,))

    @pytest.mark.parametrize(
        "d,r,sub,parts",
        [
            (2, 3, "pgm", (3, 3)),
            (2, 4, "pgm", (3, 3)),
            (2, 5, "pgm", (3, 3)),
            (2, 3, "recursive", (3, 3)),
            (2, 4, "recursive", (1, 2, 1, 2)),
            (2, 5, "recursive", (1, 1, 1, 1, 1, 1)),
            (3, 4, "recursive", (1, 2, 1, 2)),
        ],
    )
    def test_split_parts(self, d, r, sub, parts):
        # The split detector is on its sub-detectors' layouts joined: for a
        # nested recursive split, the layout of all its parts.
        ens = Ensemble(tuple(random_density(d, d, 9300 + k) for k in range(r)))
        det, _, _ = build_split_detector(ens, 6, 0.5, sub)
        assert det.layout is sectors.layout(d, parts)


def explicit_schur(p):
    """A Schur basis of ``p`` qubits built apart from ``sectors``: for each
    ``t``, an orthonormal basis of the spin-``J`` highest weights
    (``J = p/2 - t``: the strings with ``t`` ones that the raising operator
    annihilates) is lowered by ``J_-`` and normalized, which gives each
    copy's ``|J, J - a>``.  Columns are grouped by ``t``, then the Dicke
    index ``a``, then the copy; the copies' basis may differ from
    ``sectors.schur_basis``'s, which no block depends on."""
    dim = 2**p
    lower = np.zeros((dim, dim))
    for x in range(dim):
        for i in range(p):
            if not x & (1 << i):
                lower[x | (1 << i), x] = 1.0
    ones = np.array([bin(x).count("1") for x in range(dim)])
    columns = []
    for t in range(p // 2 + 1):
        support = np.flatnonzero(ones == t)
        _, values, vt = np.linalg.svd(lower.T[:, support])
        rank = int(np.count_nonzero(values > 1e-10))
        highest = np.zeros((dim, len(support) - rank))
        highest[support] = vt[rank:].T
        ladder = [highest]
        for _ in range(p - 2 * t):
            step = lower @ ladder[-1]
            ladder.append(step / np.linalg.norm(step, axis=0))
        columns.append(np.stack(ladder, axis=1).reshape(dim, -1))
    return np.concatenate(columns, axis=1)


class TestSpinLayout:
    """The qubit spin layout against an explicit Schur ``W``.  Measured:
    ``W`` orthogonal to 1.4e-15, the state's blocks within 1.2e-16, the
    part outside within 2.2e-15 relative."""

    PARTS = [(2,), (3, 3), (1, 2), (2, 3, 2, 3), (5, 5)]

    @pytest.mark.parametrize("parts", PARTS)
    def test_w_is_orthogonal(self, parts):
        lay, factors = sectors.layout(2, parts), explicit_factors(2, parts, "spin")
        check_w_is_orthogonal(lay, factors, 2 ** sum(parts), 1e-13)

    @pytest.mark.parametrize("parts", PARTS)
    def test_one_copy_blocks_match_the_n_copy_state(self, parts):
        n = sum(parts)
        check_state_blocks(
            sectors.layout(2, parts),
            explicit_factors(2, parts, "spin"),
            n,
            [random_density(2, rank, 9700 + 10 * n + rank) for rank in (1, 2)],
            1e-14,
        )

    @pytest.mark.parametrize("parts", PARTS)
    def test_basis_changes_match_explicit_w(self, parts, np_rng):
        lay = sectors.layout(2, parts)
        check_from_blocks(lay, explicit_factors(2, parts, "spin"), np_rng, 1e-12)

    @pytest.mark.parametrize(
        "parts_x,parts_y",
        [
            ((2,), (3,)),
            ((1, 2), (2, 1)),
            ((2, 3), (2, 3)),
            ((5,), (5,)),
            # One block on either side.
            ((1,), (3,)),
            ((4,), (1, 1)),
        ],
    )
    def test_kron_matches_the_dense_product(self, parts_x, parts_y, np_rng):
        make = functools.partial(sectors.layout, 2)
        check_kron(make, 2, parts_x, parts_y, np_rng, 1e-12)

    def test_symmetric_layouts(self):
        # The binary test and the PGM on n copies are built on one part:
        # one qubit factor, else copy pairs.
        for d in (2, 3):
            one = sectors.layout(d, (1,))
            assert [f.copies for f in one.factors] == [1] and one.mults == (1,)
        assert [f.copies for f in sectors.layout(2, (4,)).factors] == [4]
        assert sectors.layout(2, (4,)).mults == (1, 3, 2)
        assert [f.copies for f in sectors.layout(3, (4,)).factors] == [2, 2]
        assert [f.copies for f in sectors.layout(3, (2, 2)).factors] == [2, 2]
        assert holevo_helstrom(*TestComposeWithBinary.pair(), 4).layout is (
            sectors.layout(2, (4,))
        )
        states = [random_density(3, 3, 9800 + k) for k in range(3)]
        assert pgm(states, 4).layout is sectors.layout(3, (4,))


class TestOneCopyLayouts:
    """A dense operator on ``n`` copies is the one block of the layout of
    ``n`` one-copy factors, with ``W = I``: its state blocks are
    ``tensor_power``'s bytes, and a composition of dense partials is the one
    of their blocks on that layout."""

    @staticmethod
    def states(d, seed):
        return [
            random_density(d, d, seed),
            random_density(d, 1, seed + 1),
            classical_state(np.arange(1.0, d + 1) / (d * (d + 1) / 2)),
            pure_state(np.exp(1j * np.arange(d))),
        ]

    def test_one_qubit_is_its_own_block(self):
        lay = sectors.layout(2, (1,))
        assert lay.mults == (1,) and lay.dim == 2
        states = [random_density(2, 1 + k % 2, 9900 + k) for k in range(2000)]
        for rho in states + self.states(2, 9890):
            (block,) = sectors.power_blocks(rho, lay)
            assert block.tobytes() == rho.matrix.tobytes()

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_power_blocks_are_the_tensor_power(self, d, n):
        lay = sectors.layout(d, (1,) * n)
        assert [f.copies for f in lay.factors] == [1] * n
        assert lay.mults == (1,) and lay.dim == d ** n
        for rho in self.states(d, 9800 + 10 * d + n):
            (block,) = sectors.power_blocks(rho, lay)
            assert block.tobytes() == tensor_power(rho, n).matrix.tobytes()

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (4, 2)])
    def test_dense_partials_are_on_one_copy_factors(self, d, n):
        a, b = random_density(d, d, 9860 + n), random_density(d, d, 9870 + n)
        partials = random_feasible_partials(d ** n, 2, 9880 + n)
        lay = sectors.layout(d, (1,) * n)
        det, trace = compose_with_binary(partials, a, b)
        blocks = [sectors.Blocks([p], lay) for p in partials]
        ref, ref_trace = compose_with_binary(blocks, a, b)
        assert det.layout is ref.layout is lay
        got = [[x.tobytes() for x in e] for e in det.blocks]
        assert got == [[x.tobytes() for x in e] for e in ref.blocks]
        assert trace == ref_trace


def seed_7_ensemble():
    from qmultitest.cli import _gen_condition_satisfying
    from qmultitest.scenario import scenario_from_dict

    return scenario_from_dict(_gen_condition_satisfying(3, 2, 7)[0])


def dense_split_row(ens, n, sub):
    """A qubit ``r = 3`` split row from dense sub-detectors: the PGM or the
    Helstrom test of the explicit ``n1``- and ``n2``-copy states, their
    tail elements' product composed on one block with the explicit
    ``n``-copy pair; with the detector's misses on the explicit states."""
    first, second, tail = ens.states
    n1 = n // 2

    def sub_detector(states, copies):
        powers = [tensor_power(s, copies) for s in states]
        return pgm(powers) if sub == "pgm" else holevo_helstrom(*powers)

    sub_1 = sub_detector((first, tail), n1)
    sub_2 = sub_detector((second, tail), n - n1)
    partials = [np.kron(sub_1.elements[1], sub_2.elements[1])]
    powers = [tensor_power(s, n) for s in ens.states]
    det, trace = compose_with_binary(partials, powers[0], powers[1])
    return det, trace, list(misses(powers, det))


class TestSpinSplitRows:
    """Qubit split rows, built and evaluated on spin blocks, against the
    one-block composition of the dense sub-detectors.  Tolerances, those of
    ``test_split_terms_match_explicit_states``: every element entry within
    1e-12, and the bound's terms and the per-state errors within 1e-12
    relative.  Measured on seed 7: at most 1.7e-13, 1.6e-13 and 1.4e-13."""

    @staticmethod
    def compare(ens, n, sub, elements=True):
        from qmultitest.evaluation import error_sum

        det, trace, split = build_split_detector(ens, n, 0.5, sub)
        assert (split.n1, split.n2) == (n // 2, n - n // 2)
        assert det.layout is sectors.layout(2, (split.n1, split.n2))
        got = error_sum(ens, det).per_state_error
        ref_det, ref_trace, ref_errors = dense_split_row(ens, n, sub)
        if elements:
            for a, b in zip(det.elements, ref_det.elements, strict=True):
                assert np.max(np.abs(a - b)) <= 1e-12
        assert (trace.wedge_trace, trace.term_partials) == pytest.approx(
            (ref_trace.wedge_trace, ref_trace.term_partials), rel=1e-12, abs=0.0
        )
        assert got == pytest.approx(ref_errors, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    @pytest.mark.parametrize("n", [*range(2, 9), 10])
    def test_rows_match_dense_sub_detectors(self, n, sub):
        self.compare(seed_7_ensemble(), n, sub)

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_random_rows_match_dense_terms_and_errors(self, sub):
        # The ensemble of test_split_terms_match_explicit_states.  Measured:
        # terms within 2.3e-14 and errors within 4.2e-15 relative.  Its
        # elements are not compared here: at n = 8 the pair's difference
        # has eigenvalues 9.0e-8 and -2.2e-7 beside the zero floor, so the
        # dense Helstrom test of the 256-dimensional states is itself
        # rounded by 1.8e-11 against the spin blocks' test, and the
        # composed elements differ by 1.8e-12.
        ens = Ensemble(tuple(random_density(2, 2, 8400 + k) for k in range(3)))
        for n in range(2, 9):
            self.compare(ens, n, sub, elements=False)

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_table_builds_no_schur_basis_and_no_large_block(self, sub, monkeypatch):
        # A qubit r = 3 table never forms W, nor a dense state past the
        # row's largest block, and decomposes and checks nothing above that
        # block's size, (n1 + 1)(n2 + 1).
        from qmultitest.evaluation import run_experiment

        ens = seed_7_ensemble()
        original = sectors.power_blocks

        def forbidden(*args, **kwargs):
            raise AssertionError("a Schur basis was built")

        def recorded(rho, layout):
            # The n = 2 row's parts (1, 1) hold no pair of copies: its one
            # block is the two-copy space.
            blocks = original(rho, layout)
            built.extend(len(b) for b in blocks)
            return blocks

        sizes, built = [], []
        for name in ("eigh", "eigvalsh", "cholesky"):
            real = getattr(np.linalg, name)

            def counting(a, *args, _real=real, **kwargs):
                sizes.append(np.shape(a)[-1])
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setattr(sectors, "schur_basis", forbidden)
        monkeypatch.setattr(sectors, "power_blocks", recorded)
        for n in range(2, 11):
            sizes.clear()
            built.clear()
            (row,) = run_experiment(ens, [n], sub=sub).rows
            largest = (row.n1 + 1) * (row.n2 + 1)
            assert max(sizes) == largest and max(built) == largest
            assert row.lemma_holds and row.overall_holds


class TestSectorComposition:
    """Split rows on their block layout (spin blocks for qubits, copy-pair
    sectors otherwise) against the dense path, every layout one block
    (``table_without_parts``: dense sub-detectors, composition and misses).
    Tolerance: 1e-12 relative on every error and bound column and 1e-12
    absolute on the rate; the largest differences measured over r = 3, 4
    and d = 2..4 with one and two BLAS threads were 4.0e-13 relative on
    the per-state errors and 2.3e-13 on the other columns."""

    TOL = 1e-12

    def same_rows(self, got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.n, a.n1, a.n2) == (b.n, b.n1, b.n2)
            assert a.report.per_state_error == pytest.approx(
                b.report.per_state_error, rel=self.TOL, abs=self.TOL
            )
            for column in ("lemma_rhs", "overall_rhs"):
                assert getattr(a, column) == pytest.approx(
                    getattr(b, column), rel=self.TOL
                )
            assert a.report.err_sm == pytest.approx(b.report.err_sm, rel=self.TOL)
            assert a.rate == pytest.approx(b.rate, abs=self.TOL)
            assert (a.lemma_holds, a.overall_holds) == (b.lemma_holds, b.overall_holds)

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    @pytest.mark.parametrize("d,n_max", [(2, 7), (3, 4), (4, 3)])
    def test_rows_match_one_sector(self, d, n_max, sub, monkeypatch):
        from qmultitest.evaluation import run_experiment

        for r in (3, 4):
            states = [random_density(d, d, 9400 + 10 * r + k) for k in range(r)]
            ens = Ensemble(tuple(states))
            ns = range(2, n_max + 1)
            got = run_experiment(ens, ns, sub=sub, k_fit=2).rows
            self.same_rows(got, table_without_parts(ens, ns, sub, monkeypatch).rows)

    def test_qubit_row_at_1024(self, monkeypatch):
        from qmultitest.cli import _gen_condition_satisfying
        from qmultitest.evaluation import run_experiment
        from qmultitest.scenario import scenario_from_dict

        ens = scenario_from_dict(_gen_condition_satisfying(3, 2, 7)[0])
        got = run_experiment(ens, [10], k_fit=2).rows
        self.same_rows(got, table_without_parts(ens, [10], "pgm", monkeypatch).rows)

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    @pytest.mark.parametrize("d,r,n_max", [(2, 3, 10), (3, 4, 5)])
    def test_per_state_error_matches_dense_path(self, d, r, n_max, sub, monkeypatch):
        # Whole tables against the dense path.  Tolerance: 1e-10 relative
        # on per_state_error and 1e-12 relative on every other error,
        # bound, rate and slope column.  Measured with one and two BLAS
        # threads: at most 4.0e-13 and 3.8e-13.  The dense path's own
        # rounding can exceed 1e-10 on a small miss (next test).
        from qmultitest.cli import _gen_condition_satisfying
        from qmultitest.evaluation import run_experiment
        from qmultitest.scenario import scenario_from_dict

        if d == 2:
            ens = scenario_from_dict(_gen_condition_satisfying(r, d, 7)[0])
        else:
            ens = Ensemble(tuple(random_density(d, d, 9600 + k) for k in range(r)))
        ns = range(2, n_max + 1)
        got = run_experiment(ens, ns, sub=sub)
        want = table_without_parts(ens, ns, sub, monkeypatch, k_fit=4)
        for a, b in zip(got.rows, want.rows, strict=True):
            assert (a.n, a.n1, a.n2) == (b.n, b.n1, b.n2)
            assert a.binary_bound == b.binary_bound
            assert a.report.per_state_error == pytest.approx(
                b.report.per_state_error, rel=1e-10, abs=0.0
            )
            for x, y in (
                (a.report.err_sm, b.report.err_sm),
                (a.lemma_rhs, b.lemma_rhs),
                (a.overall_rhs, b.overall_rhs),
                (a.rate, b.rate),
            ):
                assert x == pytest.approx(y, rel=1e-12, abs=0.0)
            assert (a.lemma_holds, a.overall_holds) == (b.lemma_holds, b.overall_holds)
        assert got.series.fitted_slope == pytest.approx(
            want.series.fitted_slope, rel=1e-12, abs=0.0
        )

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is no wider than double here",
    )
    def test_sector_misses_agree_with_extended_precision(self):
        # The split row whose tail miss (2.3e-4) moves most against the
        # dense path: the dense traces are off by 2.7e-10 relative there
        # with one BLAS thread (2.3e-11 with two), while the block traces
        # agree with an extended-precision trace of the same detector to
        # 3.6e-14 on spin blocks (3.0e-12 on copy-pair sectors).
        from qmultitest.cli import _gen_condition_satisfying, _gen_random
        from qmultitest.evaluation import error_sum
        from qmultitest.scenario import scenario_from_dict

        ens = scenario_from_dict(_gen_condition_satisfying(3, 2, 8)[0])
        n = 10
        det, _, _ = build_split_detector(ens, n, 0.5, "recursive")
        got = error_sum(ens, det).per_state_error
        for miss, exact in zip(got, extended_misses(ens.states, det, n), strict=True):
            assert abs(miss - exact) <= 1e-11 * exact
        # The qutrit binary row that moves most against the dense test
        # (gen random --r 2 --d 3 --seed 7001, n = 7, D = 2187): its
        # copy-pair sector traces agree to 5.2e-13 and 8.1e-14 with one
        # BLAS thread (1.5e-14 and 7.1e-14 with two), the dense test's
        # traces only to 5.1e-12 and 2.1e-11 (2.5e-11 and 2.3e-12).
        ens = scenario_from_dict(_gen_random(2, 3, 7001))
        n = 7
        test = holevo_helstrom(*ens.states, n)
        assert test.layout is sectors.layout(3, (n,))
        got = list(misses(ens.states, test))
        for miss, exact in zip(got, extended_misses(ens.states, test, n), strict=True):
            assert abs(miss - exact) <= 2e-12 * exact

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_qutrit_tables_build_no_dense_state_and_no_large_block(
        self, sub, monkeypatch
    ):
        # The d >= 3 counterpart of TestSpinSplitRows'
        # test_table_builds_no_schur_basis_and_no_large_block: a qutrit
        # binary table and an r = 3 split table never assemble an element
        # (from_blocks), and build, decompose and check nothing above the
        # row's largest copy-pair sector: 6 = 3 * 4 / 2 per pair of copies
        # and 3 per lone copy, on the parts (n,) of a binary row and
        # (n1, n2) of a split row.
        from qmultitest.cli import _gen_condition_satisfying, _gen_random
        from qmultitest.evaluation import run_experiment
        from qmultitest.scenario import scenario_from_dict

        original = sectors.power_blocks

        def recorded(rho, layout):
            blocks = original(rho, layout)
            built.extend(len(b) for b in blocks)
            return blocks

        def forbidden(*args, **kwargs):
            raise AssertionError("an element was assembled")

        sizes, built = [], []
        for name in ("eigh", "eigvalsh", "cholesky"):
            real = getattr(np.linalg, name)

            def counting(a, *args, _real=real, **kwargs):
                sizes.append(np.shape(a)[-1])
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setattr(sectors, "power_blocks", recorded)
        monkeypatch.setattr(sectors, "from_blocks", forbidden)

        def largest(parts):
            return math.prod(6 ** (p // 2) * 3 ** (p % 2) for p in parts)

        binary = scenario_from_dict(_gen_random(2, 3, 4))
        split = scenario_from_dict(_gen_condition_satisfying(3, 3, 7)[0])
        for n in range(1, 6):
            sizes.clear()
            built.clear()
            (row,) = run_experiment(binary, [n], sub=sub).rows
            assert max(sizes) == max(built) == largest((n,))
            if n == 1:
                continue
            sizes.clear()
            built.clear()
            (row,) = run_experiment(split, [n], sub=sub).rows
            assert max(sizes) == max(built) == largest((row.n1, row.n2))
            assert row.lemma_holds and row.overall_holds

    @pytest.mark.parametrize("seed", [4, 7])
    def test_floor_bounds_the_move_of_recursive_rows(self, seed):
        # With projection partials some residual eigenvalues are zero in
        # exact arithmetic.  The composition zeroes those at or below the
        # floor; unfloored, their rounding (~1e-16) puts ~1e-8 into
        # Q^(1/2).  Measured on these rows: the floor moves the elements by
        # at most 1.1e-8 and err_sm by a relative 4.3e-9.
        from qmultitest.cli import _gen_condition_satisfying
        from qmultitest.scenario import scenario_from_dict

        ens = scenario_from_dict(_gen_condition_satisfying(3, 2, seed)[0])
        for n in range(2, 9):
            det, _, _ = build_split_detector(ens, n, 0.5, "recursive")
            partials = list(det.elements[2:])
            powers = [tensor_power(s, n) for s in ens.states]
            a, b = (p.matrix for p in powers[:2])
            w, v = np.linalg.eigh(a - b)
            keep = (w > 1e-12 * np.max(np.abs(w))).astype(np.float64)
            tests = [(v * keep) @ v.conj().T, (v * (1.0 - keep)) @ v.conj().T]
            errors = {}
            for floor in (False, True):
                _, sq = residual_oracle(partials, floor=floor)
                ref = [sq @ e @ sq for e in tests] + partials
                errors[floor] = sum(misses(powers, dense_detector(ref)))
                if floor:
                    for got, want in zip(det.elements, ref):
                        assert np.max(np.abs(got - want)) <= 1e-12
            err = sum(misses(ens.states, det))
            assert err == pytest.approx(errors[True], rel=1e-12)
            assert abs(errors[True] - errors[False]) <= 2e-8 * errors[False]


def antisymmetric_negative_partial():
    """A swap-invariant partial, positive but for the eigenvalue -2.5e-9 of
    its antisymmetric vector ``|a>``, a block of its own."""
    sym = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    anti = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    invariant = 0.5 * (np.outer(sym, sym) + np.diag([0.0, 0.0, 0.0, 1.0]))
    return invariant - 2.5e-9 * np.outer(anti, anti)


def spin_blocks_of(x, parts):
    """An invariant qubit operator as its blocks on ``sectors.layout(2,
    parts)``, through the explicit ``W``: each block the mean of its copies
    in ``W^T X W``."""
    w, shapes = explicit_w(explicit_factors(2, parts, "spin"))
    rotated = w.T @ x @ w
    blocks, start = [], 0
    for size, m in shapes:
        region = rotated[start : start + size * m, start : start + size * m]
        blocks.append(np.einsum("acbc->ab", region.reshape(size, m, size, m)) / m)
        start += size * m
    return sectors.Blocks(blocks, sectors.layout(2, parts))


def extended_misses(states, det, n):
    """Each state's miss under ``det`` from an extended-precision
    (``np.clongdouble``) trace of its dense elements with the dense
    ``n``-copy state, taken over column slabs so that at most one dense
    element and one extended-precision state are alive."""
    out = []
    for k, state in enumerate(states):
        one = state.matrix.astype(np.clongdouble)
        power = one
        for _ in range(n - 1):
            power = np.kron(power, one)
        total = np.clongdouble(0.0)
        for j, blocks in enumerate(det.blocks):
            if j == k:
                continue
            element = sectors.from_blocks(blocks, det.layout)
            for lo in range(0, len(element), 256):
                slab = element[:, lo : lo + 256].T.astype(np.clongdouble)
                total += np.sum(power[lo : lo + 256] * slab)
            del element
        out.append(total.real)
        del power
    return out


class TestSectorChecks:
    """The composition's checks on spin blocks refuse what the one-block
    (dense) checks refuse, with the same exception and message, and the
    dense oracle accepts every split row they accept."""

    @staticmethod
    def refusal(partials, parts):
        rho1, rho2 = random_density(2, 2, 9500), random_density(2, 2, 9501)
        if len(sectors.layout(2, parts).mults) > 1:
            partials = [spin_blocks_of(p, parts) for p in partials]
        with pytest.raises(ValueError) as info:
            compose_with_binary(partials, rho1, rho2)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize(
        "partials,error",
        [
            # Swap invariant, with eigenvalue -0.05.
            ([np.kron(np.diag([0.5, -0.1]), np.diag([0.5, -0.1]))], PSDViolation),
            # Swap invariant, with eigenvalue -2.5e-9 in the antisymmetric
            # block only.
            ([antisymmetric_negative_partial()], PSDViolation),
            ([1.5 * np.kron(np.diag([1.0, 0.5]), np.diag([1.0, 0.5]))],
             PartialsExceedIdentity),
            ([0.75 * np.eye(4), np.diag([0.5, 0.25, 0.25, 0.0])],
             PartialsExceedIdentity),
            ([np.eye(4)], PartialsEqualIdentity),
            ([np.diag([1.0, 0.5, 0.5, 0.0]), np.diag([0.0, 0.5, 0.5, 1.0])],
             PartialsEqualIdentity),
        ],
    )
    def test_sectors_refuse_what_one_sector_refuses(self, partials, error):
        got = self.refusal(partials, (2,))
        assert got == self.refusal(partials, (1, 1))
        assert got[0] is error

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    @pytest.mark.parametrize(
        "d,r,seed,n_max",
        [
            (2, 3, 7, 10),
            (3, 4, None, 5),
            # At n = 6 the PGM sub-detectors' average state is nearly
            # singular.
            (2, 5, 1305084, 6),
        ],
    )
    def test_dense_oracle_accepts_every_split_row(
        self, d, r, seed, n_max, sub, monkeypatch
    ):
        # Every composition of the table, the recursive sub-detectors'
        # included: the composed detector and the binary test, both held as
        # sector blocks and assembled densely here, pass check_detector.
        from qmultitest import detectors
        from qmultitest.cli import _gen_condition_satisfying
        from qmultitest.scenario import scenario_from_dict

        if seed is not None:
            ens = scenario_from_dict(_gen_condition_satisfying(r, d, seed)[0])
        else:
            ens = Ensemble(tuple(random_density(d, d, 9600 + k) for k in range(r)))
        tests, checked = [], []
        helstrom, compose = detectors._helstrom_tests, detectors.compose_with_binary

        def recording(spectra):
            tests.append(helstrom(spectra))
            return tests[-1]

        def checking(partials, rho1, rho2):
            before = len(tests)
            det, trace = compose(partials, rho1, rho2)
            (blocks,) = tests[before:]
            layout = partials[0].layout
            assert det.layout is layout
            n = layout.copies
            # Each element and each binary element assembled as W B W^T.
            elements = [sectors.from_blocks(b, layout) for b in det.blocks]
            binary = [
                sectors.from_blocks([t[i] for t in blocks], layout)
                for i in (0, 1)
            ]
            assert check_detector(dense_detector(elements)) == []
            assert check_detector(dense_detector(binary)) == []
            checked.append((n, det.dim))
            return det, trace

        monkeypatch.setattr(detectors, "_helstrom_tests", recording)
        monkeypatch.setattr(detectors, "compose_with_binary", checking)
        for n in range(2, n_max + 1):
            build_split_detector(ens, n, 0.5, sub)
        assert (n_max, d ** n_max) in checked


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
        expected = helstrom_error_oracle(
            tensor_power(rho1, 2).matrix, tensor_power(rho2, 2).matrix
        )
        assert abs(total - expected) <= 1e-9
        assert trace.wedge_trace == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_seeded_build_is_valid(self, sub):
        ens = Ensemble(tuple(random_density(2, 2, 30 + k) for k in range(3)))
        det, trace, report = build_split_detector(ens, 4, 0.5, sub)
        assert check_detector(det) == []
        assert report.n1 == 2 and report.n2 == 2
        assert isinstance(trace.wedge_trace, float)
        assert isinstance(trace.term_partials, float)
        assert [f.name for f in dataclasses.fields(trace)] == [
            "wedge_trace",
            "term_partials",
        ]

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
        message = r"^dim 2\^4 = 16 exceeds cap 8$"
        with pytest.raises(DimensionCapExceeded, match=message):
            build_split_detector(ens, 4, 0.5, dim_cap=8)
        ens = Ensemble(tuple(random_density(3, 3, 60 + k) for k in range(3)))
        message = r"^dim 3\^4 = 81 exceeds cap 80$"
        for sub in ("pgm", "recursive"):
            with pytest.raises(DimensionCapExceeded, match=message):
                build_split_detector(ens, 4, 0.5, sub, dim_cap=80)


class TestSharedMap:
    """One ``shared`` map passed to several split detectors hands each the
    sub-detectors of its own states, copy counts, strategy and weight: the
    last detector is exactly the one built with no map."""

    @staticmethod
    def check(builds):
        shared: dict = {}
        for ens, n, w1, sub in builds:
            got = build_split_detector(ens, n, w1, sub, DEFAULT_DIM_CAP, shared)
        alone = build_split_detector(ens, n, w1, sub)
        assert got[2] == alone[2]
        assert error_sum(ens, got[0]) == error_sum(ens, alone[0])

    @staticmethod
    def ensemble(r, base=300):
        return Ensemble(tuple(random_density(2, 2, base + k) for k in range(r)))

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    def test_another_ensemble(self, sub):
        first, second = self.ensemble(3, 300), self.ensemble(3, 400)
        self.check([(first, 6, 0.5, sub), (second, 6, 0.5, sub)])

    def test_another_weight(self):
        ens = self.ensemble(3)
        self.check([(ens, 6, 0.5, "recursive"), (ens, 6, 0.3, "recursive")])
        # Three states on two copies split in two at w1 = 0.5 and take the
        # square-root measurement at w1 = 0.3.
        ens = self.ensemble(4)
        self.check([(ens, 4, 0.5, "recursive"), (ens, 7, 0.3, "recursive")])

    def test_another_strategy(self):
        ens = self.ensemble(3)
        self.check([(ens, 6, 0.5, "pgm"), (ens, 6, 0.5, "recursive")])


class TestRecursiveDetector:
    def test_two_states_is_binary_test(self):
        rho1, rho2 = random_density(2, 2, 71), random_density(2, 2, 72)
        rec, _ = _sub_detector([rho1, rho2], 3, 0.5, "recursive", DEFAULT_DIM_CAP, {})
        assert rec.layout is sectors.layout(2, (3,))
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
        for n in (1, 2):
            det = pgm(states, n)
            expected = [
                1.0 - np.trace(tensor_power(s, n).matrix @ e).real
                for s, e in zip(states, det.elements)
            ]
            got = list(misses(states, det))
            np.testing.assert_allclose(got, expected, atol=1e-14)

    @pytest.mark.parametrize("sub", [None, "pgm", "recursive"])
    def test_matches_one_minus_hit(self, sub):
        # The weight on the other elements against 1 - tr[rho_k E_k] on a
        # full-n PGM (sub=None) and on split detectors.
        ens = Ensemble(tuple(random_density(2, 2, 190 + k) for k in range(4)))
        n = 4
        if sub is None:
            det = pgm(ens.states, n)
        else:
            det = build_split_detector(ens, n, 0.5, sub)[0]
        expected = [
            1.0 - np.trace(tensor_power(s, n).matrix @ e).real
            for s, e in zip(ens.states, det.elements)
        ]
        got = list(misses(ens.states, det))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_builds_one_state_at_a_time(self, monkeypatch):
        # Every state's blocks built so far are gone when the next state's
        # are built.  (Qubit states enter as spin blocks of size at most
        # n + 1, which sectors._spin_blocks caches for the rest of the row.)
        states = [random_density(3, 3, 170 + k) for k in range(4)]
        det = pgm(states, 3)
        assert det.layout is sectors.layout(3, (3,))
        original = sectors.power_blocks
        built = []

        def tracked(rho, layout):
            assert all(ref() is None for ref in built)
            blocks = original(rho, layout)
            built.extend(weakref.ref(b) for b in blocks)
            return blocks

        monkeypatch.setattr(sectors, "power_blocks", tracked)
        total = sum(misses(states, det))
        assert len(built) == 4 * len(det.layout.mults)
        assert 0.0 <= total <= 4.0

    @pytest.mark.parametrize(
        "d, n, other",
        [(2, 3, 3), (3, 3, 2), (3, 1, 2)],
        ids=["spin", "copy-pair", "lone-copy"],
    )
    def test_other_dimension_raises(self, d, n, other):
        # Every layout refuses the states before any block is multiplied.
        det = pgm([random_density(d, d, 185), random_density(d, d, 186)], n)
        states = [random_density(other, other, 187 + k) for k in range(2)]
        with pytest.raises(DimensionMismatch):
            list(misses(states, det))

    def test_count_mismatch_raises(self):
        states = [random_density(2, 2, 180 + k) for k in range(3)]
        det = pgm(states)
        with pytest.raises(ValueError):
            list(misses(states[:2], det))
        with pytest.raises(ValueError):
            list(misses([*states, states[0]], det))


class TestCopiesArgument:
    """A construction given one-copy states and ``n`` is bitwise the same
    construction given the explicit n-copy states, when both are dense.  A
    construction on ``n >= 2`` copies runs on the blocks of one part
    instead (qubit spin blocks, else copy-pair sectors); its elements agree
    with the dense construction's within 1e-12 and its misses within 1e-12
    relative (the differential tolerance of ``TestSpinSplitRows``)."""

    CASES = [(d, n) for d in (2, 3) for n in (1, 2, 3, 4)]

    @staticmethod
    def same(a, b):
        assert a.dim == b.dim and b.layout.mults == (1,)
        if a.layout.mults == (1,):
            got, want = a.elements, b.elements
            assert [e.tobytes() for e in got] == [e.tobytes() for e in want]
        else:
            for x, y in zip(a.elements, b.elements, strict=True):
                assert np.max(np.abs(x - y)) <= 1e-12

    @pytest.mark.parametrize("d,n", CASES)
    def test_holevo_helstrom(self, d, n):
        a, b = random_density(d, d, 8800 + n), random_density(d, d, 8900 + n)
        explicit = holevo_helstrom(tensor_power(a, n), tensor_power(b, n))
        self.same(holevo_helstrom(a, b, n), explicit)

    @pytest.mark.parametrize("d,n", CASES)
    def test_pgm_and_misses(self, d, n):
        states = [random_density(d, d, 8810 + 10 * n + k) for k in range(3)]
        powers = [tensor_power(s, n) for s in states]
        det = pgm(states, n)
        self.same(det, pgm(powers))
        got = np.array(list(misses(states, det)))
        if det.layout.mults == (1,):
            want = np.array(list(misses(powers, det)))
            assert got.tobytes() == want.tobytes()
        else:
            want = np.array(list(misses(powers, pgm(powers))))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d,n", CASES)
    def test_compose_with_binary(self, d, n):
        a, b = random_density(d, d, 8820 + n), random_density(d, d, 8920 + n)
        partials = random_feasible_partials(d ** n, 2, 8830 + n)
        det, trace = compose_with_binary(partials, a, b)
        ref_det, ref = compose_with_binary(
            partials, tensor_power(a, n), tensor_power(b, n)
        )
        self.same(det, ref_det)
        assert (trace.wedge_trace, trace.term_partials) == (
            ref.wedge_trace,
            ref.term_partials,
        )


def dense_helstrom_misses(rho1, rho2, n):
    """The oracle: the dense Helstrom test on the n-copy states."""
    test = holevo_helstrom(tensor_power(rho1, n), tensor_power(rho2, n))
    powers = [tensor_power(rho1, n), tensor_power(rho2, n)]
    return tuple(misses(powers, test))


def qubit_pairs():
    """20 qubit pairs: random pairs of every rank mix, plus orthogonal,
    equal, classical and nearly equal ones."""
    pairs = [
        (
            random_density(2, 1 + k % 2, 500 + k),
            random_density(2, 1 + k // 8, 600 + k),
        )
        for k in range(16)
    ]
    rho = random_density(2, 2, 700)
    pairs += [
        (pure_state([1.0, 0.0]), pure_state([0.0, 1.0])),
        (rho, rho),
        (
            DensityMatrix(np.diag([0.9, 0.1])),
            DensityMatrix(np.diag([0.2, 0.8])),
        ),
        (rho, DensityMatrix(0.999 * rho.matrix + 0.001 * np.eye(2) / 2)),
    ]
    return pairs


class TestHelstromMisses:
    """The qubit block path against the dense oracle."""

    @pytest.mark.parametrize("pair", range(20))
    def test_qubit_blocks_match_dense_test(self, pair):
        rho1, rho2 = qubit_pairs()[pair]
        for n in range(1, 9):
            got = helstrom_misses(rho1, rho2, n)
            expected = dense_helstrom_misses(rho1, rho2, n)
            assert got == pytest.approx(expected, abs=1e-12), n

    def test_qubit_blocks_match_dense_test_at_ten_copies(self):
        rho1, rho2 = random_density(2, 2, 710), random_density(2, 2, 711)
        got = helstrom_misses(rho1, rho2, 10, dim_cap=1024)
        expected = dense_helstrom_misses(rho1, rho2, 10)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "build",
        [
            # Qubit spin blocks of sizes 6, 4 and 2.
            lambda rho1, rho2: helstrom_misses(rho1, rho2, 5),
            # One dense block.
            lambda rho1, rho2: holevo_helstrom(rho1, rho2),
            # The blocks of the swap, of sizes 3 and 1.
            lambda rho1, rho2: compose_with_binary(
                [
                    sectors.Blocks(
                        [0.1 * np.eye(3), 0.1 * np.eye(1)], sectors.layout(2, (2,))
                    )
                ],
                rho1,
                rho2,
            ),
        ],
        ids=["spin-blocks", "dense", "sectors"],
    )
    def test_a_corrupted_block_test_is_refused(self, build, monkeypatch):
        # Every Helstrom test is checked where it is built: shifting the
        # first block's E_+ by -1e-3 breaks its positivity or the sum to
        # the identity, whichever block comes first.
        from qmultitest import detectors

        original = detectors._gram
        calls = []

        def corrupt_first(factor):
            out = original(factor)
            if not calls:
                out -= 1e-3 * np.eye(len(out))
            calls.append(len(out))
            return out

        monkeypatch.setattr(detectors, "_gram", corrupt_first)
        rho1, rho2 = random_density(2, 2, 730), random_density(2, 2, 731)
        with pytest.raises(PSDViolation, match="^invalid POVM: "):
            build(rho1, rho2)
        assert calls

    def test_rejects_mixed_dimensions_and_the_cap(self):
        with pytest.raises(DimensionMismatch):
            helstrom_misses(random_density(2, 2, 740), random_density(3, 3, 741), 2)
        rho1, rho2 = random_density(2, 2, 742), random_density(2, 2, 743)
        with pytest.raises(DimensionCapExceeded, match=r"dim 2\^5 = 32 exceeds cap 16"):
            helstrom_misses(rho1, rho2, 5, dim_cap=16)
        # Qutrits on copy-pair sectors: 3^4 = 81 is one past the cap.
        a, b = random_density(3, 3, 744), random_density(3, 3, 745)
        for build in (
            lambda: holevo_helstrom(a, b, 4, dim_cap=80),
            lambda: helstrom_misses(a, b, 4, dim_cap=80),
            lambda: pgm([a, b], 4, dim_cap=80),
        ):
            with pytest.raises(
                DimensionCapExceeded, match=r"^dim 3\^4 = 81 exceeds cap 80$"
            ):
                build()


class TestCapAtEntry:
    """Only a builder checks the dimension cap, at entry, before its
    layout; scoring and composition take the shapes they are given."""

    def test_builders_refuse_before_the_layout(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a layout was asked for")

        a, b = random_density(2, 2, 750), random_density(2, 2, 751)
        monkeypatch.setattr(sectors, "layout", forbidden)
        for build in (
            lambda: holevo_helstrom(a, b, 13),
            lambda: pgm([a, b], 13),
            lambda: holevo_helstrom(a, b, 15000),
        ):
            with pytest.raises(DimensionCapExceeded):
                build()

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_builders_refuse_a_copy_count_below_one(self, n):
        # The qutrit layout of -1 or -3 copies is one lone copy, on which
        # a one-copy detector used to be built.
        a, b = random_density(3, 3, 757), random_density(3, 3, 758)
        message = f"^copy count must be positive, got {n}$"
        for build in (lambda: holevo_helstrom(a, b, n), lambda: pgm([a, b], n)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_refusal_at_the_default_cap_is_immediate(self):
        a, b = random_density(2, 2, 752), random_density(2, 2, 753)
        before = sectors.layout.cache_info()
        start = time.perf_counter()
        for build in (lambda: holevo_helstrom(a, b, 10000), lambda: pgm([a, b], 10000)):
            with pytest.raises(
                DimensionCapExceeded, match=r"^dim 2\^10000 exceeds cap 4096$"
            ):
                build()
        assert time.perf_counter() - start < 0.1
        assert sectors.layout.cache_info() == before

    def test_scoring_past_the_default_cap_needs_no_cap(self):
        # A binary detector and a split row's partials, both past the
        # default cap, are scored and composed as built.
        from qmultitest.evaluation import run_experiment

        a, b = random_density(2, 2, 754), random_density(2, 2, 755)
        binary = holevo_helstrom(a, b, 13, dim_cap=2**13)
        (row,) = run_experiment(Ensemble((a, b)), [13], dim_cap=2**14).rows
        assert tuple(misses([a, b], binary)) == row.report.per_state_error
        assert error_sum(Ensemble((a, b)), binary) == row.report

        ens = Ensemble(tuple(random_density(2, 2, 756 + k) for k in range(3)))
        least = PairwiseTable(ens).least
        order = [*least, *(k for k in range(3) if k not in least)]
        first, second, tail = (ens.states[k] for k in order)
        subs = [pgm([rho, tail], 7, dim_cap=2**14) for rho in (first, second)]
        partial = sectors.kron(
            *(sectors.Blocks(sub.blocks[1], sub.layout) for sub in subs)
        )
        split, _ = compose_with_binary([partial], first, second)
        report = error_sum(Ensemble((first, second, tail)), split)
        (row,) = run_experiment(ens, [14], dim_cap=2**14).rows
        assert report.err_sm == row.report.err_sm
        per_state = [report.per_state_error[order.index(k)] for k in range(3)]
        assert tuple(per_state) == row.report.per_state_error


class TestDetectorChecks:
    def test_corrupted_element_is_flagged(self):
        det = pgm([random_density(2, 2, 1), random_density(2, 2, 2)])
        bad = dense_detector([det.elements[0] * 1.1, det.elements[1]])
        problems = check_detector(bad)
        assert problems and problems[-1].startswith("elements sum to identity")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_element_is_flagged(self, value):
        m = np.diag([0.25, 0.75]).astype(np.complex128)
        m[0, 0] = value
        det = Detector(((m,), (np.eye(2) - m,)), sectors.layout(2, (1,)))
        # A refused element leaves the sum unchecked: no defect is reported.
        assert check_detector(det) == [
            f"element {k}: matrix has a non-finite entry" for k in (0, 1)
        ]

    def test_non_hermitian_element_is_flagged_alone(self):
        # The elements sum to I exactly; only their Hermiticity fails.
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=np.complex128)
        det = Detector(((m,), (np.eye(2) - m,)), sectors.layout(2, (1,)))
        assert check_detector(det) == [
            f"element {k}: matrix is not Hermitian: max |A - A^dag| = 2.000e-01"
            for k in (0, 1)
        ]

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
        sizes = {"eigh": [], "eigvalsh": [], "cholesky": []}
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
        det, _, _ = build_split_detector(ens, 6)
        assert det.layout is sectors.layout(2, (3, 3))
        # Nothing is decomposed or checked above the largest spin block,
        # (3 + 1)(3 + 1) = 16.
        assert max(size for sizes in kernel_sizes.values() for size in sizes) == 16
        assert kernel_sizes["eigvalsh"].count(16) == 0
        # Every composition check runs on the spin blocks of sizes 16, 8, 8
        # and 4, six per block: binary test (2), partial (1), the pair's
        # elements (2), squared defect (1).  The two PGM sub-detectors
        # check their two elements on their blocks of sizes 4 and 2, and the
        # three one-copy states were checked when they were made.
        per_size = collections.Counter(kernel_sizes["cholesky"])
        assert (per_size[16], per_size[8], per_size[4], per_size[2]) == (
            6, 12, 6 + 4, 4 + 3
        )

    def test_planted_negative_element_keeps_its_message(self):
        d = 256
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        spectrum = np.linspace(0.0, 1.0, d)
        spectrum[0] = -3e-7
        first = (q * spectrum) @ q.conj().T
        first = (first + first.conj().T) / 2.0
        det = dense_detector([first, np.eye(d) - first])
        assert check_detector(det) == ["element 0 has negative eigenvalue -3.000e-07"]

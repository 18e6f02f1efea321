import math

import numpy as np
import pytest

from qmultitest import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    Ensemble,
    classical_state,
    holevo_helstrom,
    mix,
    pure_state,
    random_density,
    run_experiment,
    tensor_power,
)
from qmultitest.errors import (
    DegenerateInput,
    DimensionCapExceeded,
    DimensionMismatch,
    HermiticityViolation,
    NormalizationViolation,
    PSDViolation,
    TraceViolation,
)
from qmultitest.rng import SplitMix64
from qmultitest.states import check_power, within_cap
from qmultitest import sectors
from qmultitest.sectors import _sym_power, layout, power_blocks

from conftest import clear_sectors_caches

# Reference outputs for SplitMix64 with seed 1234567, as published with the
# xoshiro generator family's test material.
SPLITMIX_SEED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


class TestSplitMix64:
    def test_reference_vectors(self):
        stream = SplitMix64(1234567)
        assert [stream.next_raw() for _ in range(5)] == SPLITMIX_SEED_1234567

    def test_doubles_in_range(self):
        stream = SplitMix64(99)
        values = [stream.next_double() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in values)
        stream = SplitMix64(99)
        opens = [stream.next_double_open() for _ in range(1000)]
        assert all(0.0 < u <= 1.0 for u in opens)

    def test_gaussian_matrix_deterministic(self):
        a = SplitMix64(7).gaussian_matrix(3, 2)
        b = SplitMix64(7).gaussian_matrix(3, 2)
        assert a.tobytes() == b.tobytes()


class TestDensityFromMatrix:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert rho.dim == 2
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2)

    def test_trace_violation(self):
        with pytest.raises(TraceViolation):
            DensityMatrix(np.diag([0.5, 0.6]))

    def test_psd_violation(self):
        with pytest.raises(PSDViolation):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_hermiticity_violation(self):
        with pytest.raises(HermiticityViolation):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_entries_are_refused(self, value, where):
        # Every tolerance comparison is False on NaN, so the check is its own.
        m = np.eye(2, dtype=complex) / 2
        m[where] = m[where[::-1]] = value
        with pytest.raises(HermiticityViolation, match="non-finite entry"):
            DensityMatrix(m)
        with pytest.raises(HermiticityViolation, match="non-finite entry"):
            DensityMatrix(np.diag([0.5, 0.5 + 1j * value]))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.3


class TestPureState:
    def test_basis_vector(self):
        np.testing.assert_allclose(
            pure_state([1.0, 0.0]).matrix, np.diag([1.0, 0.0])
        )

    def test_unnormalized_plus(self):
        np.testing.assert_allclose(
            pure_state([1.0, 1.0]).matrix, np.full((2, 2), 0.5)
        )

    def test_spectrum_is_rank_one(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = np.linalg.eigvalsh(pure_state(v).matrix)
        np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-10)

    def test_zero_vector(self):
        with pytest.raises(DegenerateInput):
            pure_state([0.0, 0.0])

    @pytest.mark.parametrize("v", [[1.0, np.nan], [np.inf, 0.0], [1.0, 1j * np.nan]])
    def test_non_finite_amplitude(self, v):
        with pytest.raises(HermiticityViolation, match="non-finite entry"):
            pure_state(v)


class TestClassicalState:
    @pytest.mark.parametrize(
        "p", [[1.0, 0.0], [0.5, 0.5], [0.2, 0.3, 0.5]]
    )
    def test_diagonal(self, p):
        np.testing.assert_allclose(classical_state(p).matrix, np.diag(p))

    def test_bad_sum(self):
        with pytest.raises(NormalizationViolation):
            classical_state([0.5, 0.6])

    def test_negative_entry(self):
        with pytest.raises(NormalizationViolation):
            classical_state([1.2, -0.2])

    @pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, np.nan, 0.5]])
    def test_non_finite_entry(self, p):
        with pytest.raises(HermiticityViolation, match="non-finite entry"):
            classical_state(p)


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        for seed in (0, 1, 17):
            rho = random_density(2, 1, seed)
            assert np.linalg.eigvalsh(rho.matrix)[-1] == pytest.approx(
                1.0, abs=1e-10
            )

    def test_deterministic_per_seed(self):
        a = random_density(2, 2, 42)
        b = random_density(2, 2, 42)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.matrix.tobytes() != random_density(2, 2, 43).matrix.tobytes()

    def test_rank_counts(self):
        # rank-2 draws on a 4-dim space show exactly 2 nonzero eigenvalues
        for seed in range(10):
            rho = random_density(4, 2, seed)
            w = np.linalg.eigvalsh(rho.matrix)
            floor = 1e-12 * np.max(np.abs(w))
            assert int(np.sum(w > floor)) == 2

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            random_density(2, 3, 0)

    def test_outputs_validate(self):
        for seed in range(5):
            rho = random_density(3, 3, seed)
            DensityMatrix(rho.matrix)


class TestMix:
    def test_endpoints(self):
        rho = random_density(2, 2, 5)
        sigma = random_density(2, 2, 6)
        np.testing.assert_allclose(mix(rho, sigma, 0.0).matrix, rho.matrix)
        np.testing.assert_allclose(mix(rho, sigma, 1.0).matrix, sigma.matrix)

    def test_half_mix_of_orthogonal(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(mix(rho, sigma, 0.5).matrix, np.eye(2) / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mix(random_density(2, 2, 1), random_density(3, 3, 1), 0.5)


class TestTensorPower:
    def test_single_copy(self):
        rho = random_density(2, 2, 2)
        assert tensor_power(rho, 1) is rho

    def test_mixed_qubit_cubed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        np.testing.assert_allclose(tensor_power(rho, 3).matrix, np.eye(8) / 8)

    def test_spectrum_is_pairwise_products(self):
        rho = random_density(2, 2, 3)
        w = np.linalg.eigvalsh(rho.matrix)
        expected = np.sort(np.outer(w, w).reshape(-1))
        got = np.linalg.eigvalsh(tensor_power(rho, 2).matrix)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_additivity(self):
        rho = random_density(2, 2, 4)
        lhs = tensor_power(rho, 3).matrix
        rhs = np.kron(tensor_power(rho, 1).matrix, tensor_power(rho, 2).matrix)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_cap(self):
        with pytest.raises(DimensionCapExceeded):
            tensor_power(random_density(2, 2, 5), 3, dim_cap=4)

    def test_within_cap_multiplies_only_up_to_the_cap(self):
        assert within_cap(2, 12, 4096) and not within_cap(2, 13, 4096)
        assert within_cap(3, 7, 2187) and not within_cap(3, 7, 2186)
        assert within_cap(1, 1000, 1)
        # 3^(10^8) alone takes minutes to compute.
        assert not within_cap(3, 10**8, DEFAULT_DIM_CAP)

    @pytest.mark.parametrize("d, n", [(2, 15000), (3, 10**8)])
    def test_cap_far_past_it(self, d, n):
        # d^n is never formed: 2^15000 has more digits than an int converts
        # to a string, so the message names d^n without its value.
        rho = random_density(d, d, 5)
        message = rf"^dim {d}\^{n} exceeds cap 4096$"
        with pytest.raises(DimensionCapExceeded, match=message):
            check_power(rho, n, DEFAULT_DIM_CAP)
        with pytest.raises(DimensionCapExceeded, match=message):
            tensor_power(rho, n)

    def test_output_validates(self):
        rho = tensor_power(random_density(2, 2, 6), 3)
        DensityMatrix(rho.matrix)


def spin_blocks(rho, n):
    """The ``(m_t, block)`` pairs of ``rho^(x)n`` on the qubit factor of
    ``n`` copies."""
    lay = layout(2, (n,))
    return list(zip(lay.mults, power_blocks(rho, lay)))


class TestSpinBlocks:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_multiplicities_fill_the_space(self, n):
        blocks = spin_blocks(random_density(2, 2, 7), n)
        assert len(blocks) == n // 2 + 1
        assert [len(block) for _, block in blocks] == [
            n - 2 * t + 1 for t in range(n // 2 + 1)
        ]
        assert sum(m * len(block) for m, block in blocks) == 2**n
        assert sum(m * np.trace(block).real for m, block in blocks) == (
            pytest.approx(1.0, abs=1e-12)
        )

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_difference_matches_dense_power(self, rank, n):
        # The blocks stand for rho^(x)n up to one change of basis, so the
        # difference's trace moments and trace norm are block sums.
        rho1 = random_density(2, rank, 300 + n)
        rho2 = random_density(2, rank, 400 + n)
        dense = tensor_power(rho1, n).matrix - tensor_power(rho2, n).matrix
        blocks = [
            (m, x - y)
            for (m, x), (_, y) in zip(spin_blocks(rho1, n), spin_blocks(rho2, n))
        ]
        for k in (1, 2, 3):
            expected = np.trace(np.linalg.matrix_power(dense, k)).real
            got = sum(
                m * np.trace(np.linalg.matrix_power(b, k)).real for m, b in blocks
            )
            assert got == pytest.approx(expected, abs=1e-12)
        norm = np.sum(np.abs(np.linalg.eigvalsh(dense)))
        got = sum(m * np.sum(np.abs(np.linalg.eigvalsh(b))) for m, b in blocks)
        assert got == pytest.approx(norm, abs=1e-12)

    def test_pure_state_has_only_the_symmetric_block(self):
        blocks = spin_blocks(pure_state([0.6, 0.8j]), 6)
        top = blocks[0][1]
        assert np.linalg.eigvalsh(top)[-1] == pytest.approx(1.0, abs=1e-12)
        for _, block in blocks[1:]:
            assert np.max(np.abs(block)) <= 1e-15

    def test_rejects_other_dimensions(self):
        with pytest.raises(DimensionMismatch):
            spin_blocks(random_density(3, 3, 8), 2)

    def test_cap_message_matches_tensor_power(self):
        # The builder on spin blocks refuses as the dense power does.
        rho, sigma = random_density(2, 2, 9), random_density(2, 2, 10)
        with pytest.raises(DimensionCapExceeded) as dense:
            tensor_power(rho, 5, dim_cap=16)
        with pytest.raises(DimensionCapExceeded) as blocks:
            holevo_helstrom(rho, sigma, 5, dim_cap=16)
        assert str(blocks.value) == str(dense.value)
        with pytest.raises(ValueError) as dense:
            tensor_power(rho, 0)
        with pytest.raises(ValueError) as blocks:
            holevo_helstrom(rho, sigma, 0)
        assert str(blocks.value) == str(dense.value)
        assert str(dense.value) == "copy count must be positive, got 0"


class TestSymPower:
    """``A^(x)k`` on the symmetric subspace past ``k = 66``, where the
    binomials no longer fit an int64."""

    K = 70

    def test_diagonal_state(self):
        p, q = 0.7, 0.3
        a = np.diag([p, q]).astype(complex)
        got = _sym_power(a.tobytes(), self.K)
        want = np.array([p ** (self.K - j) * q ** j for j in range(self.K + 1)])
        np.testing.assert_allclose(np.diag(got), want, rtol=1e-12, atol=0.0)
        assert np.array_equal(got, np.diag(np.diag(got)))

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_is_the_complete_symmetric_sum(self, seed):
        # tr Sym^k(rho) = sum_j l1^(k-j) l2^j over rho's eigenvalues.
        rho = random_density(2, 2, 500 + seed)
        low, high = np.linalg.eigvalsh(rho.matrix)
        want = sum(high ** (self.K - j) * low ** j for j in range(self.K + 1))
        a = rho.matrix
        got = np.trace(_sym_power(a.tobytes(), self.K))
        assert got.real == pytest.approx(want, rel=1e-12)
        assert abs(got.imag) <= 1e-12 * want


def reference_spin_blocks(rho, p):
    """``det(rho)^t Sym^(p-2t)(rho)`` for ``t = 0..p//2``, built for this
    ``p`` alone: its own binomial columns of exponents ``0..p`` and its own
    powers, with the operations the shared caches perform."""
    a = rho.matrix
    det = float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real)

    def binomial(x, y, e):
        terms = [math.comb(e, q) * x ** (e - q) * y ** q for q in range(e + 1)]
        return np.array(terms, dtype=np.complex128)

    left = [binomial(a[0, 0], a[1, 0], e) for e in range(p + 1)]
    right = [binomial(a[0, 1], a[1, 1], e) for e in range(p + 1)]
    blocks = []
    for t in range(p // 2 + 1):
        k = p - 2 * t
        sym = np.empty((k + 1, k + 1), dtype=np.complex128)
        for j in range(k + 1):
            sym[:, j] = np.convolve(left[k - j], right[j])
        norms = np.array([math.sqrt(float(math.comb(k, j))) for j in range(k + 1)])
        blocks.append(det ** t * (sym * (norms[None, :] / norms[:, None])))
    return blocks


class TestSharedPowers:
    """Every copy count's spin blocks share the state's ``Sym^k`` and their
    binomial columns, cached once per state and ``k`` or exponent."""

    STATES = (
        random_density(2, 2, 31),
        pure_state([1.0, 1.0j]),
        classical_state([0.7, 0.3]),
    )
    PS = range(1, 13)

    @staticmethod
    def _bytes(blocks):
        return [(b.shape, b.tobytes()) for b in blocks]

    @pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
    def test_blocks_match_each_copy_count_built_alone(self, order):
        # Whatever the caches hold from earlier copy counts or states, each
        # block is the same bytes as one built for its copy count alone.
        if order == "interleaved":
            calls = [(rho, p) for p in self.PS for rho in self.STATES]
        else:
            ps = self.PS if order == "ascending" else self.PS[::-1]
            calls = [(rho, p) for rho in self.STATES for p in ps]
        assert np.linalg.det(self.STATES[1].matrix) == 0.0  # det^t = 0 for t > 0
        clear_sectors_caches()
        for rho, p in calls:
            got = sectors._spin_blocks(rho.matrix.tobytes(), p)
            assert self._bytes(got) == self._bytes(reference_spin_blocks(rho, p))

    def test_cached_arrays_are_read_only(self):
        clear_sectors_caches()
        for rho in self.STATES:
            m = rho.matrix.tobytes()
            for _ in range(2):  # computed, then from the cache
                arrays = [b for p in self.PS for b in sectors._spin_blocks(m, p)]
                arrays += [sectors._sym_power(m, k) for k in range(13)]
                arrays += [
                    sectors._binomial(m, c, e) for c in (0, 1) for e in range(13)
                ]
                for x in arrays:
                    assert not x.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        x[(0,) * x.ndim] = 0.0

    def test_binary_table_computes_each_power_once(self):
        # Sym^k for k = 0..11 of each state, and their columns of exponents
        # 0..11, are each computed once over the rows n = 2..11.
        ens = Ensemble((random_density(2, 2, 41), random_density(2, 2, 42)))
        clear_sectors_caches()
        run_experiment(ens, range(2, 12))
        assert sectors._sym_power.cache_info().misses == 24
        assert sectors._binomial.cache_info().misses == 2 * 2 * 12


class TestEnsemble:
    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            Ensemble((random_density(2, 2, 1),))

    def test_rejects_duplicates(self):
        rho = random_density(2, 2, 1)
        with pytest.raises(ValueError):
            Ensemble((rho, DensityMatrix(rho.matrix.copy())))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            Ensemble((random_density(2, 2, 1), random_density(3, 3, 1)))

    def test_labels_must_match(self):
        states = (random_density(2, 2, 1), random_density(2, 2, 2))
        with pytest.raises(ValueError):
            Ensemble(states, labels=("a",))
        ens = Ensemble(states, labels=("a", "b"))
        assert ens.r == 2 and ens.dim == 2

import numpy as np
import pytest

from qmultitest import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    Ensemble,
    classical_state,
    density_from_matrix,
    mix,
    pure_state,
    random_density,
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
from qmultitest.sectors import _binomials, _sym_power, layout, power_blocks

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
        rho = density_from_matrix(np.eye(2) / 2)
        assert rho.dim == 2
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2)

    def test_trace_violation(self):
        with pytest.raises(TraceViolation):
            density_from_matrix(np.diag([0.5, 0.6]))

    def test_psd_violation(self):
        with pytest.raises(PSDViolation):
            density_from_matrix(np.diag([1.2, -0.2]))

    def test_hermiticity_violation(self):
        with pytest.raises(HermiticityViolation):
            density_from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_entries_are_refused(self, value, where):
        # Every tolerance comparison is False on NaN, so the check is its own.
        m = np.eye(2, dtype=complex) / 2
        m[where] = m[where[::-1]] = value
        with pytest.raises(HermiticityViolation, match="non-finite entry"):
            density_from_matrix(m)
        with pytest.raises(HermiticityViolation, match="non-finite entry"):
            density_from_matrix(np.diag([0.5, 0.5 + 1j * value]))

    def test_matrix_is_read_only(self):
        rho = density_from_matrix(np.eye(2) / 2)
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
            density_from_matrix(rho.matrix)


class TestMix:
    def test_endpoints(self):
        rho = random_density(2, 2, 5)
        sigma = random_density(2, 2, 6)
        np.testing.assert_allclose(mix(rho, sigma, 0.0).matrix, rho.matrix)
        np.testing.assert_allclose(mix(rho, sigma, 1.0).matrix, sigma.matrix)

    def test_half_mix_of_orthogonal(self):
        rho = density_from_matrix(np.diag([1.0, 0.0]))
        sigma = density_from_matrix(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(mix(rho, sigma, 0.5).matrix, np.eye(2) / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mix(random_density(2, 2, 1), random_density(3, 3, 1), 0.5)


class TestTensorPower:
    def test_single_copy(self):
        rho = random_density(2, 2, 2)
        assert tensor_power(rho, 1) is rho

    def test_mixed_qubit_cubed(self):
        rho = density_from_matrix(np.eye(2) / 2)
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

    def test_output_validates(self):
        rho = tensor_power(random_density(2, 2, 6), 3)
        density_from_matrix(rho.matrix)


def spin_blocks(rho, n, dim_cap=DEFAULT_DIM_CAP):
    """The ``(m_t, block)`` pairs of ``rho^(x)n`` on the qubit factor of
    ``n`` copies."""
    lay = layout(2, (n,))
    return list(zip(lay.mults, power_blocks(rho, lay, dim_cap)))


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
        rho = random_density(2, 2, 9)
        with pytest.raises(DimensionCapExceeded) as dense:
            tensor_power(rho, 5, dim_cap=16)
        with pytest.raises(DimensionCapExceeded) as blocks:
            spin_blocks(rho, 5, dim_cap=16)
        assert str(blocks.value) == str(dense.value)
        with pytest.raises(ValueError, match="copy count must be positive"):
            spin_blocks(rho, 0)


class TestSymPower:
    """``A^(x)k`` on the symmetric subspace past ``k = 66``, where the
    binomials no longer fit an int64."""

    K = 70

    def test_diagonal_state(self):
        p, q = 0.7, 0.3
        a = np.diag([p, q]).astype(complex)
        got = _sym_power(a, self.K, _binomials(a, self.K))
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
        got = np.trace(_sym_power(a, self.K, _binomials(a, self.K)))
        assert got.real == pytest.approx(want, rel=1e-12)
        assert abs(got.imag) <= 1e-12 * want


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

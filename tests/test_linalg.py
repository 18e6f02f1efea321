import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmultitest import linalg
from qmultitest.errors import HermiticityViolation, PSDViolation

from conftest import matrix_power, random_hermitian, random_psd


class TestEigh:
    def test_identity(self):
        w, v = linalg.eigh(np.eye(3))
        np.testing.assert_allclose(w, [1, 1, 1])
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, _ = linalg.eigh(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_reconstruction_on_seeded_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            h = random_hermitian(rng, 8)
            w, v = linalg.eigh(h)
            rebuilt = (v * w) @ v.conj().T
            rel = np.linalg.norm(rebuilt - h) / (1 + np.linalg.norm(h))
            assert rel < 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(HermiticityViolation):
            linalg.eigh(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityViolation):
            linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixPower:
    """The overlap-curve oracle ``conftest.matrix_power``."""

    def test_identity_half_power(self):
        np.testing.assert_allclose(
            matrix_power(np.eye(2), 0.5), np.eye(2), atol=1e-12
        )

    def test_diagonal_half_power(self):
        out = matrix_power(np.diag([4.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_projector_powers_are_idempotent(self):
        # P^s = P for a rank-1 projector, checked via eigendecomposition.
        rng = np.random.default_rng(3)
        for s in (0.1, 0.37, 0.5, 0.9):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            p = np.outer(v, v.conj()) / np.vdot(v, v).real
            np.testing.assert_allclose(matrix_power(p, s), p, atol=1e-12)

    def test_zero_power_is_support(self):
        out = matrix_power(np.diag([0.5, 0.0, 0.2]), 0.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0, 1.0]), atol=1e-12)

    def test_power_one_is_input(self):
        rng = np.random.default_rng(4)
        a = random_psd(rng, 4)
        np.testing.assert_allclose(matrix_power(a, 1.0), a, atol=1e-10)

    def test_exponent_addition_on_support(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 4, rank=3)
        a /= np.trace(a).real
        for s, t in ((0.2, 0.3), (0.5, 0.5), (0.1, 0.85)):
            lhs = matrix_power(a, s) @ matrix_power(a, t)
            rhs = matrix_power(a, s + t)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(PSDViolation):
            matrix_power(np.diag([1.0, -0.5]), 0.5)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            matrix_power(np.eye(2), -0.5)


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(linalg.sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        out = linalg.sqrt_psd(np.diag([9.0, 4.0]))
        np.testing.assert_allclose(out, np.diag([3.0, 2.0]), atol=1e-12)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = random_psd(rng, 5)
            b = linalg.sqrt_psd(a)
            assert np.max(np.abs(b @ b - a)) <= 1e-9 * (1 + np.max(np.abs(a)))


class TestCheckHermitian:
    """The row-blocked check against the whole-matrix formula."""

    @staticmethod
    def whole_matrix(m):
        return np.max(np.abs(m - m.conj().T)), 1.0 + np.max(np.abs(m))

    @pytest.mark.parametrize("d", [3, 300, 1024])
    def test_planted_defect_decided_at_the_exact_edge(self, np_rng, monkeypatch, d):
        # 300 and 1024 span several row blocks; the defect sits in the last.
        m = random_hermitian(np_rng, d)
        m[d - 1, 1] += 3e-9
        defect, scale = self.whole_matrix(m)
        edge = defect / scale
        for tol in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            # The tolerance is read at call time.
            monkeypatch.setattr(linalg, "TOL_HERM", tol)
            if defect > tol * scale:
                with pytest.raises(HermiticityViolation) as info:
                    linalg.check_hermitian(m)
                assert str(info.value) == (
                    f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e}"
                )
            else:
                assert linalg.check_hermitian(m) is m

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_in_one_block_is_refused(self, np_rng, value):
        # A comparison against a NaN or infinite scale is False, so the
        # whole-matrix form accepts; the check refuses, whatever the other
        # blocks hold.
        m = random_hermitian(np_rng, 1024)
        m[0, 5] = value
        m[1000, 3] += 1.0
        defect, scale = self.whole_matrix(m)
        assert not defect > linalg.TOL_HERM * scale
        with pytest.raises(HermiticityViolation, match="non-finite entry"):
            linalg.check_hermitian(m)

    def test_peak_stays_well_below_one_matrix(self, np_rng):
        d = 1024
        m = random_hermitian(np_rng, d)
        tracemalloc.start()
        try:
            linalg.check_hermitian(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 16 * d * d


@pytest.mark.parametrize("d", [1, 3, 64])
def test_hermitize_is_the_halved_sum_bit_for_bit(np_rng, d):
    a = np_rng.normal(size=(d, d)) + 1j * np_rng.normal(size=(d, d))
    before = a.copy()
    got = linalg.hermitize(a)
    assert got.tobytes() == ((a + a.conj().T) / 2.0).tobytes()
    np.testing.assert_array_equal(a, before)


def test_real_scalar_guards_residue():
    assert linalg.real_scalar(1.0 + 1e-12j) == 1.0
    for z in (1.0 + 1e-6j, complex(np.nan, 0.0), complex(0.0, np.nan), np.inf):
        with pytest.raises(ArithmeticError):
            linalg.real_scalar(z)


def test_trace_product_matches_full_product(np_rng):
    # Only the second factor needs to be Hermitian.
    for d in (1, 4, 64):
        a = np_rng.normal(size=(d, d)) + 1j * np_rng.normal(size=(d, d))
        b = random_hermitian(np_rng, d)
        assert linalg.trace_product(a, b) == pytest.approx(
            complex(np.trace(a @ b)), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize(
    "shapes", [((1, 1), (3, 3)), ((2, 2), (4, 4)), ((3, 2), (2, 5))]
)
def test_kron_is_numpy_kron_bit_for_bit(np_rng, shapes):
    a, b = (
        np_rng.normal(size=shape) + 1j * np_rng.normal(size=shape)
        for shape in shapes
    )
    assert linalg.kron(a, b).tobytes() == np.kron(a, b).tobytes()
    assert linalg.kron(a, b).shape == np.kron(a, b).shape


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestPsdViolation:
    """Differential tests of the Cholesky-certified PSD threshold against
    ``eigvalsh``, the dense oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 128),
        lowest_in_tol=st.sampled_from(
            [-2.0, -(1 + 1e-3), -(1 - 1e-3), -0.75, -0.5, 0.0, 1.0]
        ),
        tol=st.sampled_from([linalg.TOL_PSD, 1e-9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_spectrum_matches_eigvalsh(self, d, lowest_in_tol, tol, seed):
        rng = np.random.default_rng(seed)
        lowest = lowest_in_tol * tol
        spectrum = np.concatenate([[lowest], lowest + rng.uniform(0.0, 1.0, d - 1)])
        u = _unitary(rng, d)
        m = (u * spectrum) @ u.conj().T
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        before = m.copy()

        got = linalg.psd_violation(m, tol)

        oracle = float(np.linalg.eigvalsh(m)[0])
        if abs(lowest + tol) > 1e-12:
            assert (got is not None) == (oracle < -tol)
        if got is not None:
            assert got == oracle
        np.testing.assert_array_equal(m, before)

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 128])
    def test_projectors_of_every_rank(self, d):
        u = _unitary(np.random.default_rng(d), d)
        for rank in range(d + 1):
            p = u[:, :rank] @ u[:, :rank].conj().T
            assert linalg.psd_violation(p) is None
            assert np.linalg.eigvalsh(p)[0] >= -linalg.TOL_PSD
            if rank:
                assert linalg.psd_violation(-p) == float(np.linalg.eigvalsh(-p)[0])

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
    def test_rejects_non_hermitian(self, d, seed):
        rng = np.random.default_rng(seed)
        m = random_psd(rng, d)
        m[0, d - 1] += 1.0
        before = m.copy()
        with pytest.raises(HermiticityViolation):
            linalg.psd_violation(m)
        np.testing.assert_array_equal(m, before)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_are_refused_before_any_decomposition(
        self, monkeypatch, value
    ):
        calls = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(a))
        m = np.eye(4, dtype=np.complex128)
        m[2, 1] = m[1, 2] = value
        for check in (linalg.psd_violation, linalg.eigh):
            with pytest.raises(HermiticityViolation, match="non-finite entry"):
                check(m)
        assert calls == []

"""Dense Hermitian matrix kernel.

Everything downstream (states, detectors, exponent estimates) is built on
the spectral calculus in this module: eigendecomposition, the zero floor
that fixes supports, square roots of positive semidefinite matrices, and
trace utilities.

Conventions fixed here and relied on elsewhere:

* Eigenvalues at or below ``eig_floor(A) = 1e-12 * max |eigenvalue|`` are
  treated as exact zeros: they are outside the support of ``A``.
* A fractional power ``A**s`` (the Chernoff overlap curve's) acts on the
  support only, so ``A**0`` is the support projection of ``A``, not the
  identity (``0**0 := 0``).
* PSD threshold tests go through ``psd_violation``, which accepts with a
  shifted Cholesky factorization and rejects only on ``eigvalsh``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import HermiticityViolation, PSDViolation

TOL_HERM = 1e-10
TOL_PSD = 1e-10
EIG_FLOOR_REL = 1e-12


class HermitianEig(NamedTuple):
    """Spectral decomposition: ascending eigenvalues, orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise HermiticityViolation(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def check_hermitian(a, tol: float = TOL_HERM) -> np.ndarray:
    """Return ``a`` as a complex matrix, raising unless it is square and
    self-adjoint within ``tol * (1 + max |entry|)``."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise HermiticityViolation(f"matrix is not square: shape {m.shape}")
    scale = 1.0 + (np.max(np.abs(m)) if m.size else 0.0)
    defect = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if defect > tol * scale:
        raise HermiticityViolation(
            f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e}"
        )
    return m


def eigh(h) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and matching orthonormal
    eigenvectors as columns, so ``V @ diag(w) @ V^dag`` reconstructs the
    input.
    """
    m = check_hermitian(h)
    w, v = np.linalg.eigh(m)
    return HermitianEig(w, v)


def eigvalsh(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    m = check_hermitian(h)
    return np.linalg.eigvalsh(m)


def eig_floor(values: np.ndarray) -> float:
    """Relative threshold below which eigenvalues count as zero."""
    if values.size == 0:
        return 0.0
    return EIG_FLOOR_REL * float(np.max(np.abs(values)))


def psd_violation(a, tol: float = TOL_PSD) -> float | None:
    """Lowest eigenvalue of a Hermitian matrix when it is below ``-tol``,
    else ``None``.

    Acceptance is certified by a Cholesky factorization of
    ``A + (tol/2) I``: it succeeds only when ``lambda_min(A) > -tol/2``
    up to the factorization's rounding, of order ``D * eps * max A_ii``,
    which is far below ``tol/2`` for POVM elements and states at the
    dimension cap.  When the factorization breaks down (or meets a
    non-finite entry), ``eigvalsh`` decides with the exact predicate
    ``lambda_min < -tol``, so every rejection reports the eigenvalue a
    full decomposition gives.  The input is left unmodified.
    """
    m = check_hermitian(a)
    if not m.size:
        return None
    shifted = m.copy()
    shifted.reshape(-1)[:: m.shape[0] + 1] += tol / 2.0
    try:
        # A non-finite entry can pass the factorization; it shows on the
        # factor's diagonal.
        certified = bool(np.isfinite(np.linalg.cholesky(shifted).diagonal()).all())
    except np.linalg.LinAlgError:
        certified = False
    if certified:
        return None
    del shifted
    lowest = float(np.linalg.eigvalsh(m)[0])
    return lowest if lowest < -tol else None


def _check_psd(values: np.ndarray, tol: float = TOL_PSD) -> None:
    if values.size and float(values[0]) < -tol:
        raise PSDViolation(f"matrix has negative eigenvalue {values[0]:.3e}")


def _reconstruct(vectors: np.ndarray, diag: np.ndarray) -> np.ndarray:
    out = (vectors * diag) @ vectors.conj().T
    return (out + out.conj().T) / 2.0


def sqrt_psd(a) -> np.ndarray:
    """PSD square root: returns B with ``B @ B = A``."""
    w, v = eigh(a)
    _check_psd(w)
    return _reconstruct(v, np.sqrt(np.clip(w, 0.0, None)))


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(eigvalsh(a))))


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """``tr[A B]`` in O(d^2) without forming the product."""
    return complex(np.sum(a * b.T))


def real_scalar(z, tol: float = 1e-9) -> float:
    """Discard an imaginary residue after asserting it is negligible.

    All physically meaningful traces in this package are real; a large
    residue signals a kernel bug and raises rather than being silenced.
    """
    z = complex(z)
    if abs(z.imag) > tol:
        raise ArithmeticError(f"imaginary residue {z.imag:.3e} exceeds {tol:.1e}")
    return z.real

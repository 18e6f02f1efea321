"""Dense Hermitian matrix kernel.

Everything downstream (states, detectors, exponent estimates) is built on
the spectral calculus in this module: eigendecomposition, the zero floor
that fixes supports, square roots of positive semidefinite matrices, the
Hermitian part ``hermitize``, and trace utilities.

Conventions fixed here and relied on elsewhere:

* Eigenvalues at or below ``eig_floor(A) = 1e-12 * max |eigenvalue|`` are
  treated as exact zeros: they are outside the support of ``A``.
* A fractional power ``A**s`` (the Chernoff overlap curve's) acts on the
  support only, so ``A**0`` is the support projection of ``A``, not the
  identity (``0**0 := 0``).
* PSD threshold tests go through ``psd_violation``, which accepts with a
  shifted Cholesky factorization and rejects only on ``eigvalsh``.
* Every check fails closed: a NaN or infinite entry is refused, never
  accepted by a comparison that is False on it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HermiticityViolation, PSDViolation

TOL_HERM = 1e-10
TOL_PSD = 1e-10
EIG_FLOOR_REL = 1e-12
# Entries per row block in check_hermitian's temporaries (1 MB complex).
_CHECK_BLOCK = 1 << 16


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise HermiticityViolation(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def check_hermitian(a) -> np.ndarray:
    """Return ``a`` as a complex matrix, raising unless it is square, finite
    and self-adjoint within ``TOL_HERM * (1 + max |entry|)``."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise HermiticityViolation(f"matrix is not square: shape {m.shape}")
    # Both maxima are taken over row blocks, so no temporary is full-size.
    # A max is exact and np.maximum keeps a NaN, so the result equals the
    # whole-matrix form bit for bit.
    largest = defect = 0.0
    step = max(1, _CHECK_BLOCK // max(1, m.shape[0]))
    for i in range(0, m.shape[0], step):
        rows = m[i : i + step]
        largest = np.maximum(largest, np.abs(rows).max())
        # Refused before the defect, where inf - inf would warn.
        if not math.isfinite(largest):
            raise HermiticityViolation("matrix has a non-finite entry")
        defect = np.maximum(
            defect, np.abs(rows - m[:, i : i + step].conj().T).max()
        )
    scale = 1.0 + largest
    if not defect <= TOL_HERM * scale:
        raise HermiticityViolation(
            f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e}"
        )
    return m


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and matching orthonormal
    eigenvectors as columns, so ``V @ diag(w) @ V^dag`` reconstructs the
    input.
    """
    return np.linalg.eigh(check_hermitian(h))


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
    dimension cap.  When the factorization breaks down (or overflows),
    ``eigvalsh`` decides with the exact predicate ``lambda_min < -tol``, so
    every rejection reports the eigenvalue a full decomposition gives.  A
    NaN or infinite entry raises ``HermiticityViolation``
    (``check_hermitian``).  The input is left unmodified.
    """
    m = check_hermitian(a)
    if not m.size:
        return None
    shifted = m.copy()
    shifted.reshape(-1)[:: m.shape[0] + 1] += tol / 2.0
    try:
        # An overflow can pass the factorization; it shows on the factor's
        # diagonal.
        certified = bool(np.isfinite(np.linalg.cholesky(shifted).diagonal()).all())
    except np.linalg.LinAlgError:
        certified = False
    if certified:
        return None
    del shifted
    lowest = float(np.linalg.eigvalsh(m)[0])
    return lowest if lowest < -tol else None


def sqrt_psd(a) -> np.ndarray:
    """PSD square root: returns B with ``B @ B = A``; rejects ``A`` on
    ``psd_violation``'s predicate, ``lambda_min < -TOL_PSD``."""
    w, v = eigh(a)
    if w.size and float(w[0]) < -TOL_PSD:
        raise PSDViolation(f"matrix has negative eigenvalue {w[0]:.3e}")
    return hermitize((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)


def hermitize(a: np.ndarray) -> np.ndarray:
    """The Hermitian part ``(A + A^dag) / 2``, as a new array."""
    out = a + a.conj().T
    out /= 2.0
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, entry for entry: each entry is the one
    product ``a_ij b_kl``, without ``np.kron``'s generic set-up, which costs
    more than the product on small operators."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """``tr[A B]`` for a Hermitian ``B``, in O(d^2) with no temporary.

    ``np.vdot(B, A) = sum_ij conj(B_ij) A_ij``, which is ``sum_ij A_ij B_ji``
    only because ``conj(B_ij) = B_ji``; a non-Hermitian ``B`` gives a wrong
    trace.
    """
    return complex(np.vdot(b, a))


def real_scalar(z) -> float:
    """Discard an imaginary residue after asserting it is negligible.

    All physically meaningful traces in this package are real; a large
    residue signals a kernel bug and raises rather than being silenced, as
    does a NaN or infinite value.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and abs(z.imag) <= 1e-9):
        raise ArithmeticError(f"trace {z} is not real and finite within 1.0e-09")
    return z.real

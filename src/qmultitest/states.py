"""Density matrices, ensembles, and seeded scenario generators."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DegenerateInput,
    DimensionCapExceeded,
    DimensionMismatch,
    HermiticityViolation,
    NormalizationViolation,
    PSDViolation,
    TraceViolation,
)
from .rng import SplitMix64

TOL_TRACE = 1e-10
DISTINCTNESS_TOL = 1e-8
DEFAULT_DIM_CAP = 4096


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    Validated on construction, non-finite entries first; read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if not np.isfinite(m).all():
            raise HermiticityViolation("state has a non-finite entry")
        lowest = linalg.psd_violation(m)  # also checks Hermiticity
        if lowest is not None:
            raise PSDViolation(f"state has negative eigenvalue {lowest:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TOL_TRACE:
            raise TraceViolation(f"state trace is {tr!r}, expected 1")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def distance_from(self, other: "DensityMatrix") -> float:
        """Frobenius distance between the two matrices."""
        return float(np.linalg.norm(self.matrix - other.matrix))


@dataclass(frozen=True)
class Ensemble:
    """Ordered collection of r >= 2 pairwise-distinct states, equal priors."""

    states: tuple[DensityMatrix, ...]
    labels: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) < 2:
            raise ValueError(f"ensemble needs at least 2 states, got {len(states)}")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"states have mixed dimensions {sorted(dims)}")
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                if states[i].distance_from(states[j]) <= DISTINCTNESS_TOL:
                    raise ValueError(
                        f"states {i} and {j} are numerically identical"
                    )
        if self.labels is not None and len(self.labels) != len(states):
            raise ValueError("label count does not match state count")
        object.__setattr__(self, "states", states)

    @property
    def r(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def _trusted_density(matrix: np.ndarray) -> DensityMatrix:
    # Skips validation; caller must guarantee the matrix is a valid state
    # (used for tensor powers, whose validity follows from the factors').
    obj = object.__new__(DensityMatrix)
    object.__setattr__(obj, "matrix", _frozen(matrix))
    return obj


def density_from_matrix(m) -> DensityMatrix:
    """Validate an explicit matrix as a quantum state."""
    return DensityMatrix(np.asarray(m, dtype=np.complex128))


def pure_state(v) -> DensityMatrix:
    """Rank-one projector onto a (nonzero) state vector."""
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq <= 0.0:
        raise DegenerateInput("state vector is zero")
    return DensityMatrix(np.outer(vec, vec.conj()) / norm_sq)


def classical_state(p) -> DensityMatrix:
    """Diagonal state from a probability vector."""
    probs = np.asarray(p, dtype=np.float64).reshape(-1)
    if np.any(probs < 0.0):
        raise NormalizationViolation(f"negative probability in {probs.tolist()}")
    total = float(np.sum(probs))
    if abs(total - 1.0) > 1e-12:
        raise NormalizationViolation(f"probabilities sum to {total!r}")
    return DensityMatrix(np.diag(probs.astype(np.complex128)))


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random state ``G G^dag / tr`` with ``G`` a d x rank complex
    Gaussian matrix drawn from the documented SplitMix64 stream."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
    g = SplitMix64(seed).gaussian_matrix(d, rank)
    a = g @ g.conj().T
    a = (a + a.conj().T) / 2.0
    return DensityMatrix(a / float(np.trace(a).real))


def mix(rho: DensityMatrix, sigma: DensityMatrix, epsilon: float) -> DensityMatrix:
    """Convex combination ``(1 - eps) rho + eps sigma``."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims {rho.dim} and {sigma.dim} differ")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return DensityMatrix((1.0 - epsilon) * rho.matrix + epsilon * sigma.matrix)


def check_power(rho: DensityMatrix, n: int, dim_cap: int) -> None:
    """Refuse a copy count below one or an ``n``-copy dimension past the cap."""
    if n < 1:
        raise ValueError(f"copy count must be positive, got {n}")
    if rho.dim ** n > dim_cap:
        raise DimensionCapExceeded(
            f"dim {rho.dim}^{n} = {rho.dim ** n} exceeds cap {dim_cap}"
        )


def tensor_power(
    rho: DensityMatrix, n: int, dim_cap: int = DEFAULT_DIM_CAP
) -> DensityMatrix:
    """n-fold tensor product of a state with itself."""
    check_power(rho, n, dim_cap)
    if n == 1:
        return rho
    out = rho.matrix
    for _ in range(n - 1):
        out = linalg.kron(out, rho.matrix)
    return _trusted_density(out)


def _binomial(a: complex, b: complex, e: int) -> np.ndarray:
    """Coefficients of ``(a + b z)^e`` in ascending powers of ``z``."""
    return np.array(
        [math.comb(e, p) * a ** (e - p) * b ** p for p in range(e + 1)],
        dtype=np.complex128,
    )


def _binomials(a: np.ndarray, k: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The coefficients of ``(a00 + a10 z)^e`` and of ``(a01 + a11 z)^e``
    for ``e = 0..k``: every factor ``_sym_power`` convolves, for every
    power up to ``k``."""
    return (
        [_binomial(a[0, 0], a[1, 0], e) for e in range(k + 1)],
        [_binomial(a[0, 1], a[1, 1], e) for e in range(k + 1)],
    )


def _sym_power(
    a: np.ndarray,
    k: int,
    binomials: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
) -> np.ndarray:
    """``A^(x)k`` restricted to the symmetric subspace, in the orthonormal
    Dicke basis (``j`` = number of second basis vectors).

    In the monomial basis ``x^(k-j) y^j`` column ``j`` holds the
    coefficients of ``(a00 x + a10 y)^(k-j) (a01 x + a11 y)^j``; the Dicke
    vector ``j`` is ``sqrt(C(k, j))`` times that monomial.  ``binomials``,
    ``_binomials(a, k')`` for some ``k' >= k``, lets several powers share
    their factors.
    """
    left, right = _binomials(a, k) if binomials is None else binomials
    out = np.empty((k + 1, k + 1), dtype=np.complex128)
    for j in range(k + 1):
        out[:, j] = np.convolve(left[k - j], right[j])
    # Python floats: past k = 66 the binomials overflow int64.
    norms = np.array([math.sqrt(float(math.comb(k, j))) for j in range(k + 1)])
    return out * (norms[None, :] / norms[:, None])


def spin_blocks(
    rho: DensityMatrix, n: int, dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[tuple[int, np.ndarray], ...]:
    """Schur–Weyl blocks of a qubit state's n-fold tensor power.

    ``rho^(x)n`` is unitarily equivalent to the direct sum over
    ``t = 0..floor(n/2)`` of ``m_t`` copies of
    ``det(rho)^t Sym^(n-2t)(rho)``, with ``m_t = C(n, t) - C(n, t-1)``
    (Harrow, quant-ph/0512255).  Returns the pairs ``(m_t, block)``, the
    blocks read-only; the change of basis is the same for every state, so
    two states' blocks can be compared block by block.  The dimension cap
    applies to the dense ``2^n`` it stands for.
    """
    if rho.dim != 2:
        raise DimensionMismatch(f"spin blocks need a qubit state, got dim {rho.dim}")
    check_power(rho, n, dim_cap)
    return _spin_blocks(rho.matrix.tobytes(), n)


# A binary test and its misses, or a split row's composition and errors,
# ask for the same states' blocks in turn; eight entries hold those of one
# table row, and a row on other copy counts evicts them.
@functools.lru_cache(maxsize=8)
def _spin_blocks(matrix: bytes, n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """``spin_blocks`` of the qubit state with these matrix bytes."""
    a = np.frombuffer(matrix, dtype=np.complex128).reshape(2, 2)
    det = float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real)
    binomials = _binomials(a, n)
    out = []
    for t in range(n // 2 + 1):
        block = det ** t * _sym_power(a, n - 2 * t, binomials)
        block.setflags(write=False)
        out.append((spin_multiplicity(n, t), block))
    return tuple(out)


def spin_multiplicity(n: int, t: int) -> int:
    """``m_t = C(n, t) - C(n, t - 1)``, the number of copies of block ``t``
    in ``n`` qubits (``spin_blocks``)."""
    return math.comb(n, t) - (math.comb(n, t - 1) if t else 0)

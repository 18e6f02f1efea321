"""Density matrices, ensembles, seeded state generators and tensor powers."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

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

    Validated on construction, non-finite entries first
    (``linalg.check_hermitian``); read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
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
                gap = np.linalg.norm(states[i].matrix - states[j].matrix)
                if gap <= DISTINCTNESS_TOL:
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


def pure_state(v) -> DensityMatrix:
    """Rank-one projector onto a (nonzero) state vector."""
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    if not np.isfinite(vec).all():
        raise HermiticityViolation("state has a non-finite entry")
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
    a = linalg.hermitize(g @ g.conj().T)
    return DensityMatrix(a / float(np.trace(a).real))


def mix(rho: DensityMatrix, sigma: DensityMatrix, epsilon: float) -> DensityMatrix:
    """Convex combination ``(1 - eps) rho + eps sigma``."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dims {rho.dim} and {sigma.dim} differ")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return DensityMatrix((1.0 - epsilon) * rho.matrix + epsilon * sigma.matrix)


def within_cap(d: int, n: int, dim_cap: int) -> bool:
    """Whether ``d^n <= dim_cap``, forming no power past ``d * dim_cap``;
    a cap that is not an integer raises ``TypeError``."""
    dim, dim_cap = 1, operator.index(dim_cap)
    for _ in range(n):
        if (dim := dim * d) > dim_cap:
            return False
    return True


def check_power(rho: DensityMatrix, n: int, dim_cap: int) -> None:
    """Refuse a copy count below one or past the cap; the message gives
    ``d^n``'s value only one copy past it (``within_cap``)."""
    if n < 1:
        raise ValueError(f"copy count must be positive, got {n}")
    if not within_cap(rho.dim, n, dim_cap):
        value = f" = {rho.dim ** n}" if within_cap(rho.dim, n - 1, dim_cap) else ""
        raise DimensionCapExceeded(f"dim {rho.dim}^{n}{value} exceeds cap {dim_cap}")


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
    # Unvalidated: a power of a valid state is one.
    power = object.__new__(DensityMatrix)
    object.__setattr__(power, "matrix", _frozen(out))
    return power

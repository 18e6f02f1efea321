"""Chernoff overlap curve, pairwise exponents, and the attainability
condition for an ensemble.

For two states the overlap curve is ``f(s) = tr[rho1^(1-s) rho2^s]`` on
``s in [0, 1]``, where powers act on the support only: eigenvalues at or
below :func:`qmultitest.linalg.eig_floor` are zeros and ``rho^0`` is the
support projection, not the identity, so non-faithful states get finite
endpoint values.  The
exponent is ``-log`` of the global minimum of ``f``; the minimum of the
exponent over all pairs of an ensemble is the bottleneck that governs how
fast any detector's error can decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, UndefinedQuantity
from .states import DensityMatrix, Ensemble

GOLDEN_TOL = 1e-8
F_MIN_ZERO = 1e-300
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The attainability rule compares the closest pair against one sixth of the
# distance between every other pair.
CONDITION_DIVISOR = 6.0


@dataclass(frozen=True)
class ChernoffResult:
    """Minimized overlap between two states.

    ``exponent`` is ``-log(f_min)`` in nats (``inf`` when the overlap
    vanishes), ``s_opt`` the minimizing parameter, and ``curve`` an
    optional sampling of ``(s, f(s))`` pairs.
    """

    exponent: float
    s_opt: float
    f_min: float
    curve: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class ConditionReport:
    """Attainability condition evaluated at the least favorable pair."""

    pair: tuple[int, int]
    pair_distance: float
    others_min: float
    overall_min: float
    holds: bool
    margin: float

    @property
    def threshold(self) -> float:
        """The right side of the condition, ``others_min / 6``."""
        return self.others_min / CONDITION_DIVISOR


class _PairCurve:
    """Overlap curve with the eigendecompositions done once.

    With spectral data ``rho1 = sum_i a_i |u_i><u_i|`` and
    ``rho2 = sum_j b_j |v_j><v_j|`` the curve is the positive combination
    ``f(s) = sum_ij |<u_i|v_j>|^2 a_i^(1-s) b_j^s`` restricted to
    eigenvalues above the zero floor.
    """

    def __init__(self, rho1: DensityMatrix, rho2: DensityMatrix):
        if rho1.dim != rho2.dim:
            raise DimensionMismatch(f"dims {rho1.dim} and {rho2.dim} differ")
        w1, v1 = linalg.eigh(rho1.matrix)
        w2, v2 = linalg.eigh(rho2.matrix)
        keep1 = w1 > linalg.eig_floor(w1)
        keep2 = w2 > linalg.eig_floor(w2)
        overlap = np.abs(v1[:, keep1].conj().T @ v2[:, keep2]) ** 2
        self._weights = overlap
        self._log_a = np.log(w1[keep1])[:, None]
        self._log_b = np.log(w2[keep2])[None, :]

    def value(self, s: float) -> float:
        if self._weights.size == 0:
            return 0.0
        terms = self._weights * np.exp(
            (1.0 - s) * self._log_a + s * self._log_b
        )
        return float(min(max(np.sum(terms), 0.0), 1.0))


def chernoff_curve(rho1: DensityMatrix, rho2: DensityMatrix, s: float) -> float:
    """Overlap ``tr[rho1^(1-s) rho2^s]``, clamped to [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    return _PairCurve(rho1, rho2).value(s)


def _golden_minimize(fn, tol: float = GOLDEN_TOL) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [0, 1]."""
    a, b = 0.0, 1.0
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = fn(c), fn(d)
    best_s, best_f = (c, fc) if fc <= fd else (d, fd)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = fn(d)
        if fc < best_f:
            best_s, best_f = c, fc
        if fd < best_f:
            best_s, best_f = d, fd
    return best_s, best_f


def chernoff_distance(
    rho1: DensityMatrix, rho2: DensityMatrix, samples: int = 0
) -> ChernoffResult:
    """Minimize the overlap curve over [0, 1] and return the exponent.

    Golden-section search (the curve is convex) plus explicit endpoint
    evaluation, since with the support convention the infimum can sit at
    ``s = 0`` or ``s = 1`` for non-faithful states.  An overlap at or
    below 1e-300 is reported as an infinite exponent.
    """
    curve = _PairCurve(rho1, rho2)
    s_opt, f_min = _golden_minimize(curve.value)
    for endpoint in (0.0, 1.0):
        f_end = curve.value(endpoint)
        if f_end < f_min:
            s_opt, f_min = endpoint, f_end
    sampled = None
    if samples > 0:
        grid = np.linspace(0.0, 1.0, samples)
        sampled = tuple((float(s), curve.value(float(s))) for s in grid)
    if f_min <= F_MIN_ZERO:
        return ChernoffResult(math.inf, s_opt, 0.0, sampled)
    return ChernoffResult(-math.log(f_min), s_opt, f_min, sampled)


def pairwise_distances(
    ensemble: Ensemble,
) -> dict[tuple[int, int], ChernoffResult]:
    """Chernoff result for every pair ``i < j`` of the ensemble."""
    out: dict[tuple[int, int], ChernoffResult] = {}
    for i in range(ensemble.r):
        for j in range(i + 1, ensemble.r):
            out[(i, j)] = chernoff_distance(ensemble.states[i], ensemble.states[j])
    return out


def condition_margin(pair_distance: float, others_min: float) -> tuple[bool, float]:
    """Non-strict test ``pair_distance <= others_min / 6`` with its margin."""
    threshold = others_min / CONDITION_DIVISOR
    holds = pair_distance <= threshold
    if math.isinf(pair_distance) and math.isinf(threshold):
        return True, math.nan
    return holds, threshold - pair_distance


class PairwiseTable:
    """Every pairwise Chernoff result of an ensemble, computed once.

    ``least`` is the closest pair, ties broken toward the lexicographically
    smallest; the ensemble's minimum exponent and the attainability
    condition are both read off this one table.
    """

    def __init__(self, ensemble: Ensemble):
        self.r = ensemble.r
        distances = self.distances = pairwise_distances(ensemble)
        self.least = min(sorted(distances), key=lambda p: distances[p].exponent)

    def others_min(self, pair: tuple[int, int]) -> float:
        """Minimum pairwise exponent over all pairs other than ``pair``."""
        if self.r < 3:
            raise UndefinedQuantity("no other pairs exist for r = 2")
        i, j = pair
        if not (0 <= i < j < self.r):
            raise ValueError(f"invalid pair ({i}, {j}) for r = {self.r}")
        return min(
            result.exponent
            for other, result in self.distances.items()
            if other != (i, j)
        )

    def condition(self) -> ConditionReport:
        """Evaluate the closeness condition at the least favorable pair.

        The condition holds when the closest pair of the ensemble is at
        most one sixth as far apart (in Chernoff distance) as every other
        pair; under it the minimum pairwise exponent is achievable by an
        explicit detector sequence.
        """
        if self.r < 3:
            raise UndefinedQuantity("condition needs r >= 3")
        overall_min = self.distances[self.least].exponent
        others_min = self.others_min(self.least)
        holds, margin = condition_margin(overall_min, others_min)
        return ConditionReport(
            pair=self.least,
            pair_distance=overall_min,
            others_min=others_min,
            overall_min=overall_min,
            holds=holds,
            margin=margin,
        )


def attainability_condition(ensemble: Ensemble) -> ConditionReport:
    """The attainability condition of an ensemble (see
    :meth:`PairwiseTable.condition`)."""
    return PairwiseTable(ensemble).condition()

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
from typing import Mapping, Sequence

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
    vanishes) and ``s_opt`` the minimizing parameter.
    """

    exponent: float
    s_opt: float
    f_min: float


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


def _support(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The logarithms of a state's eigenvalues above the zero floor, and
    their eigenvectors."""
    w, v = linalg.eigh(rho.matrix)
    keep = w > linalg.eig_floor(w)
    return np.log(w[keep]), v[:, keep]


class _PairCurve:
    """Overlap curve with each state's decomposition taken once, by
    ``support`` (``_support`` unless the caller keeps them).

    With spectral data ``rho1 = sum_i a_i |u_i><u_i|`` and
    ``rho2 = sum_j b_j |v_j><v_j|`` the curve is the positive combination
    ``f(s) = sum_ij |<u_i|v_j>|^2 a_i^(1-s) b_j^s`` restricted to
    eigenvalues above the zero floor.  Its terms are held as one row,
    ``weights``, ``log_a`` and ``log_b`` each of shape ``(1, k_a * k_b)``,
    so curves with as many terms stack into a batch (``_overlaps``).
    """

    def __init__(self, rho1: DensityMatrix, rho2: DensityMatrix, support=_support):
        if rho1.dim != rho2.dim:
            raise DimensionMismatch(f"dims {rho1.dim} and {rho2.dim} differ")
        (log_a, v1), (log_b, v2) = support(rho1), support(rho2)
        weights = np.abs(v1.conj().T @ v2) ** 2
        self.weights = weights.reshape(1, -1)
        self.log_a = np.repeat(log_a, len(log_b))[None]
        self.log_b = np.tile(log_b, len(log_a))[None]

    def value(self, s: float) -> float:
        return _overlaps(self.weights, self.log_a, self.log_b, [s])[0]


def _overlaps(
    weights: np.ndarray, log_a: np.ndarray, log_b: np.ndarray, points: list[float]
) -> list[float]:
    """Curve ``k`` of a stack (``_PairCurve`` rows) at ``points[k]``, each
    clamped to [0, 1]: one ``exp`` and one row sum for all of them.  A
    row's terms are summed in the same order whatever else is stacked."""
    s = np.array(points)[:, None]
    terms = weights * np.exp((1.0 - s) * log_a + s * log_b)
    return [min(max(f, 0.0), 1.0) for f in terms.sum(axis=1).tolist()]


def chernoff_curve(rho1: DensityMatrix, rho2: DensityMatrix, s: float) -> float:
    """Overlap ``tr[rho1^(1-s) rho2^s]``, clamped to [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    return _PairCurve(rho1, rho2).value(s)


def _golden_search(tol: float = GOLDEN_TOL):
    """Golden-section minimum of a unimodal function on [0, 1], then the
    two endpoints, as a generator: it yields each point to evaluate, is
    sent the function's value there, and returns the result.

    The infimum can sit at ``s = 0`` or ``s = 1`` for non-faithful states,
    hence the endpoints.  An overlap at or below ``F_MIN_ZERO`` is an
    infinite exponent.
    """
    a, b = 0.0, 1.0
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc = yield c
    fd = yield d
    best_s, best_f = (c, fc) if fc <= fd else (d, fd)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = yield d
        if fc < best_f:
            best_s, best_f = c, fc
        if fd < best_f:
            best_s, best_f = d, fd
    for endpoint in (0.0, 1.0):
        f_end = yield endpoint
        if f_end < best_f:
            best_s, best_f = endpoint, f_end
    if best_f <= F_MIN_ZERO:
        return ChernoffResult(math.inf, best_s, 0.0)
    return ChernoffResult(-math.log(best_f), best_s, best_f)


def _minimize(curves: Sequence[_PairCurve]) -> list[ChernoffResult]:
    """Minimize each curve over [0, 1] (``_golden_search``), in order.

    The searches of curves with as many terms advance in lockstep, so each
    step evaluates them all at once (``_overlaps``); each keeps its own
    bookkeeping and stops on its own.  Shorter rows are not padded, since
    that would change the order of their sums.
    """
    results: list[ChernoffResult | None] = [None] * len(curves)
    groups: dict[int, list[int]] = {}
    for k, curve in enumerate(curves):
        groups.setdefault(curve.weights.size, []).append(k)
    for members in groups.values():
        stacked = [
            np.concatenate([getattr(curves[k], name) for k in members])
            for name in ("weights", "log_a", "log_b")
        ]
        searches = [_golden_search() for _ in members]
        points = [next(search) for search in searches]
        while members:
            values = _overlaps(*stacked, points)
            live, points = [], []
            for row, (k, search, f) in enumerate(zip(members, searches, values)):
                try:
                    points.append(search.send(f))
                    live.append(row)
                except StopIteration as done:
                    results[k] = done.value
            if len(live) < len(members):
                stacked = [x[live] for x in stacked]
                members = [members[row] for row in live]
                searches = [searches[row] for row in live]
    return results


def chernoff_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> ChernoffResult:
    """Minimize the overlap curve over [0, 1] and return the exponent.

    Golden-section search (the curve is convex) plus explicit endpoint
    evaluation, since with the support convention the infimum can sit at
    ``s = 0`` or ``s = 1`` for non-faithful states.  An overlap at or
    below 1e-300 is reported as an infinite exponent.  The search is
    ``_minimize`` on a batch of one.
    """
    return _minimize([_PairCurve(rho1, rho2)])[0]


def condition_margin(pair_distance: float, others_min: float) -> tuple[bool, float]:
    """Non-strict test ``pair_distance <= others_min / 6`` with its margin."""
    threshold = others_min / CONDITION_DIVISOR
    holds = pair_distance <= threshold
    if math.isinf(pair_distance) and math.isinf(threshold):
        return True, math.nan
    return holds, threshold - pair_distance


class PairwiseTable:
    """Every pairwise Chernoff result of an ensemble, computed once.

    ``distances`` maps each pair ``i < j`` to its result, taken from
    ``known`` when it is there.  Each state the other pairs need is
    decomposed once, and those pairs are minimized together, in one batch
    (``_minimize``).  ``least`` is the closest pair, ties broken toward the
    lexicographically smallest; the ensemble's minimum exponent and the
    attainability condition are both read off this one table.
    """

    def __init__(
        self,
        ensemble: Ensemble,
        known: Mapping[tuple[int, int], ChernoffResult] | None = None,
    ):
        self.r = ensemble.r
        known = known or {}
        states = ensemble.states
        supports: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def support(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
            if id(rho) not in supports:
                supports[id(rho)] = _support(rho)
            return supports[id(rho)]

        pairs = [(i, j) for i in range(self.r) for j in range(i + 1, self.r)]
        todo = [pair for pair in pairs if pair not in known]
        curves = [_PairCurve(states[i], states[j], support) for i, j in todo]
        found = dict(zip(todo, _minimize(curves)))
        distances = self.distances = {
            pair: known[pair] if pair in known else found[pair] for pair in pairs
        }
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

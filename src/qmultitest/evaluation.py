"""Exact error probabilities, inequality checks, and exponent estimation.

All error probabilities are exact traces against tensor-power states (no
sampling).  The two inequality checkers mirror the bound that the split
construction is designed around: the summed error of the composed
detector is controlled by the binary overlap term plus the sub-detectors'
errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .chernoff import (
    CONDITION_DIVISOR,
    ChernoffResult,
    ConditionReport,
    PairwiseTable,
    chernoff_distance,
)
from .detectors import (
    CompositionTrace,
    Detector,
    SplitReport,
    SubStrategy,
    build_split_detector,
    compose_with_binary,
    holevo_helstrom,
    misses,
    power_builders,
)
from .errors import DimensionCapExceeded, DimensionMismatch
from .states import DEFAULT_DIM_CAP, DensityMatrix, Ensemble, tensor_power

BOUND_SLACK = 1e-9
DECAY_SLACK = 1e-12


@dataclass(frozen=True)
class ErrorReport:
    """Per-hypothesis and summed error of a detector on n copies."""

    n: int
    per_state_error: tuple[float, ...]
    err_sm: float
    err_avg: float
    succ_sm: float


@dataclass(frozen=True)
class LemmaReport:
    """One-copy error-decomposition inequality for a composed detector."""

    lhs: float
    rhs: float
    holds: bool
    term_wedge: float
    term_partials: float
    term_rest: float


@dataclass(frozen=True)
class OverallReport:
    """Multi-copy bound: summed error against binary overlap plus
    four times the sub-detector errors."""

    lhs: float
    rhs: float
    holds: bool
    wedge_trace: float
    split: SplitReport


@dataclass(frozen=True)
class BinaryDecayRow:
    n: int
    err_sm: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class ExponentRow:
    n: int
    err_sm: float
    rate: float | None


@dataclass(frozen=True)
class ExponentSeries:
    """Per-copy rates and a least-squares slope over the last rows.

    Rows with zero error are excluded from the fit; a series of exact
    zeros carries the ``exact_discrimination`` marker instead of a slope.
    """

    rows: tuple[ExponentRow, ...]
    fitted_slope: float | None
    k_fit: int
    exact_discrimination: bool


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    n1: int | None
    n2: int | None
    report: ErrorReport
    rate: float | None
    binary_bound: float
    lemma_rhs: float | None
    lemma_holds: bool | None
    overall_rhs: float | None
    overall_holds: bool | None


@dataclass(frozen=True)
class ExperimentTable:
    """Deterministic experiment record for one ensemble and copy range."""

    dim: int
    r: int
    labels: tuple[str, ...] | None
    w1: float
    sub: str
    pair_exponent: float
    pair_s_opt: float
    others_min: float | None
    reference_level: float
    least_favorable: tuple[float, tuple[int, int]]
    condition: ConditionReport | None
    pairwise: tuple[tuple[int, int, ChernoffResult], ...]
    rows: tuple[ExperimentRow, ...]
    series: ExponentSeries


def error_sum(
    ensemble: Ensemble,
    n: int,
    detector: Detector,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> ErrorReport:
    """Exact per-state errors ``tr[rho_i^(x)n (1 - E_i)]`` and their sum."""
    if detector.dim != ensemble.dim ** n:
        raise DimensionMismatch(
            f"detector dim {detector.dim} != {ensemble.dim}^{n}"
        )
    if len(detector.elements) != ensemble.r:
        raise DimensionMismatch(
            f"{len(detector.elements)} elements for {ensemble.r} hypotheses"
        )
    per_state = []
    powers = power_builders(ensemble.states, n, dim_cap)
    for miss in misses(powers, detector.elements):
        if not -1e-10 <= miss <= 1.0 + 1e-10:
            raise ArithmeticError(f"error probability {miss!r} out of range")
        per_state.append(miss)
    err_sm = float(sum(per_state))
    return ErrorReport(
        n=n,
        per_state_error=tuple(per_state),
        err_sm=err_sm,
        err_avg=err_sm / ensemble.r,
        succ_sm=ensemble.r - err_sm,
    )


def _lemma_rhs(trace: CompositionTrace) -> float:
    """Twice the binary overlap trace, plus twice the pair's weight on the
    partial elements, plus the tail hypotheses' own misses."""
    return trace.term_wedge + trace.term_partials + trace.term_rest


def _overall_rhs(trace: CompositionTrace, split: SplitReport) -> float:
    """Twice the binary overlap trace plus four times the sub-detectors'
    summed errors."""
    return 2.0 * trace.wedge_trace + 4.0 * (split.sub_error_1 + split.sub_error_2)


def lemma_bound_check(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    partials: Sequence[np.ndarray],
    rest: Sequence[DensityMatrix],
) -> LemmaReport:
    """Check the one-copy error decomposition on a composed detector.

    The left side is the composed detector's summed error over the full
    hypothesis list; the right side is twice the binary overlap trace,
    plus twice the pair's weight on the partial elements, plus the tail
    hypotheses' own misses.
    """
    states = [rho1, rho2, *rest]
    detector, trace = compose_with_binary(partials, states)
    lhs = float(sum(misses(states, detector.elements)))
    rhs = _lemma_rhs(trace)
    return LemmaReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + BOUND_SLACK,
        term_wedge=trace.term_wedge,
        term_partials=trace.term_partials,
        term_rest=trace.term_rest,
    )


def overall_bound_check(
    ensemble: Ensemble,
    n: int,
    w1: float = 0.5,
    sub: SubStrategy = "pgm",
    dim_cap: int = DEFAULT_DIM_CAP,
) -> OverallReport:
    """Check the multi-copy bound on a freshly built split detector."""
    detector, trace, split = build_split_detector(ensemble, n, w1, sub, dim_cap)
    report = error_sum(ensemble, n, detector, dim_cap)
    rhs = _overall_rhs(trace, split)
    return OverallReport(
        lhs=report.err_sm,
        rhs=rhs,
        holds=report.err_sm <= rhs + BOUND_SLACK,
        wedge_trace=trace.wedge_trace,
        split=split,
    )


def _optimal_binary_error(
    rho1: DensityMatrix, rho2: DensityMatrix, n: int, dim_cap: int
) -> float:
    """Summed error of the optimal binary test on n copies.

    Equals the overlap-operator trace; computed from the spectrum of the
    difference without forming the test explicitly.
    """
    delta = (
        tensor_power(rho1, n, dim_cap).matrix
        - tensor_power(rho2, n, dim_cap).matrix
    )
    w = np.linalg.eigvalsh(delta)
    return float(1.0 - np.sum(w[w > linalg.eig_floor(w)]))


def binary_chernoff_upper_check(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    n_max: int,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[BinaryDecayRow]:
    """Optimal binary errors for n = 1..n_max against ``exp(-n * exponent)``."""
    exponent = chernoff_distance(rho1, rho2).exponent
    rows = []
    for n in range(1, n_max + 1):
        err = _optimal_binary_error(rho1, rho2, n, dim_cap)
        bound = math.exp(-n * exponent)
        rows.append(BinaryDecayRow(n, err, bound, err <= bound + DECAY_SLACK))
    return rows


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    xa = np.asarray(xs, dtype=np.float64)
    ya = np.asarray(ys, dtype=np.float64)
    xc = xa - xa.mean()
    return float(np.sum(xc * (ya - ya.mean())) / np.sum(xc * xc))


def _rate_row(n: int, err: float) -> ExponentRow:
    """An ``(n, err_sm)`` row with its per-copy rate ``-log(err_sm) / n``;
    an exactly-zero row has none."""
    return ExponentRow(n, float(err), -math.log(err) / n if err > 0.0 else None)


def exponent_estimate(
    rows: Sequence[tuple[int, float]], k_fit: int
) -> ExponentSeries:
    """Rates and a fitted decay slope from an (n, err_sm) series.

    The slope is the least-squares fit of ``-log(err_sm)`` against ``n``
    over the last ``k_fit`` rows with positive error; a slope needs at
    least two of them.
    """
    if k_fit < 2 or k_fit > len(rows):
        raise ValueError(f"k_fit must lie in [2, {len(rows)}], got {k_fit}")
    ns = [int(n) for n, _ in rows]
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("rows must be ordered by strictly ascending n")
    out_rows = tuple(_rate_row(n, err) for n, err in rows)
    positive = [row for row in out_rows if row.rate is not None]
    if not positive:
        return ExponentSeries(out_rows, None, k_fit, True)
    if len(positive) < 2:
        raise ValueError("need at least 2 rows with positive error to fit")
    window = positive[-k_fit:]
    slope = _ls_slope(
        [row.n for row in window], [-math.log(row.err_sm) for row in window]
    )
    return ExponentSeries(out_rows, slope, k_fit, False)


def run_experiment(
    ensemble: Ensemble,
    n_values: Sequence[int],
    w1: float = 0.5,
    sub: SubStrategy = "pgm",
    k_fit: int = 4,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> ExperimentTable:
    """Build a detector per copy count and tabulate errors and bounds.

    Two hypotheses get the optimal binary test; three or more get the
    split construction, with both inequality checks recorded per row.
    The reference level is ``min(pair exponent, others_min / 6)`` for the
    ensemble's first pair, the decay rate the construction targets.
    """
    ns = [int(n) for n in n_values]
    if not ns or ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("n_values must be strictly ascending and nonempty")
    if k_fit < 2:
        raise ValueError(f"k_fit must be at least 2, got {k_fit}")
    for n in ns:
        if ensemble.dim ** n > dim_cap:
            raise DimensionCapExceeded(
                f"n = {n} needs dim {ensemble.dim ** n} > cap {dim_cap}"
            )
    table = PairwiseTable(ensemble)
    distances = table.distances
    pair_result = distances[(0, 1)]
    if ensemble.r >= 3:
        others_min = table.others_min((0, 1))
        reference = min(pair_result.exponent, others_min / CONDITION_DIVISOR)
        condition = table.condition()
    else:
        others_min = None
        reference = pair_result.exponent
        condition = None

    rows = []
    rate_rows = []
    for n in ns:
        bound = math.exp(-n * pair_result.exponent)
        if ensemble.r == 2:
            detector = holevo_helstrom(
                tensor_power(ensemble.states[0], n, dim_cap),
                tensor_power(ensemble.states[1], n, dim_cap),
            )
            report = error_sum(ensemble, n, detector, dim_cap)
            n1 = n2 = None
            lemma_rhs = lemma_holds = overall_rhs = overall_holds = None
        else:
            detector, trace, split = build_split_detector(
                ensemble, n, w1, sub, dim_cap
            )
            report = error_sum(ensemble, n, detector, dim_cap)
            n1, n2 = split.n1, split.n2
            lemma_rhs = _lemma_rhs(trace)
            lemma_holds = report.err_sm <= lemma_rhs + BOUND_SLACK
            overall_rhs = _overall_rhs(trace, split)
            overall_holds = report.err_sm <= overall_rhs + BOUND_SLACK
        rate_row = _rate_row(n, report.err_sm)
        rate_rows.append(rate_row)
        rows.append(
            ExperimentRow(
                n=n,
                n1=n1,
                n2=n2,
                report=report,
                rate=rate_row.rate,
                binary_bound=bound,
                lemma_rhs=lemma_rhs,
                lemma_holds=lemma_holds,
                overall_rhs=overall_rhs,
                overall_holds=overall_holds,
            )
        )

    # Too few positive rows, or too few rows, leave the slope undefined
    # instead of failing the table.
    positive = sum(1 for row in rate_rows if row.rate is not None)
    if positive >= 2 and k_fit <= len(rate_rows):
        series = exponent_estimate(
            [(row.n, row.err_sm) for row in rate_rows], k_fit
        )
    else:
        series = ExponentSeries(tuple(rate_rows), None, k_fit, positive == 0)

    return ExperimentTable(
        dim=ensemble.dim,
        r=ensemble.r,
        labels=ensemble.labels,
        w1=w1,
        sub=sub,
        pair_exponent=pair_result.exponent,
        pair_s_opt=pair_result.s_opt,
        others_min=others_min,
        reference_level=reference,
        least_favorable=(distances[table.least].exponent, table.least),
        condition=condition,
        pairwise=tuple(
            (i, j, distances[(i, j)]) for (i, j) in sorted(distances)
        ),
        rows=tuple(rows),
        series=series,
    )

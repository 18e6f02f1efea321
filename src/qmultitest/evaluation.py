"""Exact error probabilities, inequality checks, and a table's decay slope.

All error probabilities are exact traces against the ``n``-copy states (no
sampling), taken block by block on the detector's layout: qubit spin
blocks or copy-pair sectors, made from one-copy states, and the dense
states when the layout has one block.  The one-copy inequality checker
and the two bounds that every split row of ``run_experiment`` records
mirror the bound that the split construction is designed around: the
summed error of the composed detector is controlled by the binary overlap
term plus the sub-detectors' errors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chernoff import PairwiseTable
from .detectors import (
    CompositionTrace,
    Detector,
    SplitReport,
    SubStrategy,
    build_split_detector,
    compose_with_binary,
    holevo_helstrom,
    misses,
    split_sizes,
)
from .errors import DimensionCapExceeded, DimensionMismatch
from .states import DEFAULT_DIM_CAP, DensityMatrix, Ensemble, within_cap

BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class ErrorReport:
    """Per-hypothesis and summed error of a detector."""

    per_state_error: tuple[float, ...]
    err_sm: float


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
    """Deterministic experiment record for one ensemble and copy range.

    ``pairs`` is the pairwise table the rows were built on: the closest
    pair, its exponent and the condition are read from it, not copied.
    ``fitted_slope`` is the decay slope of the last ``k_fit`` rows with
    positive error (``_fitted_slope``)."""

    dim: int
    labels: tuple[str, ...] | None
    w1: float
    sub: str
    pairs: PairwiseTable
    reference_level: float
    rows: tuple[ExperimentRow, ...]
    k_fit: int
    fitted_slope: float | None


def error_sum(ensemble: Ensemble, detector: Detector) -> ErrorReport:
    """Exact per-state misses (``detectors.misses``, on the detector's
    blocks and its copies), each range-checked, and their sum: the score of
    every table row, the binary test's and the split detector's alike."""
    if len(detector.blocks) != ensemble.r:
        raise DimensionMismatch(
            f"{len(detector.blocks)} elements for {ensemble.r} hypotheses"
        )
    per_state = tuple(misses(ensemble.states, detector))
    for miss in per_state:
        if not -1e-10 <= miss <= 1.0 + 1e-10:
            raise ArithmeticError(f"error probability {miss!r} out of range")
    return ErrorReport(per_state, float(sum(per_state)))


def _lemma_rhs(trace: CompositionTrace, term_rest: float) -> float:
    """Twice the binary overlap trace, plus twice the pair's weight on the
    partial elements, plus the tail hypotheses' own misses ``term_rest``."""
    return 2.0 * trace.wedge_trace + trace.term_partials + term_rest


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
    hypotheses' own misses.  ``rest`` holds one state per partial element.
    """
    if len(rest) != len(partials):
        raise ValueError("one state per partial element is required")
    detector, trace = compose_with_binary(partials, rho1, rho2)
    per_state = list(misses([rho1, rho2, *rest], detector))
    lhs = float(sum(per_state))
    term_rest = sum(per_state[2:])
    rhs = _lemma_rhs(trace, term_rest)
    return LemmaReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + BOUND_SLACK,
        term_wedge=2.0 * trace.wedge_trace,
        term_partials=trace.term_partials,
        term_rest=term_rest,
    )


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    xa = np.asarray(xs, dtype=np.float64)
    ya = np.asarray(ys, dtype=np.float64)
    xc = xa - xa.mean()
    return float(np.sum(xc * (ya - ya.mean())) / np.sum(xc * xc))


def _fitted_slope(points: Sequence[tuple[int, float]], k_fit: int) -> float | None:
    """The least-squares slope of ``-log(err_sm)`` against ``n`` over the
    last ``k_fit`` ``(n, err_sm)`` points with positive error: none with
    fewer than two of those or ``k_fit`` points."""
    window = [(n, -math.log(err)) for n, err in points if err > 0.0][-k_fit:]
    if len(window) < 2 or k_fit > len(points):
        return None
    return _ls_slope(*zip(*window))


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
    Either way a row is scored by one ``error_sum`` call.  The split
    composes on the closest pair (``PairwiseTable.least``), put first, and
    ``per_state_error`` stays in scenario order.  The reference level is
    ``min(pair exponent, others_min / 6)`` for the closest pair, the decay
    rate the construction targets.
    """
    k_fit = operator.index(k_fit)
    if k_fit < 2:
        raise ValueError(f"k_fit must be at least 2, got {k_fit}")
    if not 0.0 < w1 < 1.0:
        raise ValueError(f"w1 must lie in (0, 1), got {w1}")
    # Walked once, uncopied: a long range stops at its first count past the cap.
    d, ns = ensemble.dim, []
    for n in map(operator.index, n_values):
        if not within_cap(d, n, dim_cap):
            dim = d ** n if within_cap(d, n - 1, dim_cap) else f"{d}^{n}"
            raise DimensionCapExceeded(f"n = {n} needs dim {dim} > cap {dim_cap}")
        ns.append(n)
    if not ns or ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("n_values must be strictly ascending and nonempty")
    if ensemble.r >= 3:
        for n in ns:
            split_sizes(n, w1)
    table = PairwiseTable(ensemble)
    exponent = table.distances[table.least].exponent
    order = [*table.least, *(k for k in range(ensemble.r) if k not in table.least)]
    composed = Ensemble(tuple(ensemble.states[k] for k in order))
    reference = exponent
    if ensemble.r >= 3:
        reference = min(exponent, table.condition().threshold)

    rows = []
    # The sub-detectors of all rows, each built once (build_split_detector).
    shared: dict = {}
    for n in ns:
        bound = math.exp(-n * exponent)
        if ensemble.r == 2:
            detector = holevo_helstrom(*composed.states, n, dim_cap)
        else:
            detector, trace, split = build_split_detector(
                composed, n, w1, sub, dim_cap, shared
            )
        # By name: the error_sum hook in perfbench/trace.py reads a positional
        # detector at args[2], one place past where it is, so a positional
        # call here breaks the traced benchmark run.
        report = error_sum(composed, detector=detector)
        n1 = n2 = lemma_rhs = lemma_holds = overall_rhs = overall_holds = None
        if ensemble.r >= 3:
            n1, n2 = split.n1, split.n2
            lemma_rhs = _lemma_rhs(trace, sum(report.per_state_error[2:]))
            lemma_holds = report.err_sm <= lemma_rhs + BOUND_SLACK
            overall_rhs = _overall_rhs(trace, split)
            overall_holds = report.err_sm <= overall_rhs + BOUND_SLACK
        # Back to scenario order; err_sm stays summed in composition order.
        per_state = [report.per_state_error[order.index(k)] for k in range(ensemble.r)]
        report = ErrorReport(tuple(per_state), report.err_sm)
        rows.append(
            ExperimentRow(
                n=n,
                n1=n1,
                n2=n2,
                report=report,
                rate=-math.log(report.err_sm) / n if report.err_sm > 0.0 else None,
                binary_bound=bound,
                lemma_rhs=lemma_rhs,
                lemma_holds=lemma_holds,
                overall_rhs=overall_rhs,
                overall_holds=overall_holds,
            )
        )

    return ExperimentTable(
        dim=ensemble.dim,
        labels=ensemble.labels,
        w1=w1,
        sub=sub,
        pairs=table,
        reference_level=reference,
        rows=tuple(rows),
        k_fit=k_fit,
        # Too few positive rows, or too few rows, leave the slope undefined
        # instead of failing the table.
        fitted_slope=_fitted_slope([(row.n, row.report.err_sm) for row in rows], k_fit),
    )

"""POVM constructions for binary and multiple state discrimination.

Contains the optimal binary projective test, the square-root (pretty good)
measurement, the composition that grafts a binary test onto a family of
partial detector elements, and the tensor-split construction that builds a
full multi-copy detector out of two sub-detectors plus a binary test on
the closest pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Literal, Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    PartialsEqualIdentity,
    PartialsExceedIdentity,
    PSDViolation,
    SplitTooSmall,
)
from .states import DEFAULT_DIM_CAP, DensityMatrix, Ensemble, tensor_power

TOL_ELEMENT_PSD = 1e-10
TOL_SUM_IDENTITY = 1e-9

SubStrategy = Literal["pgm", "recursive"]
# A hypothesis state, or a zero-argument callable that builds it on demand.
StateSource = DensityMatrix | Callable[[], DensityMatrix]


@dataclass(frozen=True)
class Detector:
    """POVM: positive elements, one per hypothesis, summing to identity.

    Elements are stored as read-only copies so detectors stay pure values.
    """

    dim: int
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for e in self.elements:
            arr = np.array(e, dtype=np.complex128, order="C")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "elements", tuple(frozen))


@dataclass(frozen=True)
class CompositionTrace:
    """Intermediate operators of the binary-plus-partials composition.

    ``residual`` is identity minus the partial sum, ``sqrt_defect`` is
    identity minus its square root, and ``reject_1``/``reject_2`` are the
    complements of the binary test's two projections.  These five ``D x D``
    operators are kept only when the caller asks for them
    (``keep_operators=True``, the default of :func:`compose_with_binary`);
    otherwise they are ``None`` and each is freed at its last use, which
    is what the split detector does.  The scalar fields (filled when the
    states are supplied) are the three terms of the error-decomposition
    bound: twice the binary overlap trace, twice the pair's leakage into
    the partials, and the partial elements' own misses.
    """

    residual: np.ndarray | None = None
    sqrt_defect: np.ndarray | None = None
    partial_sum: np.ndarray | None = None
    reject_1: np.ndarray | None = None
    reject_2: np.ndarray | None = None
    wedge_trace: float | None = None
    term_wedge: float | None = None
    term_partials: float | None = None
    term_rest: float | None = None


@dataclass(frozen=True)
class SplitReport:
    """Copy-budget split and the two sub-detectors' summed errors."""

    n1: int
    n2: int
    sub_error_1: float
    sub_error_2: float


def check_detector(det: Detector) -> list[str]:
    """Return the list of POVM-validity violations (empty when valid)."""
    problems: list[str] = []
    total = np.zeros((det.dim, det.dim), dtype=np.complex128)
    for k, element in enumerate(det.elements):
        if element.shape != (det.dim, det.dim):
            problems.append(f"element {k} has shape {element.shape}")
            continue
        try:
            lowest = linalg.psd_violation(element, TOL_ELEMENT_PSD)
        except Exception as exc:  # non-Hermitian element
            problems.append(f"element {k}: {exc}")
            continue
        if lowest is not None:
            problems.append(f"element {k} has negative eigenvalue {lowest:.3e}")
        total += element
    total.reshape(-1)[:: det.dim + 1] -= 1.0  # total - I, in place
    defect = float(np.max(np.abs(total)))
    if defect > TOL_SUM_IDENTITY:
        problems.append(f"elements sum to identity only within {defect:.3e}")
    return problems


def validate_detector(det: Detector) -> Detector:
    problems = check_detector(det)
    if problems:
        raise PSDViolation("invalid POVM: " + "; ".join(problems))
    return det


def _hermitize(a: np.ndarray) -> np.ndarray:
    out = a + a.conj().T
    out /= 2.0
    return out


def holevo_helstrom(rho1: DensityMatrix, rho2: DensityMatrix) -> Detector:
    """Optimal binary test: project onto where ``rho1 - rho2`` is positive.

    Eigenvalues of the difference within the zero floor are assigned to
    the second outcome, so the first element is the support of the
    strictly positive part.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} and {rho2.dim} differ")
    dim = rho1.dim
    delta = rho1.matrix - rho2.matrix
    # Callers pass n-copy temporaries: dropping them here frees them
    # before the decomposition.
    del rho1, rho2
    w, v = linalg.eigh(delta)
    del delta
    keep = (w > linalg.eig_floor(w)).astype(np.float64)
    projector = (v * keep) @ v.conj().T
    del w, v
    first = _hermitize(projector)
    del projector
    # Detector keeps frozen copies; drop ours before the checks run.
    detector = Detector(dim, (first, np.eye(dim) - first))
    del first
    return validate_detector(detector)


def wedge(rho1: DensityMatrix, rho2: DensityMatrix) -> np.ndarray:
    """Self-adjoint overlap operator of the optimal binary test.

    Returns ``rho1 E2 + rho2 E1`` for the test ``{E1, E2}``; its trace is
    the summed error of that test, which equals
    ``1 - trace_norm(rho1 - rho2) / 2``.  The matrix need not be positive.
    """
    test = holevo_helstrom(rho1, rho2)
    first, second = test.elements
    left = rho1.matrix @ second + rho2.matrix @ first
    right = second @ rho1.matrix + first @ rho2.matrix
    defect = float(np.max(np.abs(left - right)))
    if defect > 1e-9:
        raise ArithmeticError(f"overlap operator asymmetry {defect:.3e}")
    return left


def pgm(states: Sequence[DensityMatrix]) -> Detector:
    """Square-root ("pretty good") measurement for equiprobable states.

    With ``S`` the average state, each element is
    ``S^(-1/2) (rho_k / m) S^(-1/2)`` using the pseudo-inverse square root
    on the support of ``S``; the projector onto the kernel of ``S`` is
    split equally among the elements so they sum to the identity.
    """
    if len(states) < 2:
        raise ValueError(f"need at least 2 states, got {len(states)}")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimensionMismatch("states live on different dimensions")
    m = len(states)
    avg = sum(s.matrix for s in states) / m
    w, v = linalg.eigh(_hermitize(avg))
    keep = w > linalg.eig_floor(w)
    v_keep = v[:, keep]
    inv_sqrt = (v_keep * (1.0 / np.sqrt(w[keep]))) @ v_keep.conj().T
    kernel_proj = np.eye(dim) - v_keep @ v_keep.conj().T
    # Gram form (rho^(1/2) S^(-1/2))^dag (...) keeps elements positive to
    # machine precision even when S is badly conditioned.
    raw = []
    for s in states:
        b = linalg.sqrt_psd(s.matrix) @ inv_sqrt
        raw.append(_hermitize(b.conj().T @ b / m + kernel_proj / m))
    # Rounding through S^(-1/2) can leave the sum off identity by more
    # than the POVM tolerance when S is nearly singular.  The sum is
    # I + delta with tiny Hermitian delta, so conjugating every element
    # by sum^(-1/2) (identity in exact arithmetic, well conditioned here)
    # restores the resolution of identity while preserving positivity.
    total = _hermitize(sum(raw))
    tw, tv = np.linalg.eigh(total)
    correct = (tv * (1.0 / np.sqrt(tw))) @ tv.conj().T
    elements = tuple(_hermitize(correct @ g @ correct) for g in raw)
    return validate_detector(Detector(dim, tuple(elements)))


def _state_matrix(source: StateSource) -> np.ndarray:
    return (source() if callable(source) else source).matrix


def misses(
    states: Sequence[StateSource], elements: Sequence[np.ndarray]
) -> Iterator[float]:
    """Each hypothesis's miss ``1 - tr[rho_k E_k]``, in order.

    A state given as a builder is built only for its own term, so at most
    one of them is alive at a time.
    """
    for state, element in zip(states, elements):
        yield linalg.real_scalar(
            1.0 - linalg.trace_product(_state_matrix(state), element)
        )


def compose_with_binary(
    partials: Sequence[np.ndarray],
    binary: Detector,
    states: tuple[StateSource, StateSource, Sequence[StateSource]] | None = None,
    keep_operators: bool = True,
) -> tuple[Detector, CompositionTrace]:
    """Complete partial elements to a full POVM using a binary test.

    The partial elements (one per remaining hypothesis) must sum below the
    identity; the leftover weight ``residual = I - sum`` is handed to the
    binary test by conjugating its two projections with
    ``residual^(1/2)``.  When the hypotheses' states are supplied, the
    trace additionally records the three terms of the error bound; a
    state may be given as a zero-argument callable that builds it, so it
    exists only while its trace term is taken.  With
    ``keep_operators=False`` the trace's five operators stay ``None`` and
    each intermediate is freed at its last use.
    """
    if len(binary.elements) != 2:
        raise ValueError("binary detector must have exactly 2 elements")
    dim = binary.dim
    partial_list = [np.asarray(p, dtype=np.complex128) for p in partials]
    if not partial_list:
        raise ValueError("need at least one partial element")
    for k, p in enumerate(partial_list):
        if p.shape != (dim, dim):
            raise DimensionMismatch(f"partial {k} has shape {p.shape}")
        lowest = linalg.psd_violation(_hermitize(p), TOL_ELEMENT_PSD)
        if lowest is not None:
            raise PSDViolation(f"partial {k} has eigenvalue {lowest:.3e}")

    partial_sum = _hermitize(sum(partial_list))
    w, v = linalg.eigh(partial_sum)
    if float(w[-1]) > 1.0 + TOL_ELEMENT_PSD:
        raise PartialsExceedIdentity(
            f"partial elements reach eigenvalue {w[-1]!r} > 1"
        )
    residual_values = np.clip(1.0 - w, 0.0, None)
    if float(np.max(residual_values)) <= 1e-12:
        raise PartialsEqualIdentity("partial elements exhaust the identity")
    residual = _hermitize((v * residual_values) @ v.conj().T)
    sqrt_residual = _hermitize((v * np.sqrt(residual_values)) @ v.conj().T)
    del w, v

    # Past its last use an operator is dropped, or handed to the trace
    # when the caller asked for the operators.
    kept: dict[str, np.ndarray] = {}

    def _conjugate(element: np.ndarray) -> np.ndarray:
        # For a projection P, (P sqQ)^dag (P sqQ) = sqQ P sqQ; the Gram
        # form stays positive to machine precision, so prefer it.
        if float(np.max(np.abs(element @ element - element))) <= 1e-9:
            half = element @ sqrt_residual
            return _hermitize(half.conj().T @ half)
        return _hermitize(sqrt_residual @ element @ sqrt_residual)

    detector = Detector(
        dim,
        (
            _conjugate(binary.elements[0]),
            _conjugate(binary.elements[1]),
            *partial_list,
        ),
    )
    validate_detector(detector)
    # Read the binary parts back from the detector's frozen copies rather
    # than keeping a second pair alive.
    first, second = detector.elements[:2]
    pair_sum_defect = float(np.max(np.abs((first + second) - residual)))
    if keep_operators:
        kept["residual"] = residual
    del residual
    if pair_sum_defect > TOL_SUM_IDENTITY:
        raise ArithmeticError(
            f"binary elements miss the residual by {pair_sum_defect:.3e}"
        )
    sqrt_defect = np.eye(dim) - sqrt_residual
    del sqrt_residual
    # (1 - (1-x)^(1/2))^2 <= x for x in [0, 1], as operators.
    gap = linalg.psd_violation(
        _hermitize(partial_sum - sqrt_defect @ sqrt_defect), 1e-9
    )
    if keep_operators:
        kept["sqrt_defect"] = sqrt_defect
    del sqrt_defect
    if gap is not None:
        raise ArithmeticError(
            f"squared defect exceeds the partial sum by {-gap:.3e}"
        )

    wedge_trace = term_wedge = term_partials = term_rest = None
    if states is not None:
        first_state, second_state, rest = states
        if len(rest) != len(partial_list):
            raise ValueError("one state per partial element is required")
        # The states are built only now, and each complement I - E_k is
        # dropped as soon as its trace is taken.
        rho1 = _state_matrix(first_state)
        wedge_1 = linalg.trace_product(rho1, np.eye(dim) - binary.elements[0])
        rho2 = _state_matrix(second_state)
        wedge_2 = linalg.trace_product(rho2, np.eye(dim) - binary.elements[1])
        wedge_trace = linalg.real_scalar(wedge_1 + wedge_2)
        term_wedge = 2.0 * wedge_trace
        term_partials = 2.0 * linalg.real_scalar(
            linalg.trace_product(rho1 + rho2, partial_sum)
        )
        del rho1, rho2
        term_rest = sum(misses(rest, partial_list))
    if keep_operators:
        kept["partial_sum"] = partial_sum
        kept["reject_1"] = np.eye(dim) - binary.elements[0]
        kept["reject_2"] = np.eye(dim) - binary.elements[1]

    trace = CompositionTrace(
        **kept,
        wedge_trace=wedge_trace,
        term_wedge=term_wedge,
        term_partials=term_partials,
        term_rest=term_rest,
    )
    return detector, trace


def can_split(n: int, w1: float) -> bool:
    """Whether ``n`` copies split into two nonempty parts at weight ``w1``."""
    n1 = math.floor(n * w1)
    return n >= 2 and n1 >= 1 and n - n1 >= 1


def power_builders(
    states: Sequence[DensityMatrix], copies: int, dim_cap: int
) -> list[Callable[[], DensityMatrix]]:
    """Builders of each state's ``copies``-fold tensor power."""
    return [partial(tensor_power, s, copies, dim_cap) for s in states]


def _sub_detector(
    states: Sequence[DensityMatrix],
    copies: int,
    w1: float,
    strategy: SubStrategy,
    dim_cap: int,
) -> Detector:
    """Detector for ``{state^(x)copies}`` built per the chosen strategy.

    The recursive strategy bottoms out in the binary test for two states
    and falls back to the square-root measurement once the copy budget can
    no longer be split.
    """
    if strategy not in ("pgm", "recursive"):
        raise ValueError(f"unknown sub-detector strategy {strategy!r}")
    if strategy == "recursive" and len(states) == 2:
        return holevo_helstrom(
            tensor_power(states[0], copies, dim_cap),
            tensor_power(states[1], copies, dim_cap),
        )
    if strategy == "recursive" and can_split(copies, w1):
        detector, _, _ = build_split_detector(
            Ensemble(tuple(states)), copies, w1, "recursive", dim_cap
        )
        return detector
    return pgm([tensor_power(s, copies, dim_cap) for s in states])


def build_split_detector(
    ensemble: Ensemble,
    n: int,
    w1: float = 0.5,
    sub: SubStrategy = "pgm",
    dim_cap: int = DEFAULT_DIM_CAP,
) -> tuple[Detector, CompositionTrace, SplitReport]:
    """Multi-copy detector from a tensor split of the copy budget.

    The budget ``n`` is split as ``n1 = floor(n * w1)``, ``n2 = n - n1``.
    One sub-detector discriminates the first state against the tail states
    on ``n1`` copies, the other the second state against the tail on
    ``n2`` copies; each tail hypothesis gets the tensor product of its two
    sub-elements, and the leftover weight goes to the optimal binary test
    on the first pair's full ``n``-copy states.
    """
    if ensemble.r < 3:
        raise ValueError(f"split construction needs r >= 3, got {ensemble.r}")
    if n < 2:
        raise SplitTooSmall(f"need n >= 2 copies to split, got {n}")
    if not 0.0 < w1 < 1.0:
        raise ValueError(f"w1 must lie in (0, 1), got {w1}")
    if ensemble.dim ** n > dim_cap:
        raise DimensionCapExceeded(
            f"dim {ensemble.dim}^{n} = {ensemble.dim ** n} exceeds cap {dim_cap}"
        )
    n1 = math.floor(n * w1)
    n2 = n - n1
    if n1 < 1 or n2 < 1:
        raise SplitTooSmall(f"weight {w1} leaves an empty part: n1={n1}, n2={n2}")

    first, second = ensemble.states[0], ensemble.states[1]
    tail = list(ensemble.states[2:])
    side_1 = [first, *tail]
    side_2 = [second, *tail]
    sub_1 = _sub_detector(side_1, n1, w1, sub, dim_cap)
    sub_2 = _sub_detector(side_2, n2, w1, sub, dim_cap)
    sub_error_1 = sum(misses(power_builders(side_1, n1, dim_cap), sub_1.elements))
    sub_error_2 = sum(misses(power_builders(side_2, n2, dim_cap), sub_2.elements))

    partials = [
        np.kron(sub_1.elements[1 + k], sub_2.elements[1 + k])
        for k in range(len(tail))
    ]
    binary = holevo_helstrom(
        tensor_power(first, n, dim_cap), tensor_power(second, n, dim_cap)
    )

    # The n-copy states are rebuilt for the bound's trace terms instead of
    # being held across the Helstrom decomposition and the POVM checks.
    first_n, second_n, *tail_n = power_builders(ensemble.states, n, dim_cap)
    detector, trace = compose_with_binary(
        partials, binary, states=(first_n, second_n, tail_n), keep_operators=False
    )
    return detector, trace, SplitReport(n1, n2, sub_error_1, sub_error_2)


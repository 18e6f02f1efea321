"""POVM constructions for binary and multiple state discrimination.

Contains the optimal binary projective test, the square-root (pretty good)
measurement, the composition that grafts the closest pair's binary test
onto a family of partial detector elements, and the tensor-split
construction that builds a full multi-copy detector out of two
sub-detectors plus that composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from . import linalg, sectors
from .errors import (
    DimensionMismatch,
    PartialsEqualIdentity,
    PartialsExceedIdentity,
    PSDViolation,
    SplitTooSmall,
)
from .states import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    Ensemble,
    check_power,
    spin_blocks,
    tensor_power,
)

TOL_ELEMENT_PSD = 1e-10
TOL_SUM_IDENTITY = 1e-9

SubStrategy = Literal["pgm", "recursive"]


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
    """The pair's terms of the error-decomposition bound of a composed
    detector.

    ``wedge_trace`` is the summed error of the closest pair's binary test
    and ``term_partials`` twice the pair's weight on the partial elements.
    The bound is twice the overlap trace, plus ``term_partials``, plus the
    tail hypotheses' own misses, which are the composed detector's errors
    on the tail (``evaluation.error_sum``).
    """

    wedge_trace: float
    term_partials: float


@dataclass(frozen=True)
class SplitReport:
    """Copy-budget split and the two sub-detectors' summed errors.

    ``parts`` are the sizes of consecutive runs of copies, covering all
    ``n``, such that permuting copies inside a run leaves the detector
    unchanged: the two sub-detectors' parts, side by side.
    """

    n1: int
    n2: int
    sub_error_1: float
    sub_error_2: float
    parts: tuple[int, ...]


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


def _gram(factor: np.ndarray) -> np.ndarray:
    """``B B^dag``, positive semidefinite to machine precision."""
    return _hermitize(factor @ factor.conj().T)


def _helstrom_tests(spectra: list[linalg.HermitianEig]) -> list[Detector]:
    """One optimal binary test ``Detector((E_+, E_-))`` per block, from the
    eigendecompositions of the blocks of a difference; the zero floor is
    taken over all their eigenvalues together.  With ``V_+`` a block's
    eigenvectors above it and ``V_-`` the rest, both elements are Gram
    forms, ``E_+ = V_+ V_+^dag`` and ``E_- = V_- V_-^dag``.  Entries leave
    ``spectra`` as they are used, freeing their eigenvectors.  The caller
    validates the tests it keeps."""
    floor = linalg.eig_floor(np.concatenate([w for w, _ in spectra]))
    tests = []
    while spectra:
        w, v = spectra.pop(0)
        # Eigenvalues ascend, so the kept ones are the last columns.
        cut = int(np.count_nonzero(w <= floor))
        plus, minus = _gram(v[:, cut:]), _gram(v[:, :cut])
        del v
        # Detector keeps frozen copies; drop ours before anything else.
        tests.append(Detector(len(w), (plus, minus)))
        del plus, minus
    return tests


def holevo_helstrom(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    n: int = 1,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Detector:
    """Optimal binary test on ``n`` copies: ``E_+`` projects onto where
    ``rho1^(x)n - rho2^(x)n`` is positive, ``E_-`` onto the rest.

    Eigenvalues of the difference within the zero floor are assigned to
    the second outcome, so the first element is the support of the
    strictly positive part.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} and {rho2.dim} differ")
    # The n-copy states and their difference are temporaries, gone once
    # the decomposition returns.
    spectra = [
        linalg.eigh(
            tensor_power(rho1, n, dim_cap).matrix
            - tensor_power(rho2, n, dim_cap).matrix
        )
    ]
    return validate_detector(_helstrom_tests(spectra)[0])


def pgm(
    states: Sequence[DensityMatrix],
    n: int = 1,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Detector:
    """Square-root ("pretty good") measurement for the equiprobable
    ``n``-copy states ``rho_k^(x)n``.

    With ``S`` the average state, each element is
    ``S^(-1/2) (rho_k / m) S^(-1/2)`` using the pseudo-inverse square root
    on the support of ``S``; the projector onto the kernel of ``S`` is
    split equally among the elements so they sum to the identity.
    """
    if len(states) < 2:
        raise ValueError(f"need at least 2 states, got {len(states)}")
    if any(s.dim != states[0].dim for s in states):
        raise DimensionMismatch("states live on different dimensions")
    powers = [tensor_power(s, n, dim_cap) for s in states]
    dim = powers[0].dim
    m = len(powers)
    avg = sum(p.matrix for p in powers) / m
    w, v = linalg.eigh(_hermitize(avg))
    keep = w > linalg.eig_floor(w)
    v_keep = v[:, keep]
    inv_sqrt = (v_keep * (1.0 / np.sqrt(w[keep]))) @ v_keep.conj().T
    kernel_proj = np.eye(dim) - v_keep @ v_keep.conj().T
    # Gram form (rho^(1/2) S^(-1/2))^dag (...) keeps elements positive to
    # machine precision even when S is badly conditioned.
    raw = []
    for p in powers:
        b = linalg.sqrt_psd(p.matrix) @ inv_sqrt
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


def _miss(matrix: np.ndarray, elements: Sequence[np.ndarray], k: int) -> float:
    """``sum_{j != k} tr[A E_j]``, the weight of ``A`` on the other elements."""
    return linalg.real_scalar(
        sum(linalg.trace_product(matrix, e) for j, e in enumerate(elements) if j != k)
    )


def misses(
    states: Sequence[DensityMatrix],
    elements: Sequence[np.ndarray],
    n: int = 1,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Iterator[float]:
    """Each hypothesis's miss ``sum_{j != k} tr[rho_k^(x)n E_j]``, in order.

    The miss is the state's weight on the other elements, not
    ``1 - tr[rho_k^(x)n E_k]``, so a tiny miss keeps its relative
    precision.  Each n-copy state is built only for its own term, so at
    most one of them is alive at a time.  A state count that differs from
    the element count raises ``ValueError``.
    """
    for k, state in zip(range(len(elements)), states, strict=True):
        yield _miss(tensor_power(state, n, dim_cap).matrix, elements, k)


def helstrom_misses(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    n: int,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> tuple[float, float]:
    """The two misses of the optimal binary test on ``n`` copies.

    Qubit pairs are tested on their spin blocks ``X_t``, ``Y_t``
    (``states.spin_blocks``), whose differences are the blocks of the
    n-copy states' difference, so one ``_helstrom_tests`` call builds every
    block's test; the misses are ``sum_t m_t tr[X_t E_-,t]`` and
    ``sum_t m_t tr[Y_t E_+,t]``.  Other dimensions run the dense
    ``holevo_helstrom`` and ``misses``.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} and {rho2.dim} differ")
    if rho1.dim != 2:
        elements = holevo_helstrom(rho1, rho2, n, dim_cap).elements
        first, second = misses((rho1, rho2), elements, n, dim_cap)
        return first, second
    blocks = zip(spin_blocks(rho1, n, dim_cap), spin_blocks(rho2, n, dim_cap))
    pairs = [(m, x, y) for (m, x), (_, y) in blocks]
    tests = _helstrom_tests([linalg.eigh(x - y) for _, x, y in pairs])
    first = second = 0.0
    for (m, x, y), test in zip(pairs, tests):
        validate_detector(test)
        first += m * _miss(x, test.elements, 0)
        second += m * _miss(y, test.elements, 1)
    return first, second


def compose_with_binary(
    partials: Sequence[np.ndarray],
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    n: int = 1,
    dim_cap: int = DEFAULT_DIM_CAP,
    parts: Sequence[int] = (),
) -> tuple[Detector, CompositionTrace]:
    """Complete partial elements on ``n`` copies to a full POVM with the
    optimal binary test of the closest pair ``rho1^(x)n``, ``rho2^(x)n``.

    The partial elements must sum below the identity; the leftover
    weight ``Q = I - sum`` is handed to the Helstrom projections ``E_+``
    and ``E_-`` of the pair as the Gram forms ``(Q^(1/2) E)(Q^(1/2) E)^dag
    = Q^(1/2) E Q^(1/2)``, which stay positive to machine precision.
    Residual eigenvalues at or below the zero floor, taken over the whole
    spectrum, are zeros of ``Q``.  The trace records the pair's terms of
    the error bound.

    ``parts``, sizes of consecutive runs of copies adding up to ``n``,
    states that permuting copies inside a run leaves every partial
    unchanged.  The work then runs on the copy-pair sectors of
    ``sectors.layout``: each partial is replaced by its average over the
    pair swaps, and the Helstrom test, ``Q``, ``Q^(1/2)`` and the pair's
    elements are formed sector by sector.  Without parts there is one
    sector, the dense operators themselves.  Every check runs on the dense
    operators either way.
    """
    partial_list = [np.asarray(p, dtype=np.complex128) for p in partials]
    if not partial_list:
        raise ValueError("need at least one partial element")
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} and {rho2.dim} differ")
    check_power(rho1, n, dim_cap)
    parts = tuple(parts)
    if parts and sum(parts) != n:
        raise ValueError(f"parts {parts} do not add up to {n} copies")
    layout = sectors.layout(rho1.dim, parts)
    dim = rho1.dim ** n
    difference = [
        a - b
        for a, b in zip(
            sectors.power_blocks(rho1, n, layout, dim_cap),
            sectors.power_blocks(rho2, n, layout, dim_cap),
        )
    ]
    spectra = [linalg.eigh(block) for block in difference]
    del difference
    tests = _helstrom_tests(spectra)
    for k, p in enumerate(partial_list):
        if p.shape != (dim, dim):
            raise DimensionMismatch(f"partial {k} has shape {p.shape}")
        lowest = linalg.psd_violation(_hermitize(p), TOL_ELEMENT_PSD)
        if lowest is not None:
            raise PSDViolation(f"partial {k} has eigenvalue {lowest:.3e}")

    # The average over the pair swaps keeps a partial's sector blocks and
    # drops the rest, so Q is exactly block diagonal.
    partial_list = [
        sectors.from_blocks(sectors.to_blocks(p, layout), layout) for p in partial_list
    ]
    partial_sum = _hermitize(sum(partial_list))
    spectra = [linalg.eigh(block) for block in sectors.to_blocks(partial_sum, layout)]
    top = max(w[-1] for w, _ in spectra)
    if float(top) > 1.0 + TOL_ELEMENT_PSD:
        raise PartialsExceedIdentity(f"partial elements reach eigenvalue {top!r} > 1")
    residual_values = [np.clip(1.0 - w, 0.0, None) for w, _ in spectra]
    if max(float(np.max(q)) for q in residual_values) <= 1e-12:
        raise PartialsEqualIdentity("partial elements exhaust the identity")
    # A residual eigenvalue that is zero in exact arithmetic comes out as
    # rounding, whose square root would enter Q^(1/2) at ~1e-8.
    floor = linalg.eig_floor(np.concatenate(residual_values))
    residual, sqrt_residual = [], []
    for (_, v), q in zip(spectra, residual_values):
        q[q <= floor] = 0.0
        residual.append(_hermitize((v * q) @ v.conj().T))
        sqrt_residual.append(_hermitize((v * np.sqrt(q)) @ v.conj().T))
    del spectra, v

    pair_elements = [
        sectors.from_blocks(
            [_gram(root @ t.elements[i]) for root, t in zip(sqrt_residual, tests)],
            layout,
        )
        for i in (0, 1)
    ]
    detector = Detector(dim, (*pair_elements, *partial_list))
    del pair_elements, partial_list
    validate_detector(detector)
    # Read the binary parts back from the detector's frozen copies rather
    # than keeping a second pair alive.
    first, second = detector.elements[:2]
    pair_sum_defect = float(
        np.max(np.abs((first + second) - sectors.from_blocks(residual, layout)))
    )
    del residual
    if pair_sum_defect > TOL_SUM_IDENTITY:
        raise ArithmeticError(
            f"binary elements miss the residual by {pair_sum_defect:.3e}"
        )
    sqrt_defect = np.eye(dim) - sectors.from_blocks(sqrt_residual, layout)
    del sqrt_residual
    # (1 - (1-x)^(1/2))^2 <= x for x in [0, 1], as operators.
    gap = linalg.psd_violation(
        _hermitize(partial_sum - sqrt_defect @ sqrt_defect), 1e-9
    )
    del sqrt_defect
    if gap is not None:
        raise ArithmeticError(
            f"squared defect exceeds the partial sum by {-gap:.3e}"
        )

    # The binary test is checked as one dense test, assembled from the
    # sectors; one sector's test is that test already.
    if layout.chunks:
        tests = [
            Detector(
                dim,
                tuple(
                    sectors.from_blocks([t.elements[i] for t in tests], layout)
                    for i in (0, 1)
                ),
            )
        ]
    (binary,) = tests
    del tests
    validate_detector(binary)
    # The pair is built again only now.  The overlap trace is the pair's
    # misses under the binary test, ``tr[rho_1 E_-] + tr[rho_2 E_+]``.
    power_1 = tensor_power(rho1, n, dim_cap).matrix
    power_2 = tensor_power(rho2, n, dim_cap).matrix
    wedge_trace = _miss(power_1, binary.elements, 0) + _miss(power_2, binary.elements, 1)
    term_partials = 2.0 * linalg.real_scalar(
        linalg.trace_product(power_1 + power_2, partial_sum)
    )
    return detector, CompositionTrace(wedge_trace, term_partials)


def can_split(n: int, w1: float) -> bool:
    """Whether ``n`` copies split into two nonempty parts at weight ``w1``."""
    n1 = math.floor(n * w1)
    return n >= 2 and n1 >= 1 and n - n1 >= 1


def _sub_detector(
    states: Sequence[DensityMatrix],
    copies: int,
    w1: float,
    strategy: SubStrategy,
    dim_cap: int,
) -> tuple[Detector, tuple[int, ...]]:
    """Detector for ``{state^(x)copies}`` built per the chosen strategy,
    with the parts (``SplitReport.parts``) it is invariant under.

    The recursive strategy bottoms out in the binary test for two states
    and falls back to the square-root measurement once the copy budget can
    no longer be split; both are invariant under every permutation of the
    copies, one part.
    """
    if strategy not in ("pgm", "recursive"):
        raise ValueError(f"unknown sub-detector strategy {strategy!r}")
    if strategy == "recursive" and len(states) == 2:
        return holevo_helstrom(states[0], states[1], copies, dim_cap), (copies,)
    if strategy == "recursive" and can_split(copies, w1):
        detector, _, split = build_split_detector(
            Ensemble(tuple(states)), copies, w1, "recursive", dim_cap
        )
        return detector, split.parts
    return pgm(states, copies, dim_cap), (copies,)


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
    on the first pair's full ``n``-copy states.  Every partial is invariant
    under permuting copies inside each sub-detector's parts, so the
    composition runs on their copy-pair sectors.
    """
    if ensemble.r < 3:
        raise ValueError(f"split construction needs r >= 3, got {ensemble.r}")
    if n < 2:
        raise SplitTooSmall(f"need n >= 2 copies to split, got {n}")
    if not 0.0 < w1 < 1.0:
        raise ValueError(f"w1 must lie in (0, 1), got {w1}")
    check_power(ensemble.states[0], n, dim_cap)
    n1 = math.floor(n * w1)
    n2 = n - n1
    if n1 < 1 or n2 < 1:
        raise SplitTooSmall(f"weight {w1} leaves an empty part: n1={n1}, n2={n2}")

    first, second = ensemble.states[0], ensemble.states[1]
    tail = list(ensemble.states[2:])
    side_1 = [first, *tail]
    side_2 = [second, *tail]
    sub_1, parts_1 = _sub_detector(side_1, n1, w1, sub, dim_cap)
    sub_2, parts_2 = _sub_detector(side_2, n2, w1, sub, dim_cap)
    sub_error_1 = sum(misses(side_1, sub_1.elements, n1, dim_cap))
    sub_error_2 = sum(misses(side_2, sub_2.elements, n2, dim_cap))

    partials = [
        linalg.kron(sub_1.elements[1 + k], sub_2.elements[1 + k])
        for k in range(len(tail))
    ]
    parts = parts_1 + parts_2
    detector, trace = compose_with_binary(partials, first, second, n, dim_cap, parts)
    return detector, trace, SplitReport(n1, n2, sub_error_1, sub_error_2, parts)


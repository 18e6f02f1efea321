"""POVM constructions for binary and multiple state discrimination.

Contains the optimal binary projective test, the square-root (pretty good)
measurement, the composition that grafts the closest pair's binary test
onto a family of partial detector elements, and the tensor-split
construction that builds a full multi-copy detector out of two
sub-detectors plus that composition.  Every construction on ``n`` copies
lives on a block layout of its copies (``sectors.layout``): the binary
test and the PGM on one part of ``n``, a split on its sub-detectors'
layouts joined, where each partial is the Kronecker product of their
blocks.  On a layout of one-copy factors there is one block, the dense
operator.  ``misses`` reads the copies from the detector's layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

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
    _frozen,
    check_power,
)

TOL_ELEMENT_PSD = 1e-10
TOL_SUM_IDENTITY = 1e-9

SubStrategy = Literal["pgm", "recursive"]


@dataclass(frozen=True)
class Detector:
    """POVM: positive elements, one per hypothesis, summing to identity.

    ``blocks[k]`` holds element ``k`` as its blocks on ``layout``
    (``sectors``: qubit spin blocks, copy-pair sectors, or one block, the
    dense matrix, on one-copy factors).  Blocks are stored as read-only
    copies so detectors stay pure values.
    """

    blocks: tuple[tuple[np.ndarray, ...], ...]
    layout: sectors.Layout

    def __post_init__(self):
        frozen = tuple(tuple(_frozen(b) for b in e) for e in self.blocks)
        object.__setattr__(self, "blocks", frozen)

    @property
    def dim(self) -> int:
        """The dimension the elements act on, the layout's."""
        return self.layout.dim

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        """The dense elements, ``W B W^T`` (``sectors.from_blocks``), formed
        on each access."""
        return tuple(sectors.from_blocks(b, self.layout) for b in self.blocks)


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
    """Copy-budget split and the two sub-detectors' summed errors."""

    n1: int
    n2: int
    sub_error_1: float
    sub_error_2: float


def check_detector(det: Detector) -> list[str]:
    """Return the list of POVM-validity violations (empty when valid), found
    on the dense elements: each element's lowest eigenvalue, and the largest
    entry of ``sum_k E_k - I`` by absolute value.  The sum is not checked
    when an element is refused (non-Hermitian or non-finite)."""
    problems: list[str] = []
    refused = False
    total = np.zeros((det.dim, det.dim), dtype=np.complex128)
    for k, element in enumerate(det.elements):
        try:
            lowest = linalg.psd_violation(element, TOL_ELEMENT_PSD)
        except Exception as exc:  # non-Hermitian element
            problems.append(f"element {k}: {exc}")
            refused = True
            continue
        if lowest is not None:
            problems.append(f"element {k} has negative eigenvalue {lowest:.3e}")
        total += element
    if refused:
        return problems
    total.reshape(-1)[:: det.dim + 1] -= 1.0  # total - I, in place
    defect = float(np.max(np.abs(total)))
    if defect > TOL_SUM_IDENTITY:
        problems.append(f"elements sum to identity only within {defect:.3e}")
    return problems


def _lowest(blocks: Iterable[np.ndarray], tol: float) -> float | None:
    """``linalg.psd_violation`` of a block-diagonal operator from its
    blocks: the lowest eigenvalue over all of them when it is below
    ``-tol``, else ``None``."""
    found = [linalg.psd_violation(block, tol) for block in blocks]
    return min((x for x in found if x is not None), default=None)


def _frobenius(blocks: Iterable[np.ndarray], mults: Sequence[int]) -> float:
    """The Frobenius norm of a block-diagonal operator from its blocks and
    their multiplicities."""
    return math.sqrt(
        sum(m * np.vdot(b, b).real for m, b in zip(mults, blocks, strict=True))
    )


def _check_povm(
    elements: Sequence[Sequence[np.ndarray]], mults: Sequence[int]
) -> None:
    """Refuse elements, each given by its blocks with these multiplicities,
    that are not a POVM: an element's lowest eigenvalue below
    ``-TOL_ELEMENT_PSD``, or ``sum_k E_k - I`` beyond ``TOL_SUM_IDENTITY``
    in the Frobenius norm, which bounds its largest entry."""
    problems = []
    for k, blocks in enumerate(elements):
        lowest = _lowest(blocks, TOL_ELEMENT_PSD)
        if lowest is not None:
            problems.append(f"element {k} has negative eigenvalue {lowest:.3e}")
    defect = _frobenius((sum(e) - np.eye(len(e[0])) for e in zip(*elements)), mults)
    if defect > TOL_SUM_IDENTITY:
        problems.append(f"elements sum to identity only within {defect:.3e}")
    if problems:
        raise PSDViolation("invalid POVM: " + "; ".join(problems))


def _gram(factor: np.ndarray) -> np.ndarray:
    """``B B^dag``, positive semidefinite to machine precision."""
    return linalg.hermitize(factor @ factor.conj().T)


def _helstrom_tests(
    spectra: list[tuple[int, tuple[np.ndarray, np.ndarray]]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One optimal binary test ``(E_+, E_-)`` per block, from the
    multiplicities and eigendecompositions of the blocks of a difference;
    the zero floor is taken over all their eigenvalues together.  With
    ``V_+`` a block's eigenvectors above it and ``V_-`` the rest, both
    elements are Gram forms, ``E_+ = V_+ V_+^dag`` and ``E_- = V_- V_-^dag``.
    Entries leave ``spectra`` as they are used, freeing their eigenvectors.
    The tests are checked together, as blocks of one POVM
    (``_check_povm``)."""
    floor = linalg.eig_floor(np.concatenate([w for _, (w, _) in spectra]))
    mults, tests = [], []
    while spectra:
        m, (w, v) = spectra.pop(0)
        # Eigenvalues ascend, so the kept ones are the last columns.
        cut = int(np.count_nonzero(w <= floor))
        mults.append(m)
        tests.append((_gram(v[:, cut:]), _gram(v[:, :cut])))
        del v
    _check_povm(list(zip(*tests)), mults)
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
    strictly positive part.  The test is built block by block on the
    layout of one part of ``n`` copies, ``sectors.layout(d, (n,))`` (spin
    blocks for qubits, else copy-pair sectors), where the blocks'
    differences are the blocks of the n-copy states' difference.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} and {rho2.dim} differ")
    check_power(rho1, n, dim_cap)
    layout = sectors.layout(rho1.dim, (n,))
    # The n-copy states' blocks are gone before the decompositions start,
    # and their differences once they return.
    powers = [sectors.power_blocks(rho, layout) for rho in (rho1, rho2)]
    differences = [a - b for a, b in zip(*powers)]
    del powers
    spectra = [(m, linalg.eigh(x)) for m, x in zip(layout.mults, differences)]
    del differences
    plus, minus = zip(*_helstrom_tests(spectra))
    return Detector((plus, minus), layout)


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
    split equally among the elements so they sum to the identity.  The
    states, and so every element, are block diagonal on the layout of one
    part of ``n`` copies, ``sectors.layout(d, (n,))``, so each element is
    built block by block, with the zero floor of ``S`` taken over all
    blocks together.
    """
    if len(states) < 2:
        raise ValueError(f"need at least 2 states, got {len(states)}")
    if any(s.dim != states[0].dim for s in states):
        raise DimensionMismatch("states live on different dimensions")
    check_power(states[0], n, dim_cap)
    layout = sectors.layout(states[0].dim, (n,))
    powers = [sectors.power_blocks(s, layout) for s in states]
    m = len(powers)
    spectra = [linalg.eigh(linalg.hermitize(sum(p) / m)) for p in zip(*powers)]
    floor = linalg.eig_floor(np.concatenate([w for w, _ in spectra]))
    elements: list[list[np.ndarray]] = [[] for _ in powers]
    for (w, v), blocks in zip(spectra, zip(*powers)):
        keep = w > floor
        v_keep = v[:, keep]
        inv_sqrt = (v_keep * (1.0 / np.sqrt(w[keep]))) @ v_keep.conj().T
        kernel_proj = np.eye(len(w)) - v_keep @ v_keep.conj().T
        # Gram form (rho^(1/2) S^(-1/2))^dag (...) keeps elements positive
        # to machine precision even when S is badly conditioned.
        raw = []
        for p in blocks:
            b = linalg.sqrt_psd(p) @ inv_sqrt
            raw.append(linalg.hermitize(b.conj().T @ b / m + kernel_proj / m))
        # Rounding through S^(-1/2) can leave the sum off identity by more
        # than the POVM tolerance when S is nearly singular.  The sum is
        # I + delta with tiny Hermitian delta, so conjugating every element
        # by sum^(-1/2) (identity in exact arithmetic, well conditioned here)
        # restores the resolution of identity while preserving positivity.
        tw, tv = np.linalg.eigh(linalg.hermitize(sum(raw)))
        c = (tv * (1.0 / np.sqrt(tw))) @ tv.conj().T
        for element, g in zip(elements, raw):
            element.append(linalg.hermitize(c @ g @ c))
    del powers, spectra
    _check_povm(elements, layout.mults)
    return Detector(elements, layout)


def _miss(matrix: np.ndarray, elements: Sequence[np.ndarray], k: int) -> float:
    """``sum_{j != k} tr[A E_j]``, the weight of ``A`` on the other elements."""
    return linalg.real_scalar(
        sum(linalg.trace_product(matrix, e) for j, e in enumerate(elements) if j != k)
    )


def misses(states: Sequence[DensityMatrix], detector: Detector) -> Iterator[float]:
    """Each hypothesis's miss ``sum_{j != k} tr[rho_k^(x)n E_j]``, in order,
    for ``n`` the copies of the detector's layout.

    The miss is the state's weight on the other elements, not
    ``1 - tr[rho_k^(x)n E_k]``, so a tiny miss keeps its relative
    precision.  It is summed over the detector's blocks,
    ``sum_s m_s sum_{j != k} tr[P_s E_j,s]``, with ``P_s`` the blocks of the
    n-copy state (``sectors.power_blocks``) and ``m_s`` their
    multiplicities; on one-copy factors that is the dense state.  Each state's
    blocks are built only for its own term, so at most one state's are
    alive at a time.  A state count that differs from the element count
    raises ``ValueError``.
    """
    per_block = list(zip(*detector.blocks))
    mults = detector.layout.mults
    for k, state in zip(range(len(detector.blocks)), states, strict=True):
        powers = sectors.power_blocks(state, detector.layout)
        miss = sum(
            m * _miss(p, elements, k)
            for m, p, elements in zip(mults, powers, per_block)
        )
        del powers
        yield miss


def compose_with_binary(
    partials: Sequence[np.ndarray | sectors.Blocks],
    rho1: DensityMatrix,
    rho2: DensityMatrix,
) -> tuple[Detector, CompositionTrace]:
    """Complete partial elements on ``n`` copies to a full POVM with the
    optimal binary test of the closest pair ``rho1^(x)n``, ``rho2^(x)n``,
    for ``n`` the copies of the partials' layout.

    The partial elements must sum below the identity; the leftover
    weight ``Q = I - sum`` is handed to the Helstrom projections ``E_+``
    and ``E_-`` of the pair as the Gram forms ``(Q^(1/2) E)(Q^(1/2) E)^dag
    = Q^(1/2) E Q^(1/2)``, which stay positive to machine precision.
    Residual eigenvalues at or below the zero floor, taken over the whole
    spectrum, are zeros of ``Q``.  The detector is checked as one POVM
    (``_check_povm``), a negative partial ``k`` as its element ``k + 2``.
    The trace records the pair's terms of the error bound.

    A partial comes as its blocks on its layout (``sectors.Blocks``), or
    dense, of size ``d^n``: the one block of ``n`` one-copy factors.  The
    partials share one layout, of ``n`` copies of ``C^d``, where the
    detector is built; a partial that does not fit raises
    ``DimensionMismatch``.  Everything runs on the blocks: the Helstrom
    test, ``Q``, ``Q^(1/2)``, the pair's elements, the trace terms and
    every check, and the detector is returned as its blocks.  ``W`` is
    orthogonal, so an operator's lowest eigenvalue is the lowest over its
    blocks, and its trace and squared Frobenius norm are the sums over its
    blocks weighted by their multiplicities.
    """
    partials = list(partials)
    if not partials:
        raise ValueError("need at least one partial element")
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} and {rho2.dim} differ")
    for k, p in enumerate(partials):
        if not isinstance(p, sectors.Blocks):
            p = np.asarray(p, dtype=np.complex128)
            n = max(round(math.log(max(len(p), 1), rho1.dim)), 1)
            if rho1.dim ** n != len(p):
                raise DimensionMismatch(f"partial {k} does not fit the sectors")
            partials[k] = sectors.Blocks([p], sectors.layout(rho1.dim, (1,) * n))
    layout = partials[0].layout
    mults = layout.mults
    # The pair's blocks are kept for the trace terms; on one-copy factors
    # they are the dense n-copy states.
    powers = [sectors.power_blocks(rho, layout) for rho in (rho1, rho2)]
    tests = _helstrom_tests(
        [(m, linalg.eigh(a - b)) for m, a, b in zip(mults, *powers)]
    )

    shapes = [a.shape for a in powers[0]]
    partial_blocks = []
    for k, p in enumerate(partials):
        if p.layout != layout or [b.shape for b in p.blocks] != shapes:
            raise DimensionMismatch(f"partial {k} does not fit the sectors")
        partial_blocks.append(p.blocks)
    sum_blocks = [linalg.hermitize(sum(blocks)) for blocks in zip(*partial_blocks)]
    spectra = [linalg.eigh(block) for block in sum_blocks]
    top = float(max(w[-1] for w, _ in spectra))
    if top > 1.0 + TOL_ELEMENT_PSD:
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
        residual.append(linalg.hermitize((v * q) @ v.conj().T))
        sqrt_residual.append(linalg.hermitize((v * np.sqrt(q)) @ v.conj().T))
    del spectra, v

    pair_blocks = [
        [_gram(root @ t[i]) for root, t in zip(sqrt_residual, tests)]
        for i in (0, 1)
    ]
    elements = (*pair_blocks, *partial_blocks)
    _check_povm(elements, mults)
    pair_sum_defect = _frobenius(
        (plus + minus - q for plus, minus, q in zip(*pair_blocks, residual)), mults
    )
    del residual
    if pair_sum_defect > TOL_SUM_IDENTITY:
        raise ArithmeticError(
            f"binary elements miss the residual by {pair_sum_defect:.3e}"
        )
    # (1 - (1-x)^(1/2))^2 <= x for x in [0, 1], as operators.
    defects = (
        (s, np.eye(len(root)) - root) for s, root in zip(sum_blocks, sqrt_residual)
    )
    gap = _lowest((linalg.hermitize(s - e @ e) for s, e in defects), 1e-9)
    del sqrt_residual
    if gap is not None:
        raise ArithmeticError(
            f"squared defect exceeds the partial sum by {-gap:.3e}"
        )

    del pair_blocks, partial_blocks
    detector = Detector(elements, layout)
    del elements
    # The overlap trace is the pair's misses under the binary test,
    # ``tr[rho_1 E_-] + tr[rho_2 E_+]``.
    first = second = weight = 0.0
    for m, a, b, test, s in zip(mults, *powers, tests, sum_blocks):
        first += m * _miss(a, test, 0)
        second += m * _miss(b, test, 1)
        weight += m * linalg.trace_product(a + b, s)
    return detector, CompositionTrace(first + second, 2.0 * linalg.real_scalar(weight))


def split_sizes(n: int, w1: float) -> tuple[int, int]:
    """The copy counts ``n1 = floor(n * w1)`` and ``n2 = n - n1`` of a split
    of ``n`` copies at weight ``w1``; ``SplitTooSmall`` when a part would be
    empty."""
    if n < 2:
        raise SplitTooSmall(f"need n >= 2 copies to split, got {n}")
    n1 = math.floor(n * w1)
    if n1 < 1 or n1 >= n:
        raise SplitTooSmall(f"weight {w1} leaves an empty part: n1={n1}, n2={n - n1}")
    return n1, n - n1


def can_split(n: int, w1: float) -> bool:
    """Whether ``n`` copies split into two nonempty parts at weight ``w1``."""
    try:
        split_sizes(n, w1)
    except SplitTooSmall:
        return False
    return True


def _sub_detector(
    states: Sequence[DensityMatrix],
    copies: int,
    w1: float,
    strategy: SubStrategy,
    dim_cap: int,
    shared: dict,
) -> tuple[Detector, float]:
    """Detector for ``{state^(x)copies}`` built per the chosen strategy,
    and its summed misses.

    The recursive strategy bottoms out in the binary test for two states
    and falls back to the square-root measurement once the copy budget can
    no longer be split; both are invariant under every permutation of the
    copies, one part, and built on its layout.  ``shared`` keeps each
    result under the inputs it is built from, the states' matrices,
    ``copies``, ``strategy`` and ``w1``, and hands it out again.
    """
    if strategy not in ("pgm", "recursive"):
        raise ValueError(f"unknown sub-detector strategy {strategy!r}")
    key = (tuple(s.matrix.tobytes() for s in states), copies, strategy, w1)
    if key in shared:
        return shared[key]
    if strategy == "recursive" and len(states) == 2:
        detector = holevo_helstrom(states[0], states[1], copies, dim_cap)
    elif strategy == "recursive" and can_split(copies, w1):
        ensemble = Ensemble(tuple(states))
        detector, _, _ = build_split_detector(
            ensemble, copies, w1, "recursive", dim_cap, shared
        )
    else:
        detector = pgm(states, copies, dim_cap)
    shared[key] = detector, sum(misses(states, detector))
    return shared[key]


def build_split_detector(
    ensemble: Ensemble,
    n: int,
    w1: float = 0.5,
    sub: SubStrategy = "pgm",
    dim_cap: int = DEFAULT_DIM_CAP,
    shared: dict | None = None,
) -> tuple[Detector, CompositionTrace, SplitReport]:
    """Multi-copy detector from a tensor split of the copy budget.

    The budget ``n`` is split as ``n1 = floor(n * w1)``, ``n2 = n - n1``.
    One sub-detector discriminates the first state against the tail states
    on ``n1`` copies, the other the second state against the tail on
    ``n2`` copies; each tail hypothesis gets the tensor product of its two
    sub-elements, and the leftover weight goes to the optimal binary test
    on the full ``n``-copy states of states 0 and 1, the pair it is built
    on (``run_experiment`` puts the closest pair there).  Each sub-detector
    is built on ``sectors.layout`` of its own parts (spin blocks for
    qubits, copy-pair sectors otherwise), so every partial is the Kronecker
    product of the sub-elements' blocks (``sectors.kron``) on the two
    layouts joined, where the composition and the detector it returns stay.

    ``shared`` maps a sub-detector's inputs, the states' matrices, its
    copy count, ``sub`` and ``w1``, to the sub-detector and its summed
    misses; what is built here is added.  The rows of a table pass one
    map.  ``dim_cap`` stays out of the key: it is checked here at ``n``,
    before anything is built, and every sub-detector has fewer copies.
    Without ``shared`` the map serves this detector's nested splits only.
    """
    if ensemble.r < 3:
        raise ValueError(f"split construction needs r >= 3, got {ensemble.r}")
    if not 0.0 < w1 < 1.0:
        raise ValueError(f"w1 must lie in (0, 1), got {w1}")
    n1, n2 = split_sizes(n, w1)
    check_power(ensemble.states[0], n, dim_cap)

    shared = {} if shared is None else shared
    first, second, *tail = ensemble.states
    sub_1, sub_error_1 = _sub_detector([first, *tail], n1, w1, sub, dim_cap, shared)
    sub_2, sub_error_2 = _sub_detector([second, *tail], n2, w1, sub, dim_cap, shared)

    partials = [
        sectors.kron(
            sectors.Blocks(sub_1.blocks[1 + k], sub_1.layout),
            sectors.Blocks(sub_2.blocks[1 + k], sub_2.layout),
        )
        for k in range(len(tail))
    ]
    detector, trace = compose_with_binary(partials, first, second)
    return detector, trace, SplitReport(n1, n2, sub_error_1, sub_error_2)


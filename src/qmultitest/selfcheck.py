"""Randomized invariant suites behind the ``verify`` command.

Each suite draws seeded random scenarios and counts violations of an
exact identity or inequality; the identities double as end-to-end checks
of the spectral kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .chernoff import _PairCurve, chernoff_distance
from .detectors import (
    Detector,
    check_detector,
    compose_with_binary,
    helstrom_misses,
    holevo_helstrom,
    pgm,
)
from .evaluation import lemma_bound_check
from .rng import SplitMix64
from .states import random_density

GRID_STEP = 1e-4


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def random_feasible_partials(
    d: int, count: int, seed: int
) -> list[np.ndarray]:
    """Random positive elements whose sum stays strictly below identity."""
    stream = SplitMix64(seed)
    raw = []
    for _ in range(count):
        g = stream.gaussian_matrix(d, d)
        raw.append(g @ g.conj().T)
    total = sum(raw)
    top = float(np.linalg.eigvalsh(total)[-1])
    budget = 0.2 + 0.6 * stream.next_double()
    return [m * (budget / top) for m in raw]


def _note(result: SuiteResult, trial: int, message: str) -> None:
    result.failures += 1
    if len(result.messages) < 5:
        result.messages.append(f"trial {trial}: {message}")


def suite_povm_validity(trials: int, seed: int) -> SuiteResult:
    """Binary, square-root, and composed detectors all pass POVM checks."""
    result = SuiteResult("povm-validity", trials, 0)
    for t in range(trials):
        base = seed + 1000 * t
        rho1 = random_density(2, 2, base)
        rho2 = random_density(2, 2, base + 1)
        rho3 = random_density(2, 2, base + 2)
        try:
            binary = holevo_helstrom(rho1, rho2)
            sqm = pgm([rho1, rho2, rho3])
            composed, _ = compose_with_binary(
                random_feasible_partials(2, 1, base + 3), rho1, rho2
            )
        except Exception as exc:
            _note(result, t, f"construction failed: {exc}")
            continue
        for det, name in ((binary, "binary"), (sqm, "pgm"), (composed, "composed")):
            problems = check_detector(det)
            if problems:
                _note(result, t, f"{name}: {problems[0]}")
    return result


def suite_wedge_identity(trials: int, seed: int) -> SuiteResult:
    """The optimal binary test's summed error equals
    ``1 - trace_norm(rho1 - rho2) / 2``."""
    result = SuiteResult("wedge-identity", trials, 0)
    for t in range(trials):
        d = 2 if t % 2 == 0 else 3
        base = seed + 1000 * t
        rho1 = random_density(d, d, base)
        rho2 = random_density(d, d, base + 1)
        lhs = sum(helstrom_misses(rho1, rho2, 1))
        rhs = 1.0 - linalg.trace_norm(rho1.matrix - rho2.matrix) / 2.0
        if abs(lhs - rhs) > 1e-10:
            _note(result, t, f"|{lhs!r} - {rhs!r}| > 1e-10")
    return result


def suite_composition(trials: int, seed: int) -> SuiteResult:
    """Squared defect stays below the partial sum; binary parts fill the
    residual.  Both operators are rebuilt here from a raw decomposition,
    independently of the composition under test."""
    result = SuiteResult("composition", trials, 0)
    for t in range(trials):
        r = 3 if t % 2 == 0 else 4
        base = seed + 1000 * t
        rho1 = random_density(2, 2, base)
        rho2 = random_density(2, 2, base + 1)
        partials = random_feasible_partials(2, r - 2, base + 2)
        try:
            detector, _ = compose_with_binary(partials, rho1, rho2)
        except Exception as exc:
            _note(result, t, f"composition failed: {exc}")
            continue
        partial_sum = sum(partials)
        residual = np.eye(2) - partial_sum
        w, v = np.linalg.eigh(residual)
        sqrt_residual = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        sqrt_defect = np.eye(2) - (sqrt_residual + sqrt_residual.conj().T) / 2.0
        gap = linalg.psd_violation(
            partial_sum - sqrt_defect @ sqrt_defect, 1e-9
        )
        if gap is not None:
            _note(result, t, f"squared-defect gap {gap:.3e}")
        pair_sum = detector.elements[0] + detector.elements[1]
        if float(np.max(np.abs(pair_sum - residual))) > 1e-9:
            _note(result, t, "binary elements do not fill the residual")
    return result


def suite_lemma(trials: int, seed: int) -> SuiteResult:
    """Error-decomposition inequality on random composed detectors."""
    result = SuiteResult("lemma-bound", trials, 0)
    for t in range(trials):
        r = 3 if t % 2 == 0 else 4
        base = seed + 1000 * t
        states = [random_density(2, 2, base + k) for k in range(r)]
        partials = random_feasible_partials(2, r - 2, base + 100)
        report = lemma_bound_check(states[0], states[1], partials, states[2:])
        if not report.holds:
            _note(result, t, f"lhs {report.lhs!r} > rhs {report.rhs!r}")
    return result


def suite_chernoff_grid(trials: int, seed: int) -> SuiteResult:
    """Golden-section minimum matches a brute-force grid minimum."""
    result = SuiteResult("chernoff-grid", trials, 0)
    steps = int(round(1.0 / GRID_STEP))
    for t in range(trials):
        base = seed + 1000 * t
        rho1 = random_density(2, 2, base)
        rho2 = random_density(2, 2, base + 1)
        golden = chernoff_distance(rho1, rho2).exponent
        curve = _PairCurve(rho1, rho2)
        f_grid = min(curve.value(k / steps) for k in range(steps + 1))
        grid = -np.log(f_grid)
        if abs(golden - grid) > 1e-6:
            _note(result, t, f"golden {golden!r} vs grid {grid!r}")
    return result


def suite_self_test(seed: int) -> SuiteResult:
    """Corrupt a valid detector and confirm the checker flags it."""
    result = SuiteResult("self-test", 1, 0)
    states = [random_density(2, 2, seed + k) for k in range(3)]
    detector = pgm(states)
    first, *rest = detector.blocks
    corrupted = Detector(((first[0] * 1.1,), *rest), detector.layout)
    if not check_detector(corrupted):
        _note(result, 0, "corrupted detector passed the validity check")
    return result


def run_suites(
    trials: int, seed: int, self_test: bool = False
) -> tuple[bool, list[SuiteResult]]:
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    results = [
        suite_povm_validity(trials, seed),
        suite_wedge_identity(trials, seed),
        suite_composition(trials, seed),
        suite_lemma(trials, seed),
        suite_chernoff_grid(trials, seed),
    ]
    if self_test:
        results.append(suite_self_test(seed))
    return all(r.passed for r in results), results

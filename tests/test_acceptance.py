"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from qmultitest import (
    Ensemble,
    build_split_detector,
    chernoff_distance,
    check_detector,
    classical_state,
    cli,
    error_sum,
    holevo_helstrom,
    lemma_bound_check,
    random_density,
    run_experiment,
    tensor_power,
)
from qmultitest import linalg
from qmultitest.detectors import compose_with_binary
from qmultitest.scenario import load_scenario
from qmultitest.selfcheck import random_feasible_partials

from conftest import DECAY_SLACK, binary_table, residual_oracle


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}  {detail}")


def grid_exponent_oracle(rho1, rho2, step):
    """Brute-force grid minimum of the overlap curve, computed from raw
    eigendecompositions (independent of the package's search path)."""
    w1, v1 = np.linalg.eigh(rho1.matrix)
    w2, v2 = np.linalg.eigh(rho2.matrix)
    keep1, keep2 = w1 > 1e-14, w2 > 1e-14
    overlap = np.abs(v1[:, keep1].conj().T @ v2[:, keep2]) ** 2
    log_a = np.log(w1[keep1])
    log_b = np.log(w2[keep2])
    s = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    powers = np.exp(
        np.multiply.outer(1.0 - s, log_a)[:, :, None]
        + np.multiply.outer(s, log_b)[:, None, :]
    )
    f = np.einsum("sij,ij->s", powers, overlap)
    return -math.log(float(np.min(f)))


def classical_grid_exponent_oracle(p, q, step):
    """Scalar classical Chernoff exponent by dense grid search."""
    s = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    log_p, log_q = np.log(p), np.log(q)
    f = np.exp(
        np.multiply.outer(1.0 - s, log_p) + np.multiply.outer(s, log_q)
    ).sum(axis=1)
    return -math.log(float(np.min(f)))


def ns_distributions(rho1, rho2):
    """Nussbaum–Szkoła pair ``p_ij = λ_i |<x_i|y_j>|²``,
    ``q_ij = μ_j |<x_i|y_j>|²`` from raw eigendecompositions, flattened."""
    w1, v1 = np.linalg.eigh(rho1.matrix)
    w2, v2 = np.linalg.eigh(rho2.matrix)
    overlap = np.abs(v1.conj().T @ v2) ** 2
    return (w1[:, None] * overlap).ravel(), (w2[None, :] * overlap).ravel()


def ns_lower_oracle(rho1, rho2, n):
    """Finite-n converse ``L(n) = ½ Σ min(p⊗n, q⊗n)``: no test on n copies
    has a summed error below it (Nussbaum–Szkoła, Ann. Stat. 37, 1040)."""
    p, q = ns_distributions(rho1, rho2)
    pn, qn = np.ones(1), np.ones(1)
    for _ in range(n):
        pn, qn = np.kron(pn, p), np.kron(qn, q)
    return 0.5 * float(np.sum(np.minimum(pn, qn)))


def max_slope_edge(ns, lower, xi):
    """Largest least-squares slope of ``-log err`` over ``ns`` consistent
    with ``lower(n) <= err(n) <= exp(-n*xi)``: each weight
    ``c_n = (n - n̄)/Σ(n - n̄)²`` takes the end of its interval that
    raises the slope."""
    centred = np.asarray(ns, dtype=np.float64) - np.mean(ns)
    c = centred / np.sum(centred**2)
    return sum(
        cn * (-math.log(lower[n]) if cn > 0 else n * xi) for cn, n in zip(c, ns)
    )


def test_criterion_1_chernoff_grid_agreement():
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        rho1 = random_density(2, 2, 9000 + k)
        rho2 = random_density(2, 2, 9100 + k)
        golden = chernoff_distance(rho1, rho2).exponent
        oracle = grid_exponent_oracle(rho1, rho2, 1e-4)
        worst = max(worst, abs(golden - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, "chernoff-grid-agreement", ok, f"max dev {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_classical_reduction():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        quantum = chernoff_distance(classical_state(p), classical_state(q)).exponent
        scalar = classical_grid_exponent_oracle(p, q, 2e-6)
        worst = max(worst, abs(quantum - scalar))
    ok = worst <= 1e-8
    report(2, "classical-reduction", ok, f"max dev {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_3_binary_optimality_identity():
    worst_norm = 0.0
    for k in range(100):
        d = 2 if k % 2 == 0 else 3
        rho1 = random_density(d, d, 9200 + k)
        rho2 = random_density(d, d, 9300 + k)
        det = holevo_helstrom(rho1, rho2)
        err = error_sum(Ensemble((rho1, rho2)), det).err_sm
        via_norm = 1.0 - 0.5 * float(
            np.sum(np.abs(np.linalg.eigvalsh(rho1.matrix - rho2.matrix)))
        )
        worst_norm = max(worst_norm, abs(err - via_norm))
    ok = worst_norm <= 1e-10
    report(
        3, "binary-optimality-identity", ok, f"vs trace norm {worst_norm:.2e}"
    )
    assert worst_norm <= 1e-10


def test_criterion_4_binary_exponential_decay():
    # Sandwich L(n) <= err(n) <= exp(-n*xi): achievability above, the
    # Nussbaum–Szkoła converse below. A subexponential prefactor makes
    # finite-n slopes approach xi from above, so the upper slope edge is
    # the largest slope the sandwich allows, derived per pair.
    start = time.perf_counter()
    bound_ok = True
    converse_violations = []
    oracle_dev = 0.0
    worst_ratio = math.inf
    slope_violations = []
    lower_gap = upper_gap = math.inf
    for k in range(20):
        rho1 = random_density(2, 2, 9400 + k)
        rho2 = random_density(2, 2, 9500 + k)
        xi = chernoff_distance(rho1, rho2).exponent
        p, q = ns_distributions(rho1, rho2)
        oracle_dev = max(
            oracle_dev, abs(classical_grid_exponent_oracle(p, q, 1e-4) - xi)
        )
        table = binary_table(rho1, rho2, 10, dim_cap=1024)
        rows = table.rows
        errs = {r.n: r.report.err_sm for r in rows}
        bound_ok = bound_ok and all(
            errs[r.n] <= r.binary_bound + DECAY_SLACK for r in rows
        )
        lower = {r.n: ns_lower_oracle(rho1, rho2, r.n) for r in rows}
        for r in rows:
            worst_ratio = min(worst_ratio, errs[r.n] / lower[r.n])
            if not lower[r.n] <= errs[r.n]:
                converse_violations.append((k, r.n))
        if xi >= 0.05:
            # The slope the tool reports: the default k_fit = 4 fits n = 7..10.
            slope = table.fitted_slope
            edge = max_slope_edge([r.n for r in rows[-4:]], lower, xi)
            lower_gap = min(lower_gap, slope - 0.6 * xi)
            upper_gap = min(upper_gap, edge - slope)
            if not 0.6 * xi <= slope <= edge:
                slope_violations.append((k, slope - xi, edge - xi))
    elapsed = time.perf_counter() - start
    converse_ok = not converse_violations
    slope_ok = not slope_violations
    oracle_ok = oracle_dev <= 1e-6
    ok = bound_ok and converse_ok and slope_ok and oracle_ok and elapsed < 300.0
    detail = (
        f"bound clause {'ok' if bound_ok else 'VIOLATED'}; "
        f"converse {'ok' if converse_ok else 'VIOLATED'} "
        f"(min err/L {worst_ratio:.3f}, oracle exponent dev {oracle_dev:.2e}); "
        f"slope clause {'ok' if slope_ok else 'VIOLATED'} "
        f"(min slope - 0.6*xi {lower_gap:+.3f}, min edge - slope "
        f"{upper_gap:+.3f}); {elapsed:.1f}s"
    )
    report(4, "binary-exponential-decay", ok, detail)
    assert bound_ok
    assert oracle_ok, detail
    assert converse_ok, (converse_violations, detail)
    assert elapsed < 300.0
    assert slope_ok, (slope_violations, detail)


def test_criterion_5_lemma_inequality():
    worst_slack = -math.inf
    worst_gap = math.inf
    for k in range(100):
        r = 3 if k % 2 == 0 else 4
        states = [random_density(2, 2, 9600 + 10 * k + i) for i in range(r)]
        partials = random_feasible_partials(2, r - 2, 9700 + k)
        rep = lemma_bound_check(states[0], states[1], partials, states[2:])
        worst_slack = max(worst_slack, rep.lhs - rep.rhs)
        # The squared defect, rebuilt from a raw decomposition of the
        # residual independently of the composition.
        _, sqrt_residual = residual_oracle(partials)
        sqrt_defect = np.eye(2) - sqrt_residual
        gap = float(
            np.linalg.eigvalsh(sum(partials) - sqrt_defect @ sqrt_defect)[0]
        )
        worst_gap = min(worst_gap, gap)
    ok = worst_slack <= 1e-9 and worst_gap >= -1e-9
    report(
        5,
        "lemma-inequality",
        ok,
        f"max lhs-rhs {worst_slack:.2e}, min defect gap {worst_gap:.2e}",
    )
    assert worst_slack <= 1e-9
    assert worst_gap >= -1e-9


def test_criterion_6_overall_bound():
    worst = -math.inf
    for k in range(20):
        ens = Ensemble(
            tuple(random_density(2, 2, 9800 + 10 * k + i) for i in range(3))
        )
        for n in (2, 4, 6):
            for sub in ("pgm", "recursive"):
                row = run_experiment(ens, [n], 0.5, sub).rows[0]
                worst = max(worst, row.report.err_sm - row.overall_rhs)
                assert row.overall_holds, (k, n, sub)
    ok = worst <= 1e-9
    report(6, "overall-bound", ok, f"max lhs-rhs {worst:.2e}")
    assert worst <= 1e-9


@pytest.fixture(scope="module")
def condition_scenario(tmp_path_factory):
    """Generated condition-satisfying scenario plus one full run."""
    root = tmp_path_factory.mktemp("acceptance")
    scenario_path = root / "scenario.json"
    assert cli.main(
        ["gen", "condition-satisfying", "--r", "3", "--d", "2",
         "--seed", "7", "--out", str(scenario_path)]
    ) == 0
    csv_path = root / "run1.csv"
    assert cli.main(
        ["run", str(scenario_path), "--n-min", "2", "--n-max", "10",
         "--out", str(csv_path)]
    ) == 0
    return root, scenario_path, csv_path


def test_criterion_7_condition_scenario_decay(condition_scenario):
    _, scenario_path, csv_path = condition_scenario
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    evens = [(int(r["n"]), float(r["err_sm"])) for r in rows if int(r["n"]) % 2 == 0]
    assert [n for n, _ in evens] == [2, 4, 6, 8, 10]
    decreasing = all(b < a for (_, a), (_, b) in zip(evens, evens[1:]))
    final_rate = float(rows[-1]["rate"])
    reference = float(rows[-1]["reference_level"])
    ok = decreasing and final_rate > 0.0 and reference > 0.0
    report(
        7,
        "condition-scenario-decay",
        ok,
        f"err_sm over even n {[round(e, 4) for _, e in evens]}, "
        f"final rate {final_rate:.4f}, reference level {reference:.5f}",
    )
    assert decreasing
    assert final_rate > 0.0


def test_criterion_8_povm_validity_everywhere(condition_scenario):
    # constructions from criteria 3 and 5-7 re-checked explicitly
    # (every factory also validates on construction)
    checked = 0

    def must_be_valid(det):
        nonlocal checked
        problems = check_detector(det)
        assert problems == [], problems
        for element in det.elements:
            assert float(np.linalg.eigvalsh(element)[0]) >= -1e-10
        total = sum(det.elements)
        assert float(np.max(np.abs(total - np.eye(det.dim)))) <= 1e-9
        checked += 1

    for k in range(10):
        d = 2 if k % 2 == 0 else 3
        must_be_valid(
            holevo_helstrom(
                random_density(d, d, 9200 + k), random_density(d, d, 9300 + k)
            )
        )
    for k in range(10):
        rho1, rho2 = (random_density(2, 2, 9600 + 10 * k + i) for i in range(2))
        partials = random_feasible_partials(2, 1, 9700 + k)
        det, _ = compose_with_binary(partials, rho1, rho2)
        must_be_valid(det)
    ens = Ensemble(tuple(random_density(2, 2, 9800 + i) for i in range(3)))
    for n in (2, 4, 6):
        for sub in ("pgm", "recursive"):
            det, _, _ = build_split_detector(ens, n, 0.5, sub)
            must_be_valid(det)
    _, scenario_path, _ = condition_scenario
    condition_ens = load_scenario(scenario_path)
    for n in (2, 4, 6, 8):
        det, _, _ = build_split_detector(condition_ens, n, 0.5, "pgm")
        must_be_valid(det)
    report(8, "povm-validity-everywhere", True, f"{checked} detectors checked")


def test_criterion_9_determinism(condition_scenario):
    _, scenario_path, csv_path = condition_scenario
    repeat = csv_path.parent / "run2.csv"
    assert cli.main(
        ["run", str(scenario_path), "--n-min", "2", "--n-max", "10",
         "--out", str(repeat)]
    ) == 0
    identical = repeat.read_bytes() == csv_path.read_bytes()
    report(9, "determinism", identical, f"{len(csv_path.read_bytes())} bytes")
    assert identical

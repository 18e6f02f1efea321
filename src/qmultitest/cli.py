"""Batch command-line front end.

Commands::

    qmultitest chernoff <scenario>            pairwise exponents + condition
    qmultitest run <scenario> [options]       per-copy error table (CSV/JSON)
    qmultitest verify [--trials --seed]       randomized invariant suites
    qmultitest gen <kind> [--r --d --seed]    scenario generation

Exit codes: 0 success, 1 validation failure or an output file that cannot
be written, 2 parse error or a scenario file that cannot be read, 3 resource
cap (dimension cap exceeded or out of memory).  Reports are byte-stable for a
fixed scenario and configuration: floats are written as their shortest
round-trip decimals, non-finite values as ``null`` (JSON reports are strict
RFC 8259), and files land atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .chernoff import PairwiseTable, chernoff_distance
from .errors import (
    CalibrationFailed,
    DimensionCapExceeded,
    ScenarioParseError,
)
from .evaluation import ExperimentRow, ExperimentTable, run_experiment
from .scenario import (
    load_scenario,
    scenario_document,
    scenario_from_dict,
    write_text_atomic,
)
from .states import DEFAULT_DIM_CAP, Ensemble, mix, random_density

CSV_HEADER = (
    "n,n1,n2,err_sm,err_avg,rate,binary_bound,"
    "reference_level,overall_rhs,lemma_holds,overall_holds"
)

EQUIDISTANT_P = 0.15
CALIBRATION_STEPS = 60
MARGIN_FRACTION = 0.1


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _finite_or_null(value):
    """Replace every non-finite float in a report with ``None``.

    An infinite exponent (orthogonal supports) or a NaN margin has no RFC
    8259 encoding, so reports carry ``null`` there; ``f_min: 0`` already
    marks the orthogonal pairs.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _report_json(doc: dict) -> str:
    return (
        json.dumps(
            _finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False
        )
        + "\n"
    )


def _emit(text: str, out_path) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        write_text_atomic(out_path, text)
    except OSError as exc:
        raise OSError(f"cannot write {out_path} ({exc.strerror})") from None


def _chernoff_report(ensemble: Ensemble) -> dict:
    table = PairwiseTable(ensemble)
    pairs = [
        {
            "i": i,
            "j": j,
            "exponent": result.exponent,
            "s_opt": result.s_opt,
            "f_min": result.f_min,
        }
        for (i, j), result in sorted(table.distances.items())
    ]
    report = {
        "dim": ensemble.dim,
        "r": ensemble.r,
        "labels": list(ensemble.labels) if ensemble.labels else None,
        "pairs": pairs,
        "least_favorable": {
            "pair": list(table.least),
            "exponent": table.distances[table.least].exponent,
        },
        "condition": None,
    }
    if ensemble.r >= 3:
        cond = table.condition()
        report["condition"] = {**asdict(cond), "threshold": cond.threshold}
    return report


def cmd_chernoff(args) -> int:
    ensemble = load_scenario(args.scenario)
    _emit(_report_json(_chernoff_report(ensemble)), args.out)
    return 0


def _row_document(row: ExperimentRow, r: int) -> dict:
    """A table row as both formats write it: the JSON row, and the CSV
    columns by name.  The mean error and the summed success are derived
    from the summed error over ``r`` hypotheses."""
    report = row.report
    return {
        "n": row.n,
        "n1": row.n1,
        "n2": row.n2,
        "per_state_error": list(report.per_state_error),
        "err_sm": report.err_sm,
        "err_avg": report.err_sm / r,
        "succ_sm": r - report.err_sm,
        "rate": row.rate,
        "binary_bound": row.binary_bound,
        "lemma_rhs": row.lemma_rhs,
        "lemma_holds": row.lemma_holds,
        "overall_rhs": row.overall_rhs,
        "overall_holds": row.overall_holds,
    }


def table_to_csv(table: ExperimentTable) -> str:
    lines = [CSV_HEADER]
    for row in table.rows:
        doc = _row_document(row, table.r)
        doc["reference_level"] = table.reference_level
        lines.append(",".join(_csv_cell(doc[name]) for name in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def table_to_json(table: ExperimentTable) -> str:
    pairs = table.pairs
    least = pairs.distances[pairs.least]
    cond = pairs.condition() if table.r >= 3 else None
    doc = {
        "dim": table.dim,
        "r": table.r,
        "labels": list(table.labels) if table.labels else None,
        "w1": table.w1,
        "sub": table.sub,
        "pair_exponent": least.exponent,
        "pair_s_opt": least.s_opt,
        "others_min": cond.others_min if cond else None,
        "reference_level": table.reference_level,
        "least_favorable": {"exponent": least.exponent, "pair": list(pairs.least)},
        "condition": (
            {**asdict(cond), "overall_min": cond.pair_distance} if cond else None
        ),
        "pairwise": [
            {"i": i, "j": j, "exponent": res.exponent, "s_opt": res.s_opt}
            for (i, j), res in sorted(pairs.distances.items())
        ],
        "rows": [_row_document(row, table.r) for row in table.rows],
        "fitted_slope": table.series.fitted_slope,
        "k_fit": table.series.k_fit,
        "exact_discrimination": table.series.exact_discrimination,
        # diagnostic only: the pairwise bottleneck constrains the limsup,
        # so finite-copy slopes may legitimately sit above it
        "slope_exceeds_bottleneck": (
            table.series.fitted_slope is not None
            and table.series.fitted_slope > least.exponent + 1e-6
        ),
    }
    return _report_json(doc)


def cmd_run(args) -> int:
    ensemble = load_scenario(args.scenario)
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError(
            f"need 1 <= n-min <= n-max, got {args.n_min}..{args.n_max}"
        )
    table = run_experiment(
        ensemble,
        range(args.n_min, args.n_max + 1),
        w1=args.w1,
        sub=args.sub,
        k_fit=args.k_fit,
        dim_cap=args.dim_cap,
    )
    if args.format == "csv":
        _emit(table_to_csv(table), args.out)
    else:
        _emit(table_to_json(table), args.out)
    return 0


def cmd_verify(args) -> int:
    # Only this command runs the self-checks; importing them here keeps the
    # other commands' start-up shorter.
    from .selfcheck import run_suites

    passed, results = run_suites(args.trials, args.seed, self_test=args.self_test)
    for suite in results:
        status = "ok" if suite.passed else "FAIL"
        print(
            f"suite {suite.name}: trials={suite.trials} "
            f"failures={suite.failures} [{status}]"
        )
        for message in suite.messages:
            print(f"  {message}")
    print("all suites passed" if passed else "FAILURES detected")
    return 0 if passed else 1


def _gen_condition_satisfying(r: int, d: int, seed: int) -> tuple[dict, Ensemble]:
    """Calibrate a mixing weight so the first pair sits well inside the
    attainability condition, then emit the reproducing specs, with the
    calibrated ensemble.

    The first pair is a full-rank state mixed with a perturbation; tail
    states are drawn pure so the remaining pairs stay far apart and the
    calibrated pair keeps a usable exponent.
    """
    base = random_density(d, d, seed)
    other = random_density(d, d, seed + 1)
    tail = [random_density(d, 1, seed + k) for k in range(2, r)]
    # Only the pairs with the mixed state (index 1) change between halvings.
    fixed: dict = {}
    for step in range(1, CALIBRATION_STEPS + 1):
        epsilon = 0.5 ** step
        second = mix(base, other, epsilon)
        try:
            ensemble = Ensemble((base, second, *tail))
        except ValueError:  # two states have become numerically identical
            break
        table = PairwiseTable(ensemble, fixed)
        fixed = {p: res for p, res in table.distances.items() if 1 not in p}
        report = table.condition()
        if report.holds and report.margin >= MARGIN_FRACTION * report.threshold:
            specs = [
                {"type": "random", "rank": d, "seed": seed},
                {
                    "type": "mix",
                    "base": 0,
                    "other": {"type": "random", "rank": d, "seed": seed + 1},
                    "epsilon": epsilon,
                },
            ] + [
                {"type": "random", "rank": 1, "seed": seed + k}
                for k in range(2, r)
            ]
            return scenario_document(d, specs), ensemble
    raise CalibrationFailed(
        f"no feasible mixing weight within {CALIBRATION_STEPS} halvings"
    )


def _gen_equidistant_classical(r: int, d: int) -> dict:
    """Symmetric diagonal triple whose two smallest pairwise exponents
    coincide (all three equal is impossible for ordered diagonal states)."""
    if r != 3:
        raise ValueError(f"equidistant-classical supports r = 3 only, got {r}")
    pad = [0.0] * (d - 2)
    specs = [
        {"type": "classical", "probabilities": [EQUIDISTANT_P, 1 - EQUIDISTANT_P] + pad},
        {"type": "classical", "probabilities": [0.5, 0.5] + pad},
        {"type": "classical", "probabilities": [1 - EQUIDISTANT_P, EQUIDISTANT_P] + pad},
    ]
    return scenario_document(d, specs)


def _gen_random(r: int, d: int, seed: int) -> dict:
    specs = [{"type": "random", "rank": d, "seed": seed + k} for k in range(r)]
    return scenario_document(d, specs)


def cmd_gen(args) -> int:
    if args.r < 2:
        raise ValueError(f"need r >= 2, got {args.r}")
    if args.d < 2:
        raise ValueError(f"need d >= 2, got {args.d}")
    if args.kind == "condition-satisfying":
        if args.r < 3:
            raise ValueError("condition-satisfying needs r >= 3")
        doc, calibrated = _gen_condition_satisfying(args.r, args.d, args.seed)
        # The file must rebuild the calibrated states bit for bit; then the
        # condition that held for them holds for it.
        rebuilt = scenario_from_dict(doc).states
        if any(
            a.matrix.tobytes() != b.matrix.tobytes()
            for a, b in zip(rebuilt, calibrated.states, strict=True)
        ):
            raise CalibrationFailed("generated scenario does not rebuild its states")
    elif args.kind == "equidistant-classical":
        doc = _gen_equidistant_classical(args.r, args.d)
        ensemble = scenario_from_dict(doc)
        first = chernoff_distance(ensemble.states[0], ensemble.states[1]).exponent
        second = chernoff_distance(ensemble.states[1], ensemble.states[2]).exponent
        if abs(first - second) > 1e-9:
            raise CalibrationFailed(
                f"adjacent exponents differ: {first!r} vs {second!r}"
            )
    elif args.kind == "random":
        doc = _gen_random(args.r, args.d, args.seed)
        scenario_from_dict(doc)
    else:
        raise ValueError(f"unknown scenario kind {args.kind!r}")
    _emit(_report_json(doc), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmultitest",
        description="Multiple quantum hypothesis testing at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chern = sub.add_parser(
        "chernoff", help="pairwise Chernoff exponents and condition report"
    )
    p_chern.add_argument("scenario", help="scenario JSON file")
    p_chern.add_argument("--out", default=None, help="write report to this path")

    p_run = sub.add_parser("run", help="per-copy error table for a scenario")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--n-min", type=int, default=2)
    p_run.add_argument("--n-max", type=int, default=8)
    p_run.add_argument("--w1", type=float, default=0.5)
    p_run.add_argument("--sub", choices=["pgm", "recursive"], default="pgm")
    p_run.add_argument("--k-fit", type=int, default=4)
    p_run.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")
    p_run.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run randomized invariant suites")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument(
        "--self-test",
        action="store_true",
        help="also corrupt a detector and confirm the checker flags it",
    )

    p_gen = sub.add_parser("gen", help="generate a scenario file")
    p_gen.add_argument(
        "kind",
        choices=["condition-satisfying", "equidistant-classical", "random"],
    )
    p_gen.add_argument("--r", type=int, default=3)
    p_gen.add_argument("--d", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", default=None)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # The parser is built on the first call and kept for the later ones.
    # Commands are looked up by name on each call, so one rebound on this
    # module runs.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    commands = {
        "chernoff": cmd_chernoff,
        "run": cmd_run,
        "verify": cmd_verify,
        "gen": cmd_gen,
    }
    try:
        return commands[args.command](args)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, CalibrationFailed, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

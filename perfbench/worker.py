"""One workload in one fresh process: set up, time passes, check outputs.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH`` and the
BLAS thread count pinned in the environment.  Every operation is one
``qmultitest.cli.main`` invocation that writes its output to a file; the
outputs are read, hashed and checked after each pass, outside the timed
region.

    worker.py setup   --workload W --seed N --work DIR
    worker.py measure --workload W --seed N --work DIR --seconds S --trace 0|1 [--spans FILE]

``setup`` imports the program and generates the workload's first scenario,
then exits; ``run.py`` times it from process start to exit.  ``measure``
prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from time import perf_counter

CSV_HEADER = (
    "n,n1,n2,err_sm,err_avg,rate,binary_bound,"
    "reference_level,overall_rhs,lemma_holds,overall_holds"
)
N_MIN = 2
# Scenarios per sweep-small pass; a multiple of 44 gives every shape every
# (sub, format) combination equally often.
SWEEP_SCENARIOS = 176
SWEEP_SEED_STRIDE = 1000
# sweep-small shapes (kind, r, d, n_max): r = 2..5, d = 2..4, d**n_max <= 64.
# An odd count, so that the alternating --sub and output format meet every
# shape.
SWEEP_SHAPES = (
    ("random", 2, 2, 6),
    ("condition-satisfying", 3, 2, 6),
    ("equidistant-classical", 3, 3, 3),
    ("random", 3, 4, 3),
    ("condition-satisfying", 4, 3, 3),
    ("random", 4, 2, 6),
    ("equidistant-classical", 3, 2, 6),
    ("condition-satisfying", 5, 2, 6),
    ("random", 5, 3, 3),
    ("condition-satisfying", 3, 4, 3),
    ("random", 2, 3, 3),
)


@dataclass(frozen=True)
class Scenario:
    label: str
    kind: str
    r: int
    d: int
    seed: int
    n_max: int
    sub: str
    fmt: str


def scenarios(workload: str, seed: int) -> list[Scenario]:
    if workload == "split-qubit":
        return [Scenario("split", "condition-satisfying", 3, 2, seed, 10, "pgm", "csv")]
    if workload == "binary-qubit":
        return [Scenario("binary", "random", 2, 2, seed, 11, "pgm", "json")]
    if workload == "sweep-small":
        base = SWEEP_SEED_STRIDE * seed
        out = []
        for i in range(SWEEP_SCENARIOS):
            kind, r, d, n_max = SWEEP_SHAPES[i % len(SWEEP_SHAPES)]
            sub = ("pgm", "recursive")[i % 2]
            fmt = ("csv", "json")[(i // 2) % 2]
            out.append(Scenario(f"s{i:03d}", kind, r, d, base + i, n_max, sub, fmt))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def gen_argv(sc: Scenario, work: Path) -> list[str]:
    return [
        "gen", sc.kind, "--r", str(sc.r), "--d", str(sc.d), "--seed", str(sc.seed),
        "--out", str(work / f"{sc.label}.scenario.json"),
    ]


def chernoff_argv(sc: Scenario, work: Path) -> list[str]:
    return [
        "chernoff", str(work / f"{sc.label}.scenario.json"),
        "--out", str(work / f"{sc.label}.chernoff.json"),
    ]


def run_argv(sc: Scenario, work: Path) -> list[str]:
    return [
        "run", str(work / f"{sc.label}.scenario.json"),
        "--n-min", str(N_MIN), "--n-max", str(sc.n_max), "--sub", sc.sub,
        "--format", sc.fmt, "--out", str(work / f"{sc.label}.run.{sc.fmt}"),
    ]


def check_gen(text: str, sc: Scenario) -> None:
    doc = json.loads(text)
    if doc.get("version") != 1 or doc.get("dim") != sc.d or len(doc["states"]) != sc.r:
        raise AssertionError("scenario document does not match the request")


def check_chernoff(text: str, sc: Scenario) -> None:
    doc = json.loads(text)
    if len(doc["pairs"]) != sc.r * (sc.r - 1) // 2:
        raise AssertionError(f"{len(doc['pairs'])} pairs for r = {sc.r}")
    if sc.kind == "condition-satisfying" and doc["condition"]["holds"] is not True:
        raise AssertionError("condition does not hold")


def _table_rows(text: str, sc: Scenario) -> list[tuple]:
    """(n, err_sm, binary_bound, lemma_holds, overall_holds) per row."""
    if sc.fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise AssertionError(f"CSV header is {lines[:1]!r}")
        bools = {"true": True, "false": False, "": None}
        rows = []
        for line in lines[1:]:
            c = line.split(",")
            if len(c) != 11:
                raise AssertionError(f"CSV row has {len(c)} cells")
            rows.append((int(c[0]), float(c[3]), float(c[6]), bools[c[9]], bools[c[10]]))
        return rows
    doc = json.loads(text)
    if sc.kind == "condition-satisfying" and doc["condition"]["holds"] is not True:
        raise AssertionError("condition does not hold")
    return [
        (row["n"], row["err_sm"], row["binary_bound"], row["lemma_holds"], row["overall_holds"])
        for row in doc["rows"]
    ]


def check_run(text: str, sc: Scenario) -> None:
    rows = _table_rows(text, sc)
    ns = [row[0] for row in rows]
    if ns != list(range(N_MIN, sc.n_max + 1)):
        raise AssertionError(f"rows for n = {ns}")
    for n, err_sm, bound, lemma, overall in rows:
        if not 0.0 <= err_sm <= sc.r:
            raise AssertionError(f"n={n}: err_sm {err_sm!r} outside [0, {sc.r}]")
        if sc.r == 2 and not err_sm <= bound:
            raise AssertionError(f"n={n}: err_sm {err_sm!r} > binary bound {bound!r}")
        if sc.r >= 3 and not (lemma is True and overall is True):
            raise AssertionError(f"n={n}: lemma_holds={lemma} overall_holds={overall}")


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[str, Scenario], None]
    scenario: Scenario

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


class Runner:
    """Runs operations through ``cli.main`` and records what they did."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def execute(self, ops: list[Op]) -> tuple[list[float], list[str | None]]:
        """Run ``ops`` back to back; return each duration and error."""
        durations, errors = [], []
        for op in ops:
            if self.tracer is not None:
                self.tracer.op += 1
            error = None
            start = perf_counter()
            try:
                code = self.cli.main(op.argv)
                if code != 0:
                    error = f"exit code {code}"
            except Exception as exc:  # a traceback out of the CLI is a failure
                error = f"{type(exc).__name__}: {exc}"
            durations.append(perf_counter() - start)
            errors.append(error)
        return durations, errors

    def verify(self, ops: list[Op], errors: list[str | None]) -> None:
        """Check and hash each output; outputs must repeat across passes."""
        for op, error in zip(ops, errors):
            self.attempted += 1
            if error is None:
                try:
                    data = op.out.read_bytes()
                    op.check(data.decode("utf-8"), op.scenario)
                    digest = hashlib.sha256(data).hexdigest()
                    if self.digests.setdefault(op.label, digest) != digest:
                        error = "output differs from the first pass"
                except (OSError, ValueError, KeyError, TypeError, AssertionError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                self.problems.append(f"{op.label}: {error}")


def pass_ops(workload: str, seed: int, work: Path) -> list[list[Op]]:
    """The timed operations of one pass, grouped by scenario."""
    groups = []
    for sc in scenarios(workload, seed):
        ops = [Op(f"{sc.label}.run", run_argv(sc, work), check_run, sc)]
        if workload == "sweep-small":
            ops = [
                Op(f"{sc.label}.gen", gen_argv(sc, work), check_gen, sc),
                Op(f"{sc.label}.chernoff", chernoff_argv(sc, work), check_chernoff, sc),
            ] + ops
        groups.append(ops)
    return groups


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args) -> dict:
    from qmultitest import cli

    work = Path(args.work)
    runner = Runner(cli)
    groups = pass_ops(args.workload, args.seed, work)
    flat = [op for ops in groups for op in ops]
    # Tables: generate the scenario once, before timing.
    if args.workload != "sweep-small":
        sc = groups[0][0].scenario
        setup = [Op(f"{sc.label}.gen", gen_argv(sc, work), check_gen, sc)]
        runner.verify(setup, runner.execute(setup)[1])

    def one_pass() -> tuple[float, list[float]]:
        start = perf_counter()
        durations, errors = runner.execute(flat)
        wall = perf_counter() - start
        runner.verify(flat, errors)
        per_scenario, k = [], 0
        for ops in groups:
            per_scenario.append(sum(durations[k:k + len(ops)]))
            k += len(ops)
        return wall, per_scenario

    result: dict = {"environment": environment()}
    walls: list[float] = []
    samples: list[float] = []
    if args.trace:
        import trace

        # Untraced and traced passes alternate, so that the tracing overhead
        # is measured against the same stretch of machine time.
        tracer = trace.Tracer()
        runner.tracer = tracer
        untraced_walls, passes = [], []
        start = perf_counter()
        while len(passes) < 2 or perf_counter() - start < args.seconds:
            untraced_walls.append(one_pass()[0])
            uninstall = trace.install(tracer)
            tracer.reset()
            walls.append(one_pass()[0])
            uninstall()
            spans = tracer.reset()
            passes.append((trace.layer_metrics(spans), spans))
        layers = [metrics for metrics, _ in passes]
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            if trace.is_time(name):
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                if len(set(values)) != 1:
                    runner.problems.append(f"trace: {name} differs between passes: {values}")
        metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced_walls)
        result["metrics"] = metrics
        Path(args.spans).write_text(json.dumps(trace.span_records(passes[-1][1])))
    else:
        start = perf_counter()
        while not walls or perf_counter() - start < args.seconds:
            wall, per_scenario = one_pass()
            walls.append(wall)
            samples.extend(per_scenario)
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "scenario_p50_ms": 1e3 * statistics.median(samples),
            "scenario_p90_ms": 1e3 * percentile(samples, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["samples"] = {"passes": len(walls), "scenarios": len(samples)}

    # The split table's scenario must satisfy the condition it was built for.
    if args.workload == "split-qubit":
        sc = groups[0][0].scenario
        post = [Op(f"{sc.label}.chernoff", chernoff_argv(sc, work), check_chernoff, sc)]
        runner.verify(post, runner.execute(post)[1])

    result.update(
        attempted=runner.attempted,
        failed=len(runner.problems),
        problems=runner.problems[:20],
        digests=runner.digests,
        pass_walls=walls,
    )
    return result


def setup(args) -> None:
    from qmultitest import cli

    sc = scenarios(args.workload, args.seed)[0]
    code = cli.main(gen_argv(sc, Path(args.work)))
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="where the traced run writes its last pass's spans")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()

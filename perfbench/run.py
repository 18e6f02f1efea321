"""qmultitest benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is driven only through
``qmultitest.cli.main`` inside a fresh worker process per run (see
``worker.py``), with the BLAS thread count pinned in the worker's
environment.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it carries the environment and the combined
output digest; the full record (per-output SHA-256, pass times, problems)
is written to ``.perfbench_runs/<workload>-seed<N>-trace<T>-blas<threads>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("split-qubit", "binary-qubit", "sweep-small")
BLAS_THREADS = 2
SETUP_PROBES = 9
DEADLINE_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    began = perf_counter()

    src = ROOT / "src"
    if not (src / "qmultitest" / "cli.py").is_file():
        fail(f"no qmultitest sources under {src}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    runs = ROOT / ".perfbench_runs"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-blas{threads}"
    work = runs / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]

    def remaining() -> float:
        left = DEADLINE_S - (perf_counter() - began)
        if left <= 0:
            fail("out of time")
        return left

    try:
        # Set-up: a fresh process that imports the program and generates the
        # first scenario, timed from start to exit; the median of several.
        setup_times = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            start = perf_counter()
            probe = subprocess.run(
                [sys.executable, str(WORKER), "setup", *common],
                env=env, cwd=ROOT, timeout=remaining(),
            )
            setup_times.append(perf_counter() - start)
            if probe.returncode != 0:
                fail(f"set-up exited with code {probe.returncode}")
        measured = subprocess.run(
            [
                sys.executable, str(WORKER), "measure", *common,
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--spans", str(runs / f"{tag}-spans.json"),
            ],
            env=env, cwd=ROOT, timeout=remaining(), stdout=subprocess.PIPE, text=True,
        )
        if measured.returncode != 0:
            fail(f"worker exited with code {measured.returncode}")
        result = json.loads(measured.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        fail("a benchmark process ran past the deadline")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["success_ratio"] = 1.0 - result["failed"] / result["attempted"]
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    digest = hashlib.sha256(
        json.dumps(result["digests"], sort_keys=True).encode("utf-8")
    ).hexdigest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": threads,
        "nproc": nproc,
        "environment": result["environment"],
        "output_digest": digest,
        "problems": result["problems"],
        "pass_walls_s": result["pass_walls"],
        "samples": result.get("samples"),
        "metrics": metrics,
        "output_sha256": result["digests"],
    }
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in (
        "workload", "seed", "blas_threads", "nproc", "environment",
        "output_digest", "problems", "pass_walls_s",
    )}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))


if __name__ == "__main__":
    main()

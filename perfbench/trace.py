"""Per-layer spans and counters for the traced benchmark run.

The program is not changed to be traced.  ``install`` replaces each public
function of a layer, in its defining module and in every ``qmultitest``
module that imported it by name, with a wrapper that records a span:
name, start, end, parent span, the operator dimension it works at, and a
key used to detect repeated work.  Spans stay in memory; ``layer_metrics``
turns one pass's spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

NAME, START, END, PARENT, DIM, KEY = range(6)

# Layers whose total and self time are both reported.
SELF_TIMED = ("detectors.compose_with_binary", "detectors.build_split_detector")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = 0  # index of the CLI invocation in progress; scopes keys

    def reset(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, attrs=None):
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            dim, key = attrs(args, kwargs) if attrs else (None, None)
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, dim, key]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rebind(original, wrapper, home, undo: list) -> None:
    """Replace ``original`` wherever the program holds it by name."""
    modules = [home] + [
        module
        for name, module in sorted(sys.modules.items())
        if name == "qmultitest" or name.startswith("qmultitest.")
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))


def install(tracer: Tracer):
    """Wrap the numpy.linalg kernel and every traced qmultitest layer.

    Returns a function that puts the original functions back.
    """
    import numpy as np

    from qmultitest import chernoff, cli, detectors, evaluation, linalg, scenario, states

    def matrix_dim(args, kwargs):
        return args[0].shape[-1], None

    def power_attrs(args, kwargs):
        rho, n = _arg(args, kwargs, 0, "rho"), _arg(args, kwargs, 1, "n")
        return rho.dim ** n, hash((tracer.op, n, rho.matrix.tobytes()))

    def pair_attrs(args, kwargs):
        rho1, rho2 = _arg(args, kwargs, 0, "rho1"), _arg(args, kwargs, 1, "rho2")
        return None, hash((tracer.op, rho1.matrix.tobytes(), rho2.matrix.tobytes()))

    def helstrom_attrs(args, kwargs):
        return _arg(args, kwargs, 0, "rho1").dim, None

    def split_attrs(args, kwargs):
        ensemble, n = _arg(args, kwargs, 0, "ensemble"), _arg(args, kwargs, 1, "n")
        return ensemble.dim ** n, None

    def error_sum_attrs(args, kwargs):
        return _arg(args, kwargs, 2, "detector").dim, None

    targets = [
        (np.linalg, "eigh", "kernel.eigh", matrix_dim),
        (np.linalg, "eigvalsh", "kernel.eigvalsh", matrix_dim),
        (np.linalg, "cholesky", "kernel.cholesky", matrix_dim),
        (linalg, "check_hermitian", "linalg.check_hermitian", None),
        (states, "tensor_power", "states.tensor_power", power_attrs),
        (chernoff, "chernoff_distance", "chernoff.distance", pair_attrs),
        (chernoff, "attainability_condition", "chernoff.condition", None),
        (detectors, "holevo_helstrom", "detectors.holevo_helstrom", helstrom_attrs),
        (detectors, "pgm", "detectors.pgm", None),
        (detectors, "check_detector", "detectors.check_detector", None),
        (detectors, "compose_with_binary", "detectors.compose_with_binary", None),
        (detectors, "build_split_detector", "detectors.build_split_detector", split_attrs),
        (evaluation, "run_experiment", "evaluation.run_experiment", None),
        (evaluation, "error_sum", "evaluation.error_sum", error_sum_attrs),
        (scenario, "load_scenario", "scenario.load", None),
        (scenario, "write_text_atomic", "scenario.write", None),
        (cli, "table_to_csv", "cli.serialize", None),
        (cli, "table_to_json", "cli.serialize", None),
        (cli, "cmd_gen", "cli.cmd_gen", None),
    ]
    undo: list = []
    for module, attr, name, attrs in targets:
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, attrs), module, undo)

    # State validation runs in the dataclass hook, looked up on the class.
    post_init = states.DensityMatrix.__post_init__
    states.DensityMatrix.__post_init__ = tracer.wrap("states.validate", post_init)
    undo.append((states.DensityMatrix, "__post_init__", post_init))

    # Argument handling: parser construction plus parsing, both as cli.parse.
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = tracer.wrap("cli.parse", build_parser)()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    _rebind(build_parser, traced_build_parser, cli, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def is_time(name: str) -> bool:
    """Times vary between passes; every other layer metric is a count."""
    return name.rsplit(".", 1)[-1] in ("s", "self_s", "s_per_row")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and seconds for one pass.

    ``.s`` is the time inside the outermost span of that name (nested
    recursive calls are not counted twice); ``.self_s`` subtracts the time
    covered by child spans.  A decomposition is "full" when it works at the
    dimension of the table row it belongs to; a row is one ``error_sum``
    call made directly by ``run_experiment``.
    """
    count = len(spans)
    duration = [span[END] - span[START] for span in spans]
    child_time = [0.0] * count
    outermost = [True] * count
    row_of = [-1] * count  # the direct child of run_experiment above a span
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent < 0:
            continue
        child_time[parent] += duration[i]
        row_of[i] = i if spans[parent][NAME] == "evaluation.run_experiment" else row_of[parent]
        ancestor = parent
        while ancestor >= 0:
            if spans[ancestor][NAME] == span[NAME]:
                outermost[i] = False
                break
            ancestor = spans[ancestor][PARENT]

    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    keys: dict[str, set] = {}
    full_calls = rows = 0
    full_seconds = tensor_bytes = 0.0
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        if outermost[i]:
            seconds[name] = seconds.get(name, 0.0) + duration[i]
        self_seconds[name] = self_seconds.get(name, 0.0) + duration[i] - child_time[i]
        if span[KEY] is not None:
            keys.setdefault(name, set()).add(span[KEY])
        if name == "states.tensor_power":
            tensor_bytes += 16.0 * span[DIM] ** 2  # complex128 D x D, computed
        elif name == "evaluation.error_sum" and row_of[i] == i:
            rows += 1
        elif name.startswith("kernel.") and row_of[i] >= 0:
            if span[DIM] == spans[row_of[i]][DIM]:
                full_calls += 1
                full_seconds += duration[i]

    def redundant(name):
        total = calls.get(name, 0)
        return (total - len(keys.get(name, ()))) / total if total else 0.0

    out: dict[str, float] = {
        "kernel.full.calls_per_row": full_calls / rows if rows else 0.0,
        "kernel.full.s_per_row": full_seconds / rows if rows else 0.0,
        "states.tensor_power.bytes": tensor_bytes,
        "states.tensor_power.redundant_ratio": redundant("states.tensor_power"),
        "chernoff.distance.redundant_ratio": redundant("chernoff.distance"),
    }
    # Cholesky is not called at this commit; its count is kept so that a
    # Cholesky-based check shows up as work moved between kernels.
    out["kernel.cholesky.calls"] = calls.get("kernel.cholesky", 0)
    out["chernoff.condition.calls"] = calls.get("chernoff.condition", 0)
    for layer in (
        "kernel.eigh", "kernel.eigvalsh", "linalg.check_hermitian", "states.tensor_power", "states.validate",
        "chernoff.distance",
        "detectors.holevo_helstrom", "detectors.pgm", "detectors.check_detector",
        "detectors.compose_with_binary", "detectors.build_split_detector",
        "evaluation.error_sum",
    ):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.s"] = seconds.get(layer, 0.0)
    for layer in SELF_TIMED + ("evaluation.run_experiment",):
        out[f"{layer}.s"] = seconds.get(layer, 0.0)
        out[f"{layer}.self_s"] = self_seconds.get(layer, 0.0)
    for layer in ("scenario.load", "scenario.write", "cli.parse", "cli.serialize", "cli.cmd_gen"):
        out[f"{layer}.s"] = seconds.get(layer, 0.0)
    return out


def span_records(spans: list[list]) -> list[dict]:
    """Spans as JSON-ready records (times relative to the first span)."""
    origin = spans[0][START] if spans else 0.0
    return [
        {
            "name": span[NAME],
            "start": span[START] - origin,
            "end": span[END] - origin,
            "parent": span[PARENT],
            "dim": span[DIM],
        }
        for span in spans
    ]

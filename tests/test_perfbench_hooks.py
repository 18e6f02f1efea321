"""The traced benchmark run wraps program functions by name; every name it
wraps must exist, and uninstalling must put the originals back."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from qmultitest import chernoff, cli, detectors, evaluation, states

TRACE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"

# Layers the benchmark's per-layer table reads (see perfbench/README.md).
TRACED = [
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (np.linalg, "cholesky"),
    (states, "tensor_power"),
    (chernoff, "chernoff_distance"),
    (chernoff, "attainability_condition"),
    (detectors, "holevo_helstrom"),
    (detectors, "pgm"),
    (detectors, "check_detector"),
    (detectors, "compose_with_binary"),
    (detectors, "build_split_detector"),
    (evaluation, "run_experiment"),
    (evaluation, "error_sum"),
    (cli, "table_to_csv"),
    (cli, "table_to_json"),
    (cli, "cmd_gen"),
]


def load_trace_module():
    # A name of our own: "trace" is a standard-library module.
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    program = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "qmultitest" or name.startswith("qmultitest.")
    ]
    return [np.linalg, *program]


def snapshot():
    values = {
        (id(ns), attr): value
        for ns in namespaces()
        for attr, value in vars(ns).items()
        if callable(value)
    }
    values[("post_init", "")] = states.DensityMatrix.__post_init__
    return values


def test_install_wraps_every_layer_and_uninstall_restores():
    trace = load_trace_module()
    before = snapshot()
    # install() looks every target up by name, so a renamed or deleted
    # function fails here.
    uninstall = trace.install(trace.Tracer())
    try:
        for module, attr in TRACED:
            original = before[(id(module), attr)]
            wrapped = getattr(module, attr)
            assert getattr(wrapped, "__wrapped__", None) is original, attr
        assert states.DensityMatrix.__post_init__ is not before[("post_init", "")]
    finally:
        uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

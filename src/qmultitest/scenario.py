"""Scenario files: JSON descriptions of state ensembles.

A scenario is a JSON object with a mandatory ``version`` (currently 1),
the Hilbert-space ``dim``, a ``states`` list, and optional ``labels``.
Complex numbers are written as ``[re, im]`` pairs so files stay
unambiguous across languages.  State specs, discriminated by ``type``:

* ``{"type": "matrix", "entries": [[[re, im], ...], ...]}`` (``dim x dim x 2``)
* ``{"type": "pure", "amplitudes": [[re, im], ...]}`` (``dim x 2``)
* ``{"type": "classical", "probabilities": [p, ...]}`` (length ``dim``)
* ``{"type": "random", "rank": k, "seed": s}`` (documented SplitMix64 stream)
* ``{"type": "mix", "base": i, "other": j-or-spec, "epsilon": e}`` where
  ``base`` (and an integer ``other``) are 0-based indices of EARLIER
  entries in the list; ``other`` may instead be an inline spec object.

``rank`` lies in ``1..dim``, and any other shape or value is a parse error
naming the field.  Random specs regenerate bit-exactly from their seeds, so
a written scenario reloads to the same ensemble byte for byte.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import ScenarioParseError
from .states import (
    DensityMatrix,
    Ensemble,
    classical_state,
    mix,
    pure_state,
    random_density,
)

SCENARIO_VERSION = 1


def _numbers(raw, where: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read nested lists of exactly ``shape`` whose leaves are JSON numbers
    (not booleans) within the float range, as a float array."""
    want = "a list of shape " + "x".join(map(str, shape)) if shape else "a number"

    def check(value, dims) -> None:
        if isinstance(value, list) != bool(dims) or (dims and len(value) != dims[0]):
            raise ScenarioParseError(f"{where}: expected {want}")
        if dims:
            for item in value:
                check(item, dims[1:])
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioParseError(f"{where}: {json.dumps(value)} is not a number")
        elif not abs(value) <= sys.float_info.max:
            raise ScenarioParseError(
                f"{where}: {json.dumps(value)} is not a finite number"
            )

    check(raw, shape)
    return np.asarray(raw, dtype=np.float64)


def _integer(value, where: str, low: int | None = None, high: int | None = None):
    """Read a JSON integer (not a boolean) in ``low..high``; ``None`` leaves
    that side open."""
    if isinstance(value, int) and not isinstance(value, bool):
        if (low is None or low <= value) and (high is None or value <= high):
            return value
    bounds = f" in {low}..{high}" if high is not None else f" >= {low}"
    bounds = "" if low is None else bounds
    raise ScenarioParseError(f"{where}: expected an integer{bounds}, got {value!r}")


def _parse_state(
    spec, dim: int, parsed: list[DensityMatrix], where: str
) -> DensityMatrix:
    if not isinstance(spec, dict):
        raise ScenarioParseError(f"{where}: state spec must be an object")
    kind = spec.get("type")
    if kind == "matrix":
        pairs = _numbers(spec.get("entries"), f"{where}.entries", (dim, dim, 2))
        return DensityMatrix(pairs[..., 0] + 1j * pairs[..., 1])
    if kind == "pure":
        pairs = _numbers(spec.get("amplitudes"), f"{where}.amplitudes", (dim, 2))
        return pure_state(pairs[..., 0] + 1j * pairs[..., 1])
    if kind == "classical":
        probs = _numbers(spec.get("probabilities"), f"{where}.probabilities", (dim,))
        return classical_state(probs)
    if kind == "random":
        rank = _integer(spec.get("rank", dim), f"{where}.rank", 1, dim)
        return random_density(dim, rank, _integer(spec.get("seed"), f"{where}.seed"))
    if kind == "mix":
        last = len(parsed) - 1
        base = parsed[_integer(spec.get("base"), f"{where}.base", 0, last)]
        other = spec.get("other")
        if isinstance(other, int):
            other = parsed[_integer(other, f"{where}.other", 0, last)]
        else:
            other = _parse_state(other, dim, parsed, f"{where}.other")
        epsilon = spec.get("epsilon")
        if not 0.0 <= _numbers(epsilon, f"{where}.epsilon", ()) <= 1.0:
            raise ScenarioParseError(
                f"{where}.epsilon: must be a number in [0, 1], got {epsilon!r}"
            )
        return mix(base, other, float(epsilon))
    raise ScenarioParseError(f"{where}: unknown state type {kind!r}")


def scenario_from_dict(doc) -> Ensemble:
    """Build a scenario's ensemble, with its labels, from a parsed JSON
    document."""
    if not isinstance(doc, dict):
        raise ScenarioParseError("top level must be a JSON object")
    _integer(doc.get("version"), "version", SCENARIO_VERSION, SCENARIO_VERSION)
    dim = _integer(doc.get("dim"), "dim", 1)
    specs = doc.get("states")
    if not isinstance(specs, list) or len(specs) < 2:
        raise ScenarioParseError("states: expected a list of at least 2 specs")
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != len(specs)
        or not all(isinstance(x, str) for x in labels)
    ):
        raise ScenarioParseError(f"labels: expected a list of {len(specs)} strings")
    parsed: list[DensityMatrix] = []
    for k, spec in enumerate(specs):
        parsed.append(_parse_state(spec, dim, parsed, f"states[{k}]"))
    return Ensemble(tuple(parsed), tuple(labels) if labels else None)


def load_scenario(path) -> Ensemble:
    """Read and validate a scenario file; one that cannot be read, or is
    not UTF-8, is a parse error naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: not UTF-8 ({exc})") from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioParseError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(doc)


def scenario_document(dim: int, specs) -> dict:
    return {"version": SCENARIO_VERSION, "dim": dim, "states": list(specs)}


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename.  The
    file gets the mode a plain ``open(path, "w")`` gives it: the replaced
    file's permission bits, or ``0o666`` less the umask for a new file."""
    target = Path(path)
    try:
        mode = os.stat(target).st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=target.parent or ".", suffix=".tmp")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

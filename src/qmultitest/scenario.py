"""Scenario files: JSON descriptions of state ensembles.

A scenario is a JSON object with a mandatory ``version`` (currently 1),
the Hilbert-space ``dim``, a ``states`` list, and optional ``labels``.
Complex numbers are written as ``[re, im]`` pairs so files stay
unambiguous across languages.  State specs, discriminated by ``type``:

* ``{"type": "matrix", "entries": [[[re, im], ...], ...]}``
* ``{"type": "pure", "amplitudes": [[re, im], ...]}``
* ``{"type": "classical", "probabilities": [p, ...]}``
* ``{"type": "random", "rank": k, "seed": s}`` (documented SplitMix64 stream)
* ``{"type": "mix", "base": i, "other": j-or-spec, "epsilon": e}`` where
  ``base`` (and an integer ``other``) are 0-based indices of EARLIER
  entries in the list; ``other`` may instead be an inline spec object.

Random specs regenerate bit-exactly from their seeds, so a written
scenario reloads to the same ensemble byte for byte.
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


def _is_integer(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are Python ints but not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_finite(raw, where: str) -> None:
    """Refuse anything in these nested lists but numbers in the float range."""
    if isinstance(raw, list):
        for value in raw:
            _check_finite(value, where)
    elif isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioParseError(f"{where}: {json.dumps(raw)} is not a number")
    elif not abs(raw) <= sys.float_info.max:
        raise ScenarioParseError(f"{where}: {json.dumps(raw)} is not a finite number")


def _complex_entries(raw, where: str, expect_len: int | None = None) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioParseError(f"{where}: not numeric ({exc})") from None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ScenarioParseError(f"{where}: entries must be [re, im] pairs")
    _check_finite(raw, where)
    out = arr[..., 0] + 1j * arr[..., 1]
    if expect_len is not None and out.shape[0] != expect_len:
        raise ScenarioParseError(
            f"{where}: expected length {expect_len}, got {out.shape[0]}"
        )
    return out


def _parse_state(
    spec, dim: int, parsed: list[DensityMatrix], where: str
) -> DensityMatrix:
    if not isinstance(spec, dict):
        raise ScenarioParseError(f"{where}: state spec must be an object")
    kind = spec.get("type")
    if kind == "matrix":
        entries = _complex_entries(spec.get("entries"), f"{where}.entries")
        if entries.shape != (dim, dim):
            raise ScenarioParseError(
                f"{where}.entries: expected {dim}x{dim}, got {entries.shape}"
            )
        return DensityMatrix(entries)
    if kind == "pure":
        vec = _complex_entries(spec.get("amplitudes"), f"{where}.amplitudes", dim)
        return pure_state(vec)
    if kind == "classical":
        probs = spec.get("probabilities")
        if not isinstance(probs, list) or len(probs) != dim:
            raise ScenarioParseError(
                f"{where}.probabilities: expected a list of length {dim}"
            )
        _check_finite(probs, f"{where}.probabilities")
        return classical_state(probs)
    if kind == "random":
        rank = spec.get("rank", dim)
        seed = spec.get("seed")
        for name, value in (("rank", rank), ("seed", seed)):
            if not _is_integer(value):
                raise ScenarioParseError(
                    f"{where}.{name}: must be an integer, got {value!r}"
                )
        return random_density(dim, rank, seed)
    if kind == "mix":
        base = spec.get("base")
        if not _is_integer(base) or not 0 <= base < len(parsed):
            raise ScenarioParseError(
                f"{where}.base: must index an earlier state, got {base!r}"
            )
        other_spec = spec.get("other")
        if isinstance(other_spec, int):
            if not _is_integer(other_spec) or not 0 <= other_spec < len(parsed):
                raise ScenarioParseError(
                    f"{where}.other: must index an earlier state, got {other_spec}"
                )
            other = parsed[other_spec]
        else:
            other = _parse_state(other_spec, dim, parsed, f"{where}.other")
        epsilon = spec.get("epsilon")
        number = _is_integer(epsilon) or isinstance(epsilon, float)
        if not number or not 0.0 <= epsilon <= 1.0:
            raise ScenarioParseError(
                f"{where}.epsilon: must be a number in [0, 1], got {epsilon!r}"
            )
        return mix(parsed[base], other, float(epsilon))
    raise ScenarioParseError(f"{where}: unknown state type {kind!r}")


def scenario_from_dict(doc) -> Ensemble:
    """Build a scenario's ensemble, with its labels, from a parsed JSON
    document."""
    if not isinstance(doc, dict):
        raise ScenarioParseError("top level must be a JSON object")
    version = doc.get("version")
    if not _is_integer(version) or version != SCENARIO_VERSION:
        raise ScenarioParseError(
            f"version: expected {SCENARIO_VERSION}, got {version!r}"
        )
    dim = doc.get("dim")
    if not _is_integer(dim) or dim < 1:
        raise ScenarioParseError(f"dim: expected a positive integer, got {dim!r}")
    specs = doc.get("states")
    if not isinstance(specs, list) or len(specs) < 2:
        raise ScenarioParseError("states: expected a list of at least 2 specs")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(
            isinstance(x, str) for x in labels
        ):
            raise ScenarioParseError("labels: expected a list of strings")
        if len(labels) != len(specs):
            raise ScenarioParseError("labels: count does not match states")
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
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(doc)


def scenario_document(dim: int, specs) -> dict:
    return {"version": SCENARIO_VERSION, "dim": dim, "states": list(specs)}


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

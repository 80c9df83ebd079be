"""Persisting experiment results as JSON artifacts.

Reproduction runs are only useful if their numbers can be archived, diffed
against later runs, and inspected without re-running. This module
serializes the figure/ablation/extension result objects into a stable JSON
schema and loads them back for comparison:

* :func:`save_result` / :func:`load_result` — one result to/from a file.
* :func:`to_jsonable` — the underlying converter (dataclasses, result
  objects with ``render``, mappings with non-string keys).
* :func:`compare_runs` — relative deltas between two archived runs of the
  same experiment, flagging series that moved more than a tolerance.
* :func:`fingerprint` — a SHA-256 over the canonical JSON of a result, for
  cheap determinism assertions (same seed → same fingerprint).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.observe.flight import ArtifactError

SCHEMA_VERSION = 1


def to_jsonable(value: Any) -> Any:
    """Convert experiment objects into JSON-serializable structures.

    Handles results that choose their own archive form (a ``payload()``
    method, e.g. :class:`~repro.experiments.sweeps.SweepTable`),
    dataclasses (recursively), enums (by value), mappings with
    tuple/int keys (stringified), sets/frozensets (sorted lists), and the
    basic scalar/sequence types. Anything else falls back to ``repr`` —
    archives must never fail because a result grew a new field.
    """
    payload = getattr(value, "payload", None)
    if callable(payload) and not isinstance(value, type):
        return to_jsonable(payload())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {_key(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(to_jsonable(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)):
        return str(key)
    if isinstance(key, tuple):
        return "|".join(str(part) for part in key)
    return repr(key)


def fingerprint(result: Any) -> str:
    """SHA-256 hex digest of ``result``'s canonical JSON form.

    Two runs with the same seed must produce the same fingerprint at any
    job count — the property the CI chaos-smoke job asserts.
    """
    payload = json.dumps(to_jsonable(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_result(result: Any, path: Union[str, Path], name: str) -> Dict[str, Any]:
    """Archive ``result`` to ``path``; returns the written document.

    The document wraps the payload with a schema version and the experiment
    name so archives stay self-describing.
    """
    document = {
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "payload": to_jsonable(result),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_result(path: Union[str, Path]) -> Dict[str, Any]:
    """Load an archived result document; validates shape and schema version.

    Anything else than an archive raises :class:`ArtifactError` naming
    ``path``.
    """
    try:
        document = json.loads(Path(path).read_bytes())
    except ValueError as exc:
        raise ArtifactError(f"{path}: not a JSON result archive ({exc})") from None
    if not isinstance(document, dict):
        raise ArtifactError(f"{path}: a result archive is a JSON object")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: archive schema version {version} != supported {SCHEMA_VERSION}"
        )
    if "experiment" not in document or "payload" not in document:
        raise ArtifactError(f"{path}: archive missing 'experiment' or 'payload'")
    return document


def _walk_numbers(prefix: str, value: Any, out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            _walk_numbers(f"{prefix}.{key}" if prefix else str(key), item, out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _walk_numbers(f"{prefix}[{index}]", item, out)


def numeric_view(document: Dict[str, Any]) -> Dict[str, float]:
    """Flatten an archive's payload into path -> number."""
    numbers: Dict[str, float] = {}
    _walk_numbers("", document["payload"], numbers)
    return numbers


def compare_runs(
    old: Dict[str, Any],
    new: Dict[str, Any],
    tolerance: float = 0.05,
) -> List[Tuple[str, Optional[float], Optional[float], float]]:
    """Numeric drift between two archives of the same experiment.

    Returns ``(path, old, new, relative_delta)`` for every numeric path
    whose relative change exceeds ``tolerance`` (absolute change for
    near-zero baselines). A path only one archive has — a lost row, a
    ``null`` payload — is drift too: its missing side is ``None`` and its
    delta infinite; so is a non-finite value (``NaN``, ``inf``) on either
    side. Raises if the archives are different experiments.
    """
    if old["experiment"] != new["experiment"]:
        raise ValueError(
            f"cannot compare {old['experiment']!r} with {new['experiment']!r}"
        )
    old_numbers = numeric_view(old)
    new_numbers = numeric_view(new)
    drifted: List[Tuple[str, Optional[float], Optional[float], float]] = []
    for path in sorted(set(old_numbers) | set(new_numbers)):
        before, after = old_numbers.get(path), new_numbers.get(path)
        if before is None or after is None or not math.isfinite(after - before):
            # ``nan > tolerance`` is false: without this a NaN on either
            # side would read as "no drift".
            delta = math.inf
        elif abs(before) < 1e-9:
            delta = abs(after - before)
        else:
            delta = abs(after - before) / abs(before)
        if delta > tolerance:
            drifted.append((path, before, after, delta))
    return drifted

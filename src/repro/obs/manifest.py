"""Run manifests: provenance stamps for result artifacts.

A number in a JSON artifact is only evidence if we know *exactly what
produced it* — which configuration, which seeds, which code revision,
on which interpreter, with how many workers, for how long.
``repro loadtest --out`` stamps its run payload with one, and the
figure benches record one per text artifact in
``benchmarks/results/RUN_MANIFEST.json``.

A manifest is a plain dict::

    {
      "schema_version": 1,
      "created_utc": "2026-08-07T12:00:00Z",
      "git_rev": "fcc24ff...",            # or "unknown" outside a repo
      "python": "3.12.3",
      "platform": "Linux-6.8...-x86_64",
      "config": {"bench": "...", ...},    # the run's *identity*
      "sampling": {"duration_s": 5.0},    # how long/hard we measured
      "seeds": [21],
      "workers": 1,
      "wall_time_s": 12.3,                # null when not measured
    }

``config`` is what was run (workload shape, seeds, mode); ``sampling``
is measurement effort (durations, repeat counts) that may differ
between two runs of the same experiment.
"""

from __future__ import annotations

import json
import pathlib
import platform as _platform
import subprocess
import time
from typing import Mapping, Optional, Sequence

__all__ = ["MANIFEST_SCHEMA_VERSION", "build_manifest", "stamp",
           "validate_manifest", "git_rev", "manifest_json"]

MANIFEST_SCHEMA_VERSION = 1

#: required manifest fields and the types validation enforces
_REQUIRED: tuple[tuple[str, type], ...] = (
    ("schema_version", int),
    ("created_utc", str),
    ("git_rev", str),
    ("python", str),
    ("platform", str),
    ("config", dict),
    ("workers", int),
)


def git_rev(repo_dir: Optional[pathlib.Path] = None) -> str:
    """The current commit hash, or ``"unknown"`` outside a work tree."""
    if repo_dir is None:
        # src/repro/obs/manifest.py -> repo root is three parents up
        repo_dir = pathlib.Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_dir,
            capture_output=True, text=True, timeout=5.0)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def build_manifest(config: Mapping,
                   sampling: Optional[Mapping] = None,
                   seeds: Optional[Sequence[int]] = None,
                   workers: int = 1,
                   wall_time_s: Optional[float] = None) -> dict:
    """Assemble a manifest for one run.

    ``config`` is the run's *identity* (workload shape, seed-determined
    corpus, mode); ``sampling`` holds measurement-effort knobs (repeat
    counts, durations) that may differ between two runs of the same
    experiment.
    """
    if not config:
        raise ValueError("manifest config must not be empty")
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": git_rev(),
        "python": _platform.python_version(),
        "platform": _platform.platform(),
        "config": dict(config),
        "sampling": dict(sampling) if sampling else {},
        "seeds": list(seeds) if seeds is not None else [],
        "workers": workers,
        "wall_time_s": (round(wall_time_s, 3)
                        if wall_time_s is not None else None),
    }


def stamp(payload: dict, manifest: Mapping) -> dict:
    """Attach ``manifest`` to an artifact payload (returns ``payload``)."""
    payload["manifest"] = dict(manifest)
    return payload


def validate_manifest(manifest: object) -> list[str]:
    """All schema violations, as human-readable strings; [] when valid."""
    if not isinstance(manifest, Mapping):
        return [f"manifest is {type(manifest).__name__}, not a mapping"]
    errors = []
    for field, kind in _REQUIRED:
        value = manifest.get(field)
        if value is None:
            errors.append(f"missing required field {field!r}")
        elif not isinstance(value, kind) or isinstance(value, bool):
            errors.append(f"field {field!r} is "
                          f"{type(value).__name__}, expected "
                          f"{kind.__name__}")
    if not errors:
        if manifest["schema_version"] > MANIFEST_SCHEMA_VERSION:
            errors.append(
                f"schema_version {manifest['schema_version']} is newer "
                f"than supported {MANIFEST_SCHEMA_VERSION}")
        if not manifest["config"]:
            errors.append("config must not be empty")
        if manifest["workers"] < 1:
            errors.append(f"workers must be >= 1, "
                          f"got {manifest['workers']}")
    return errors


def _json_default(value):  # pragma: no cover - defensive
    return str(value)


def manifest_json(manifest: Mapping) -> str:
    """Canonical JSON rendering (sorted keys), for sidecar files."""
    return json.dumps(manifest, indent=2, sort_keys=True,
                      default=_json_default) + "\n"

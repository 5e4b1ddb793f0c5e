"""Helpers shared by the benchmark modules.

Besides the scale switch and table printing, this module emits the
machine-readable ``BENCH_runtime.json`` artifact: every benchmark that
measures something calls :func:`record_bench` with a plain-dict payload (wall
times, speedups, communication volume, ...), and the entries accumulate into
one JSON file so the performance trajectory can be tracked across PRs and CI
runs.  The default target is a gitignored scratch file (see
:func:`bench_json_path`); the committed baseline is only ever replaced
deliberately, through the ``--refresh`` validation of
``check_speedup_trajectory.py``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Dict

from repro.experiments.timing import bench_repeats  # noqa: F401  (re-export)

__all__ = [
    "full_scale",
    "machine_stamp",
    "print_table",
    "record_bench",
    "bench_json_path",
    "bench_repeats",
]


def full_scale() -> bool:
    """True when the user asked for paper-scale runs (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false", "False")


def print_table(title: str, body: str) -> None:
    """Print a benchmark table so it appears in the pytest output (-s or summary)."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    print(body)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() if out.returncode == 0 else ""
    except OSError:
        return ""


def machine_stamp() -> Dict[str, Any]:
    """Where and when a section was measured: git SHA, hostname, core count.

    Stamped into every recorded section so single-core-container numbers are
    never conflated with multi-core runs -- the trajectory gate
    (:func:`repro.obs.trajectory.machine_stamp`) compares cross-machine rows
    at the lenient tolerance.  Readers must tolerate its absence (artifacts
    recorded before the stamp existed).
    """
    return {
        "git_sha": _git_sha(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def bench_json_path() -> Path:
    """Location of the benchmark artifact (override with REPRO_BENCH_JSON).

    Defaults to the *gitignored scratch file* ``BENCH_runtime.local.json``,
    never the committed ``BENCH_runtime.json``: a bare ``pytest`` run must
    not silently overwrite the baseline every regression floor is derived
    from (noisy local runs used to land in the diff that way).  Refreshing
    the committed baseline is deliberate: record with
    ``REPRO_BENCH_JSON=/tmp/bench-new.json``, validate with
    ``check_speedup_trajectory.py --refresh``, then copy it over.
    """
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "BENCH_runtime.local.json"


def record_bench(section: str, payload: Dict[str, Any]) -> Path:
    """Merge one benchmark's measurements into ``BENCH_runtime.json``.

    ``section`` names the benchmark (e.g. ``"compress_scaling"``); ``payload``
    must be JSON-serializable (floats/ints/strings/lists/dicts).  Existing
    sections from earlier benchmarks in the same run are preserved; a corrupt
    or missing file is replaced.  The scale flag is recorded per section, so
    sections measured at different REPRO_FULL settings stay correctly
    labelled, and every section carries the :func:`machine_stamp` of the run
    that measured it.  Returns the artifact path.
    """
    path = bench_json_path()
    data: Dict[str, Any] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if isinstance(loaded, dict):
            data = loaded
    except (OSError, ValueError):
        pass
    data[section] = {"full_scale": full_scale(), "machine": machine_stamp(), **payload}
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path

"""The benchmark-trajectory gate: compare bench artifacts, bound spreads.

The library behind ``benchmarks/check_speedup_trajectory.py`` (the CI gate)
and the ``repro benchreport`` renderer: loads ``BENCH_runtime.json``-shaped
artifacts, matches speedup rows between a freshly measured artifact and the
committed trajectory, and produces a structured :class:`GateResult` instead
of printing directly -- the CLI wrapper prints, the report renders.

Speedup rows (the :data:`SECTIONS`, i.e. ``compress_scaling``) match on
``(section, format, backend, fusion)``; only the concurrent backends
(:data:`GATED_BACKENDS`) gate, since that is the trajectory the north star
tracks.  Factorize/solve wall times, serving throughput and observability
overhead are not gated here: ``bench/`` measures them as interleaved
parent/change pairs.  Absolute numbers are machine- and size-dependent, so
the check is deliberately lenient: a current row must reach ``tolerance``
(default 0.5) of the stored value when both runs measured the same problem
size *on the same core count*, and the looser ``cross_size_tolerance``
(default 0.25) when either differs -- the machine stamp
(:func:`machine_stamp`, written by ``bench_utils.record_bench`` since PR 8)
is read backfill-tolerantly, so pre-stamp artifacts compare exactly as
before.  Missing baselines, sections or rows are reported but never fail
the check -- the gate only ever compares what both artifacts measured.

When the current artifact carries per-data-plane rows in
:data:`COMM_SECTION` (``distributed_weak_scaling``, recorded since the
zero-copy shared-memory data plane landed), the physical-byte trajectory is
gated too: every multi-node configuration measured under both planes must
keep a ``min_comm_savings`` (default 10x) wire-byte advantage for the shm
plane, and matching shm rows must not regress past a small slack over the
committed baseline.  Pre-plane artifacts carry no ``data_plane`` field and
skip the gate entirely.

The *committed baseline itself* is validated on every run: every raw
``*_samples`` list it stores must have a max/min spread within
``max_sample_spread`` (default 2x) -- a baseline violating that was
recorded on a disturbed machine, and committing it would silently lower
every regression floor derived from it.  The same spread bound is applied
to the freshly measured artifact as a ``NOISY`` warning only (CI boxes are
noisy; the lenient floors absorb that), so a disturbed measurement is
visible without flaking the gate.

:func:`check_refresh` guards the act of *replacing* the baseline: a
proposed refresh must itself be baseline-clean (hard spread check) and at parity or better with the committed trajectory
(``refresh_tolerance``, default 0.9 of every stored gated value on the
same machine class), so repeated refreshes after slower runs cannot
ratchet the floors looser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Tuple

__all__ = [
    "SECTIONS",
    "COMM_SECTION",
    "GATED_BACKENDS",
    "GateResult",
    "load_artifact",
    "machine_stamp",
    "speedup_rows",
    "comm_plane_rows",
    "sample_spreads",
    "check_trajectory",
    "check_refresh",
]

#: Sections carrying speedup rows, with the per-row key fields.
SECTIONS = ("compress_scaling",)

#: Section carrying per-data-plane physical-byte rows of the distributed
#: weak-scaling bench, gated on the zero-copy savings factor.
COMM_SECTION = "distributed_weak_scaling"

#: Backends whose speedup trajectory gates the check.
GATED_BACKENDS = ("parallel", "process")

def load_artifact(path: Path) -> Dict[str, Any]:
    """Load one ``BENCH_runtime.json``-shaped artifact (a JSON object)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def machine_stamp(section: Mapping[str, Any]) -> Dict[str, Any]:
    """The section's machine stamp (git SHA, hostname, cpu_count, recorded_at).

    Backfill-tolerant: artifacts recorded before ``record_bench`` stamped the
    machine return ``{}``, and every consumer must treat absent keys as
    unknown (compare leniently, render as ``-``).
    """
    stamp = section.get("machine")
    return dict(stamp) if isinstance(stamp, Mapping) else {}


def speedup_rows(section: Mapping[str, Any]) -> Iterator[Tuple[Tuple, float, int]]:
    """Yield ``(key, speedup, n)`` per gated row of one benchmark section."""
    n = int(section.get("n", 0))
    for row in section.get("rows", ()):
        backend = row.get("backend")
        if backend not in GATED_BACKENDS or "speedup" not in row:
            continue
        key = (row.get("format"), backend, bool(row.get("fusion", False)))
        yield key, float(row["speedup"]), int(row.get("n", n))


def comm_plane_rows(
    section: Mapping[str, Any],
) -> Dict[Tuple[str, int, str], Tuple[int, int]]:
    """``(distribution, nodes, data_plane) -> (physical_bytes, n)`` per row.

    Backfill-tolerant: rows recorded before the zero-copy data plane existed
    carry neither ``data_plane`` nor ``physical_bytes`` and are skipped, so
    pre-plane artifacts simply contribute no comm-gate comparisons.
    """
    out: Dict[Tuple[str, int, str], Tuple[int, int]] = {}
    for row in section.get("rows", ()):
        if "data_plane" not in row or "physical_bytes" not in row:
            continue
        key = (
            str(row.get("distribution")),
            int(row.get("nodes", 0)),
            str(row["data_plane"]),
        )
        out[key] = (int(row["physical_bytes"]), int(row.get("n", 0)))
    return out


#: Row fields used to describe a sample-spread finding in log lines.
_ROW_ID_FIELDS = (
    "format", "backend", "fusion", "distribution", "data_plane",
    "n_workers", "nodes", "n",
)


def _row_ident(row: Mapping[str, Any]) -> str:
    parts = [f"{k}={row[k]}" for k in _ROW_ID_FIELDS if k in row]
    return ", ".join(parts) if parts else "<top level>"


def sample_spreads(
    artifact: Mapping[str, Any],
) -> Iterator[Tuple[str, str, str, float]]:
    """Yield ``(section, where, field, max/min spread)`` per raw-sample list.

    Walks every section generically: raw per-repeat timing lists are any
    ``*_samples`` key, either on the section itself or on its rows.  Lists shorter than two samples or containing non-positive
    timings are skipped -- the spread of a timing list is only meaningful
    for repeated positive wall times.
    """
    for name, section in artifact.items():
        if not isinstance(section, Mapping):
            continue
        holders = [("<section>", section)]
        rows = section.get("rows")
        if isinstance(rows, list):
            holders += [(_row_ident(r), r) for r in rows if isinstance(r, Mapping)]
        for where, holder in holders:
            for key, value in holder.items():
                if not (isinstance(key, str) and key.endswith("_samples")):
                    continue
                if not (isinstance(value, list) and len(value) >= 2):
                    continue
                try:
                    lo, hi = min(value), max(value)
                except TypeError:
                    continue
                if not isinstance(lo, (int, float)) or lo <= 0:
                    continue
                yield name, where, key, float(hi) / float(lo)


def _check_sample_spreads(
    result: GateResult,
    artifact: Mapping[str, Any],
    max_spread: float,
    *,
    role: str,
) -> None:
    """Flag raw-sample lists whose spread says the run was disturbed.

    ``role="baseline"`` (and ``"refresh"``, a proposed baseline) hard-fails:
    a disturbed run must never become the stored trajectory, because every
    regression floor is derived from it.  ``role="current"`` only logs a
    ``NOISY`` warning -- fresh measurements on shared CI boxes jitter, and
    the lenient floors already absorb that.
    """
    hard = role != "current"
    for name, where, key, spread in sample_spreads(artifact):
        if spread <= max_spread:
            continue
        line = (
            f"{role} {name} [{where}] {key}: max/min spread {spread:.2f}x "
            f"exceeds the {max_spread:.1f}x sanity bound -> "
            f"{'DISTURBED' if hard else 'NOISY (warning only)'}"
        )
        result.log(line)
        if hard:
            result.fail(
                f"{role} {name} [{where}] {key}: sample spread {spread:.2f}x "
                f"exceeds the {max_spread:.1f}x sanity bound -- the run was "
                "disturbed; re-measure on a quiet machine instead of "
                "committing it as the trajectory"
            )


def _check_comm_plane(
    result: GateResult,
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    min_savings: float,
) -> None:
    """Gate the zero-copy data plane's physical-byte trajectory.

    Two checks, both on :data:`COMM_SECTION` rows:

    * **in-artifact savings floor** -- for every multi-node configuration the
      current artifact measured under both planes, ``pickle physical bytes /
      shm physical bytes`` must reach ``min_savings`` (the shm plane ships
      descriptors, not array bytes, so the factor collapses if payloads leak
      back onto the wire);
    * **cross-artifact regression** -- for matching (distribution, nodes)
      shm rows at the same problem size, the current wire bytes must not grow
      past a small slack over the stored baseline (byte counts are
      deterministic, unlike timings, so the slack only absorbs descriptor
      -encoding drift).
    """
    section = current.get(COMM_SECTION)
    if not isinstance(section, dict):
        result.log(f"section {COMM_SECTION!r}: not in the current artifact, skipped")
        return
    cur = comm_plane_rows(section)
    if not cur:
        result.log(
            f"section {COMM_SECTION!r}: no per-plane rows recorded "
            "(pre-zero-copy artifact), skipped"
        )
        return

    for (dist, nodes, plane), (shm_bytes, n) in sorted(cur.items()):
        if plane != "shm" or nodes <= 1:
            continue
        pickled = cur.get((dist, nodes, "pickle"))
        if pickled is None:
            continue
        pickle_bytes, _ = pickled
        factor = pickle_bytes / max(shm_bytes, 1)
        result.compared += 1
        verdict = "ok" if factor >= min_savings else "REGRESSED"
        result.log(
            f"{COMM_SECTION} ({dist!r}, {nodes} nodes, n={n}): zero-copy wire "
            f"savings {factor:.1f}x (pickle {pickle_bytes}B / shm {shm_bytes}B) "
            f">= floor {min_savings:.1f}x -> {verdict}"
        )
        if factor < min_savings:
            result.fail(
                f"{COMM_SECTION}: ({dist!r}, {nodes} nodes): zero-copy savings "
                f"{factor:.1f}x below the {min_savings:.1f}x floor "
                f"(pickle {pickle_bytes}B vs shm {shm_bytes}B)"
            )

    base_section = baseline.get(COMM_SECTION)
    base = comm_plane_rows(base_section) if isinstance(base_section, dict) else {}
    slack = 1.1
    for key, (cur_bytes, cur_n) in sorted(cur.items()):
        dist, nodes, plane = key
        if plane != "shm" or nodes <= 1 or key not in base:
            continue
        base_bytes, base_n = base[key]
        if cur_n != base_n or base_bytes <= 0:
            continue
        ceiling = slack * base_bytes
        result.compared += 1
        verdict = "ok" if cur_bytes <= ceiling else "REGRESSED"
        result.log(
            f"{COMM_SECTION} ({dist!r}, {nodes} nodes, n={cur_n}): shm wire "
            f"{cur_bytes}B vs stored {base_bytes}B, ceiling {ceiling:.0f}B "
            f"-> {verdict}"
        )
        if cur_bytes > ceiling:
            result.fail(
                f"{COMM_SECTION}: ({dist!r}, {nodes} nodes): shm wire bytes "
                f"grew {cur_bytes}B > {ceiling:.0f}B "
                f"(stored {base_bytes}B at n={base_n})"
            )


@dataclass
class GateResult:
    """Outcome of one trajectory check: log lines, failures, compare count."""

    lines: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def log(self, line: str) -> None:
        self.lines.append(line)

    def fail(self, line: str) -> None:
        self.failures.append(line)

    def summary(self) -> str:
        if self.failures:
            head = f"{len(self.failures)} benchmark gate failure(s):"
            return "\n".join([head] + [f"  {line}" for line in self.failures])
        if not self.compared:
            return "no comparable speedup rows between the two artifacts"
        return f"all {self.compared} compared speedups within tolerance"


def _gate_section(
    result: GateResult,
    name: str,
    cur_section: Mapping[str, Any],
    base_section: Mapping[str, Any],
    *,
    tolerance: float,
    cross_size_tolerance: float,
) -> None:
    # Different core counts measure different trajectories (the
    # single-core-container caveat of ROADMAP item 1): fall back to the
    # lenient cross tolerance, as for a size mismatch.  Unknown stamps
    # (pre-stamp artifacts) compare at full strictness, as before.
    cur_cpus = machine_stamp(cur_section).get("cpu_count")
    base_cpus = machine_stamp(base_section).get("cpu_count")
    same_machine_class = (
        cur_cpus is None or base_cpus is None or cur_cpus == base_cpus
    )
    base_rows = {key: (s, n) for key, s, n in speedup_rows(base_section)}
    for key, cur_value, cur_n in speedup_rows(cur_section):
        if key not in base_rows:
            continue
        base_value, base_n = base_rows[key]
        if base_value <= 0:
            continue
        comparable = cur_n == base_n and same_machine_class
        tol = tolerance if comparable else cross_size_tolerance
        floor = tol * base_value
        result.compared += 1
        verdict = "ok" if cur_value >= floor else "REGRESSED"
        cpus_note = (
            "" if same_machine_class else f", cpus {base_cpus}->{cur_cpus}"
        )
        result.log(
            f"{name} {key}: current {cur_value:.2f}x (n={cur_n}) vs "
            f"stored {base_value:.2f}x (n={base_n}{cpus_note}), "
            f"floor {floor:.2f}x -> {verdict}"
        )
        if cur_value < floor:
            result.fail(
                f"{name}: {key}: "
                f"n={cur_n}: current {cur_value:.2f}x < floor "
                f"{floor:.2f}x (stored {base_value:.2f}x at "
                f"n={base_n}, short by {(floor - cur_value) / floor * 100:.0f}%)"
            )


def _check_speedups(
    result: GateResult,
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    tolerance: float,
    cross_size_tolerance: float,
) -> None:
    for name in SECTIONS:
        cur_section = current.get(name)
        base_section = baseline.get(name)
        if not isinstance(cur_section, dict) or not isinstance(base_section, dict):
            result.log(f"section {name!r}: missing on one side, skipped")
            continue
        _gate_section(
            result, name, cur_section, base_section,
            tolerance=tolerance, cross_size_tolerance=cross_size_tolerance,
        )


def check_trajectory(
    current_path: Path,
    baseline_path: Path,
    *,
    tolerance: float = 0.5,
    cross_size_tolerance: float = 0.25,
    min_comm_savings: float = 10.0,
    max_sample_spread: float = 2.0,
) -> GateResult:
    """Compare a fresh artifact against the committed trajectory.

    Returns a :class:`GateResult`; callers decide how to print it (the CLI
    wrapper echoes ``lines`` then ``summary()``; ``repro benchreport`` folds
    the deltas into its tables).  ``min_comm_savings`` is the floor on the
    zero-copy data plane's physical-byte savings factor over the pickle
    plane (see :func:`comm_plane_rows`).

    Besides comparing the two artifacts, the committed baseline is itself
    validated (raw-sample spreads within ``max_sample_spread``) so that a disturbed run committed
    as the trajectory fails every subsequent gate run loudly instead of
    silently lowering the floors; the current artifact's spreads only warn.
    """
    result = GateResult()
    current = load_artifact(Path(current_path))
    baseline_path = Path(baseline_path)
    if not baseline_path.exists():
        result.log(
            f"no committed baseline at {baseline_path}; skipping speedup comparison"
        )
        baseline: Dict[str, Any] = {}
    else:
        baseline = load_artifact(baseline_path)
    _check_speedups(
        result, current, baseline,
        tolerance=tolerance, cross_size_tolerance=cross_size_tolerance,
    )
    _check_comm_plane(result, current, baseline, min_comm_savings)
    _check_sample_spreads(result, current, max_sample_spread, role="current")
    if baseline:
        _check_sample_spreads(
            result, baseline, max_sample_spread, role="baseline"
        )
    return result


def check_refresh(
    proposed_path: Path,
    committed_path: Path,
    *,
    refresh_tolerance: float = 0.9,
    cross_size_tolerance: float = 0.25,
    min_comm_savings: float = 10.0,
    max_sample_spread: float = 2.0,
) -> GateResult:
    """Validate a *proposed baseline refresh* against the committed one.

    Run this (``check_speedup_trajectory.py --refresh``) before replacing
    ``benchmarks/BENCH_runtime.json``.  Two properties gate, both with hard
    failures:

    * **baseline-clean** -- the proposed artifact must satisfy everything
      demanded of a committed baseline: every raw-sample spread within
      ``max_sample_spread`` (a disturbed run must not become the floor
      generator);
    * **parity or better** -- every gated value must reach
      ``refresh_tolerance`` (default 0.9) of the committed value when both
      were measured at the same size on the same machine class, so repeated
      refreshes after slower runs cannot ratchet the regression floors
      looser.  Cross-size/cross-machine rows fall back to
      ``cross_size_tolerance`` (absolute numbers are not comparable there).

    The zero-copy comm-plane gates (savings floor, shm byte ceiling) apply
    to the proposed artifact exactly as in :func:`check_trajectory`.
    """
    result = GateResult()
    proposed = load_artifact(Path(proposed_path))
    committed_path = Path(committed_path)
    if not committed_path.exists():
        result.log(
            f"no committed baseline at {committed_path}; "
            "validating the proposed artifact's health only"
        )
        committed: Dict[str, Any] = {}
    else:
        committed = load_artifact(committed_path)
    _check_speedups(
        result, proposed, committed,
        tolerance=refresh_tolerance, cross_size_tolerance=cross_size_tolerance,
    )
    _check_comm_plane(result, proposed, committed, min_comm_savings)
    _check_sample_spreads(result, proposed, max_sample_spread, role="refresh")
    return result

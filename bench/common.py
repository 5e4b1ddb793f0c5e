"""Shared pieces of the benchmark: paths, pinning, sizes, statistics.

Nothing here imports numpy or ``repro`` at module level: :func:`pin_threads`
must run before numpy is first imported, and ``run.py`` must be able to
refuse a checkout that has no ``src/repro`` without importing anything.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: BLAS/OpenMP thread variables pinned to 1: task-level parallelism over
#: sequential kernels is the paper's PaRSEC model, and on a 2-CPU box an
#: unpinned OpenBLAS measures its own thread scheduler (see README).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The common problem of every workload.
KERNEL = "yukawa"
ALPHA = 1.0
LEAF_SIZE = 256
MAX_RANK = 60
NRHS = 16

#: Absolute accuracy gate: a residual above this is a failed operation.
RESIDUAL_LIMIT = 1e-5
#: Rows of the exact operator the residual is evaluated on (all rows when
#: n is smaller); the full product costs n^2 kernel evaluations.
RESIDUAL_ROWS = 1024

WORKLOADS = ("direct_seq", "direct_graph", "direct_formats", "serve_blocking")

#: Operation counts at ``--seconds`` = BENCHMARK.json's ``run_seconds``.
#: They are scaled linearly with ``--seconds`` and are otherwise the same on
#: every commit: run length is a count of operations, not a duration.
#: A run is a sequence of *rounds* (see README, "Rounds"): ``rounds`` of them,
#: each one iteration plus ``warm_per_round`` single-vector solves
#: (``direct_*``) or ``per_round`` requests (``serve_*``).
FULL_SIZES: Dict[str, Dict[str, Any]] = {
    "direct_seq": {"n": 8192, "rounds": 16, "warm_per_round": 40},
    "direct_graph": {"n": 8192, "rounds": 13, "warm_per_round": 40},
    "direct_formats": {
        "formats": [["blr2", 2048], ["hodlr", 2048]], "rounds": 9, "warm_per_round": 40,
    },
    "serve_blocking": {"n": 4096, "cold_keys": 12, "warmup": 20, "rounds": 9, "per_round": 40},
    "probe": {"n": 4096, "blr2_n": 2048, "hodlr_n": 1024, "reps": 3, "pairs": 4},
}
SMOKE_SIZES: Dict[str, Dict[str, Any]] = {
    "direct_seq": {"n": 512, "rounds": 2, "warm_per_round": 6},
    "direct_graph": {"n": 512, "rounds": 2, "warm_per_round": 6},
    "direct_formats": {
        "formats": [["blr2", 512], ["hodlr", 512]], "rounds": 2, "warm_per_round": 6,
    },
    "serve_blocking": {"n": 512, "cold_keys": 2, "warmup": 4, "rounds": 2, "per_round": 10},
    "probe": {"n": 512, "blr2_n": 512, "hodlr_n": 512, "reps": 2, "pairs": 2},
}
SMOKE_LEAF_SIZE = 64
SMOKE_MAX_RANK = 24

#: ``--seconds`` scales the number of rounds (never below this floor); a
#: round's own size is fixed.
MIN_ROUNDS = 3


def pin_threads(env: Dict[str, str] = None) -> Dict[str, str]:
    """Pin BLAS/OpenMP to one thread in ``env`` (default: this process)."""
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts: pinned, src on path."""
    env = pin_threads(dict(os.environ))
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parallelism() -> int:
    """Worker / node count: ``min(2, nproc - 1)``, at least 1.

    One core is left to the OS, the load generator and whatever else the
    host runs: with as many busy threads as cores, every number below
    measured the scheduler (README, "Why one core stays free").
    """
    return max(1, min(2, (os.cpu_count() or 1) - 1))


def sizes(workload: str, *, seconds: float, run_seconds: float, smoke: bool) -> Dict[str, Any]:
    """The operation counts of one run (see :data:`FULL_SIZES`)."""
    table = SMOKE_SIZES if smoke else FULL_SIZES
    out = dict(table[workload])
    out["leaf_size"] = SMOKE_LEAF_SIZE if smoke else LEAF_SIZE
    out["max_rank"] = SMOKE_MAX_RANK if smoke else MAX_RANK
    if not smoke and "rounds" in out:
        scale = float(seconds) / float(run_seconds)
        out["rounds"] = max(MIN_ROUNDS, int(round(out["rounds"] * scale)))
    return out


# -- statistics ---------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]


class Round:
    """What one round of a run measured (see README, "Rounds")."""

    __slots__ = ("phases", "latencies", "wall")

    def __init__(self, phases: Sequence[float], latencies: List[float], wall: float) -> None:
        self.phases = list(phases)       # this round's phase seconds (workload-defined)
        self.latencies = latencies       # seconds, one per warm solve / request
        self.wall = wall                 # seconds the latency samples took together


def best_phases(rounds: Sequence[Round]) -> List[float]:
    """Per phase, the fastest round: interference on a shared VM only adds time."""
    return [min(r.phases[i] for r in rounds) for i in range(len(rounds[0].phases))]


def best_round(rounds: Sequence[Round]) -> Dict[str, float]:
    """Latency percentiles and throughput, each from the round it was best in.

    Every round has its own p50, p95 and operations per second; the reported
    value is the lowest p50, the lowest p95 and the highest rate any round
    reached -- the same reading as :func:`best_phases`.
    """
    served = [r for r in rounds if r.latencies]
    per_round = min(len(r.latencies) for r in served)
    return {
        "latency_p50_ms": min(median(r.latencies) for r in served) * 1e3,
        "latency_p95_ms": min(percentile(r.latencies, 95) for r in served) * 1e3,
        "throughput_rps": max(len(r.latencies) / r.wall for r in served),
        "samples": per_round,
        "beyond_p95": per_round - math.ceil(0.95 * per_round),
    }


class Tally:
    """Operations attempted / failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def digits(rel_residual: float) -> float:
    """``-log10`` of a relative residual, floored at machine precision."""
    return -math.log10(max(float(rel_residual), 1e-17))


# -- process / system probes --------------------------------------------------
def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def shm_segments() -> List[str]:
    """Leaked data-plane segments (``BlockStore`` names them ``rps<run>-...``)."""
    return sorted(glob.glob("/dev/shm/rps*"))


def group_alive(pgid: int) -> bool:
    """True while a live (non-zombie) process of process group ``pgid`` exists.

    An exited child that init has not reaped yet still answers ``killpg``;
    it holds nothing and is not a leak, so ``/proc`` is read instead.
    """
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process went away while we looked
        state, pgrp = fields[0], int(fields[2])
        if pgrp == pgid and state not in ("Z", "X"):
            return True
    return False

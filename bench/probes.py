"""Fixed-input per-layer probes: one layer's public calls, timed from outside.

Every traced run executes the same probe suite on the same problem (HSS,
``yukawa``, the probe size of :mod:`common`), whatever the workload, so a
layer number means the same thing in every result file.  Probes that depend
on a seed take the run's seed; the ``lowrank`` inputs are fixed.

Each probe times public functions only, before the span wrappers of
:mod:`spans` are installed.  Counts (tasks, messages, bytes, entries) repeat
exactly from run to run; timings are medians over ``reps`` calls.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List

import numpy as np

from common import (
    ALPHA, KERNEL, NRHS, OUT, ROOT, THREAD_VARS, child_env, median, quartiles,
)

#: Workers / nodes of every probe.  Fixed, unlike the workloads' count: a
#: probe's task, message and byte counts are properties of the program and
#: must read the same on every host.  Probe timings carry no bound.
PROBE_WORKERS = 2


def timed(func: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    func()
    return time.perf_counter() - t0


def med_time(func: Callable[[], Any], reps: int) -> float:
    return median([timed(func) for _ in range(reps)])


def run_probes(size: Dict[str, Any], seed: int) -> Dict[str, float]:
    """Every probe metric, keyed by its ``per_layer`` name."""
    from repro.compress.hss import HSSCompressBuilder
    from repro.geometry.points import uniform_grid_2d
    from repro.kernels.assembly import KernelMatrix
    from repro.kernels.greens import kernel_by_name
    from repro.lowrank.interpolative import interpolative_rows
    from repro.lowrank.svd import compress_svd
    from repro.obs.metrics import MetricsRegistry
    from repro.pipeline.factorize import HSSULVFactorizeBuilder
    from repro.pipeline.policy import ExecutionPolicy
    from repro.pipeline.registry import get_format
    from repro.pipeline.solve import HSSULVSolveBuilder
    from repro.service.solver_service import FactorKey, SolverService

    n, reps, workers = size["n"], size["reps"], PROBE_WORKERS
    leaf, rank = size["leaf_size"], size["max_rank"]
    build_kw = {"leaf_size": leaf, "max_rank": rank, "seed": seed}
    out: Dict[str, float] = {}
    rng = np.random.default_rng(seed)
    b1 = rng.standard_normal(n)
    b16 = rng.standard_normal((n, NRHS))
    hss = get_format("hss")
    kernel = kernel_by_name(KERNEL, alpha=ALPHA)

    # -- kernels + formats: a timing KernelMatrix owned by the benchmark ----
    class TimingKernelMatrix(KernelMatrix):
        calls = 0
        entries = 0
        seconds = 0.0

        def block(self, rows, cols):
            t0 = time.perf_counter()
            blk = super().block(rows, cols)
            self.seconds += time.perf_counter() - t0
            self.calls += 1
            self.entries += blk.size
            return blk

    kmat = TimingKernelMatrix(kernel, uniform_grid_2d(n))
    t0 = time.perf_counter()
    matrix = hss.build(kmat, **build_kw)
    out["formats.build_s.hss"] = time.perf_counter() - t0
    out["kernels.block_s"] = kmat.seconds
    out["kernels.block_calls"] = kmat.calls
    out["kernels.entries"] = kmat.entries
    for fmt in ("blr2", "hodlr"):
        other = KernelMatrix(kernel, uniform_grid_2d(size[f"{fmt}_n"]))
        out[f"formats.build_s.{fmt}"] = timed(lambda: get_format(fmt).build(other, **build_kw))

    # -- lowrank: fixed inputs, independent of --seed -----------------------
    fixed = np.random.default_rng(20230807)
    wide = fixed.standard_normal((leaf, 8 * leaf))
    square = fixed.standard_normal((leaf, leaf))
    out["lowrank.id_ms"] = med_time(lambda: interpolative_rows(wide, rank=rank), 4 * reps) * 1e3
    out["lowrank.svd_ms"] = med_time(lambda: compress_svd(square, rank=rank), 4 * reps) * 1e3

    # -- compress: record vs execute of the construction graph --------------
    plain = KernelMatrix(kernel, uniform_grid_2d(n))
    deferred = ExecutionPolicy(backend="deferred")
    builder = HSSCompressBuilder(plain, policy=deferred, **build_kw)
    out["compress.record_s"] = timed(builder.record)
    out["compress.execute_s"] = timed(builder.execute)
    out["compress.tasks"] = builder.runtime.num_tasks

    # -- core: the sequential reference every graph backend is bounded by ---
    out["core.factorize_s"] = med_time(lambda: hss.factorize(matrix), reps)
    factor = hss.factorize(matrix)
    out["core.solve_ms.k1"] = med_time(lambda: factor.solve(b1), 4 * reps) * 1e3
    out["core.solve_ms.k16"] = med_time(lambda: factor.solve(b16), 4 * reps) * 1e3

    # -- pipeline: what recording a graph costs next to executing it --------
    records, tasks = [], 0
    for _ in range(reps):
        fb = HSSULVFactorizeBuilder(matrix, policy=deferred)
        records.append(timed(fb.record))
        tasks = fb.runtime.num_tasks
    out["pipeline.record_s.factorize"] = median(records)
    out["pipeline.tasks.factorize"] = tasks
    records, executes = [], []
    for _ in range(2 * reps):
        sb = HSSULVSolveBuilder(factor, b16, policy=deferred)
        records.append(timed(sb.record))
        executes.append(timed(sb.execute))
        out["pipeline.tasks.solve"] = sb.runtime.num_tasks
    out["pipeline.record_ms.solve"] = median(records) * 1e3
    out["pipeline.record_share.solve"] = median(records) / (median(records) + median(executes))

    # -- runtime: fusion, and the same recorded graph on every executor -----
    fb = HSSULVFactorizeBuilder(matrix, policy=deferred).record()
    out["runtime.fuse_ms"] = timed(lambda: fb.runtime.fuse(slots=2 * workers)) * 1e3
    out["runtime.fused_tasks"] = fb.runtime.num_tasks
    reports: Dict[str, Any] = {}
    for backend in ("deferred", "parallel", "process", "distributed"):
        policy = ExecutionPolicy(backend=backend, n_workers=workers, nodes=workers,
                                 distribution="row", trace=(backend == "parallel"))
        samples = []
        for _ in range(max(1, reps // 2)):
            fb = HSSULVFactorizeBuilder(matrix, policy=policy).record()
            t0 = time.perf_counter()
            reports[backend] = fb.execute()
            samples.append(time.perf_counter() - t0)
        out[f"runtime.execute_s.{backend}"] = median(samples)
        if backend == "parallel":
            trace = fb.runtime.last_trace.summary()
    out["runtime.dispatch_us_per_task"] = (
        (out["runtime.execute_s.deferred"] - out["core.factorize_s"]) / tasks * 1e6
    )
    busy = trace["compute"] + trace["overhead"] + trace["communication"] + trace["idle"]
    out["runtime.compute_s"] = trace["compute"]
    out["runtime.overhead_s"] = trace["overhead"]
    out["runtime.comm_s"] = trace["communication"]
    out["runtime.idle_s"] = trace["idle"]
    out["runtime.idle_fraction"] = trace["idle"] / busy if busy else 0.0

    # -- runtime.distributed: the ledger of the run above + the fork floor --
    report = reports["distributed"]
    out["dist.messages"] = report.ledger.num_messages
    out["dist.logical_bytes"] = report.ledger.total_bytes
    out["dist.physical_bytes"] = report.ledger.total_payload_bytes
    out["dist.mapped_bytes"] = report.ledger.total_mapped_bytes
    out["dist.segments_swept"] = report.segments_swept
    dist = ExecutionPolicy(backend="distributed", nodes=workers, distribution="row")
    out["dist.fixed_overhead_ms"] = med_time(
        lambda: hss.solve_dtd(factor, b1, policy=dist), reps) * 1e3

    # -- solve: the task-graph solve, sequentially executed -----------------
    out["solve.graph_ms.k1"] = med_time(lambda: hss.solve_dtd(factor, b1, policy=deferred), 2 * reps) * 1e3
    out["solve.graph_ms.k16"] = med_time(lambda: hss.solve_dtd(factor, b16, policy=deferred), 2 * reps) * 1e3

    # -- service: cache miss / hit and the batched flush, offline -----------
    problem = {"kernel": KERNEL, "n": n, "leaf_size": leaf, "max_rank": rank, "alpha": ALPHA}
    key = FactorKey.make(KERNEL, n, leaf_size=leaf, max_rank=rank, alpha=ALPHA)
    service = SolverService(backend="parallel", n_workers=workers)
    out["service.miss_s"] = timed(lambda: service.solver_for(key))
    out["service.hit_us"] = med_time(lambda: service.solver_for(key), 20 * reps) * 1e6

    def flush_of(batch: int) -> float:
        cols = rng.standard_normal((n, batch))
        t0 = time.perf_counter()
        for j in range(batch):
            service.submit(cols[:, j], **problem)
        service.flush()
        return time.perf_counter() - t0

    out["service.flush_ms.b1"] = median([flush_of(1) for _ in range(2 * reps)]) * 1e3
    out["service.flush_ms.b32"] = median([flush_of(32) for _ in range(reps)]) * 1e3

    # -- service.persistence ------------------------------------------------
    OUT.mkdir(parents=True, exist_ok=True)
    snapshot = OUT / f"probe-cache-{os.getpid()}.bin"
    try:
        out["persistence.save_s"] = timed(lambda: service.save_cache(snapshot))
        out["persistence.snapshot_mb"] = snapshot.stat().st_size / 2**20
        fresh = SolverService(backend="parallel", n_workers=workers)
        out["persistence.load_s"] = timed(lambda: fresh.load_cache(snapshot))
    finally:
        snapshot.unlink(missing_ok=True)

    # -- obs: program tracing / metrics on vs off, interleaved pairs --------
    solver = service.solver_for(key)
    run_kw = {"use_runtime": "parallel", "n_workers": workers, "force": True}

    def paired_overhead(extra: Callable[[], Dict[str, Any]]) -> List[float]:
        deltas = []
        for pair in range(size["pairs"]):
            order = (False, True) if pair % 2 == 0 else (True, False)
            seconds = {}
            for on in order:
                kw = dict(run_kw, **(extra() if on else {}))
                seconds[on] = timed(lambda: solver.factorize(**kw))
            deltas.append((seconds[True] - seconds[False]) / seconds[False])
        return deltas

    for name, extra in (("trace", lambda: {"trace": True}),
                        ("metrics", lambda: {"metrics": MetricsRegistry()})):
        deltas = paired_overhead(extra)
        q1, _, q3 = quartiles(deltas)
        out[f"obs.{name}_overhead_fraction"] = median(deltas)
        out[f"obs.{name}_overhead_iqr"] = q3 - q1

    # -- env: what leaving BLAS unpinned costs on this machine --------------
    out["env.unpinned_slowdown"] = unpinned_factorize_s(size, seed) / out["core.factorize_s"]
    return out


def unpinned_factorize_s(size: Dict[str, Any], seed: int) -> float:
    """Median sequential factorize in a child whose BLAS threads are *not* pinned."""
    env = child_env()
    for var in THREAD_VARS:
        env.pop(var, None)
    cmd = [sys.executable, __file__, str(size["n"]), str(size["leaf_size"]),
           str(size["max_rank"]), str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _unpinned_child(argv: List[str]) -> None:
    n, leaf, rank, seed = (int(a) for a in argv)
    from repro.api import StructuredSolver

    solver = StructuredSolver.from_kernel(
        KERNEL, n=n, leaf_size=leaf, max_rank=rank, seed=seed, alpha=ALPHA)
    print(median([timed(lambda: solver.factorize(force=True)) for _ in range(3)]))


if __name__ == "__main__":
    _unpinned_child(sys.argv[1:])

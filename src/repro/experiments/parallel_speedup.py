"""Sequential vs parallel execution of the recorded ULV task graphs.

The paper's central claim is that the ULV factorization expressed as
``insert_task`` calls runs correctly under out-of-order parallel execution.
This driver measures the actual wall time of the same task graph executed
sequentially and in parallel, for the HSS-ULV, BLR2-ULV and HODLR-ULV task
graphs, and verifies the parallel factors are bit-identical to the sequential
ones.  Three parallel backends are supported:

``thread``
    The recorded graph is executed out-of-order on an ``n_workers``-thread
    pool (:meth:`~repro.runtime.dtd.DTDRuntime.run_parallel`); timings cover
    pure execution of an already-recorded graph (recording is identical on
    both sides and excluded).
``process`` / ``distributed``
    The factorization runs on the owner-computes multi-process backend with
    ``n_workers`` forked worker processes
    (:meth:`~repro.runtime.dtd.DTDRuntime.run_distributed`; ``process`` is
    the same rank loop with the ranks counted as workers rather than nodes);
    timings cover recording plus execution for both sides (the forked
    workers' address spaces need the recorded closures, so recording cannot
    be hoisted out), and the row also reports the measured communication
    volume.

Both sides of every comparison use best-of-``repeats`` warmed timings over
fresh graphs (:func:`repro.experiments.timing.best_of`); the sequential
baseline is always the plain in-order execution of the *unfused* graph, the
reference the paper's speedups are defined against.  ``fusion`` turns on
record-time task fusion/batching of the parallel side.

Used by ``python -m repro speedup [--backend thread|process|distributed]``
and by ``benchmarks/test_runtime_parallel_speedup.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.blr2_ulv import BLR2ULVFactor
from repro.core.hodlr_ulv import hodlr_to_hss
from repro.experiments.timing import best_of
from repro.formats.blr2 import build_blr2
from repro.formats.hodlr import build_hodlr
from repro.formats.hss import build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
from repro.pipeline.factorize import HSSULVFactorizeBuilder, LeafULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format

__all__ = ["SpeedupRow", "run_parallel_speedup", "format_parallel_speedup"]

_BACKENDS = ("thread", "process", "distributed")


def _hss_builder(hss, policy):
    return HSSULVFactorizeBuilder(hss, policy=policy)


def _blr2_builder(blr2, policy):
    return LeafULVFactorizeBuilder(blr2, BLR2ULVFactor(blr2=blr2), policy=policy)


def _hodlr_builder(hodlr, policy):
    # HODLR's factorize_dtd: the HSS-ULV graph of its exact HSS form.
    return _hss_builder(hodlr_to_hss(hodlr), policy)


@dataclass
class SpeedupRow:
    """One algorithm's sequential-vs-parallel measurement.

    ``n_workers`` is the concurrency the parallel run *actually used* (the
    executor spawns at most one worker per task); ``requested_workers`` is
    what the caller asked for.  ``nodes`` is the forked-process count of the
    distributed backend (1 for the shared-memory backends).
    ``seq_samples`` / ``par_samples`` are the per-repeat raw wall times
    behind the best-of ``seq_seconds`` / ``par_seconds``, in repeat order.
    """

    algorithm: str
    format: str
    n: int
    num_tasks: int
    n_workers: int
    seq_seconds: float
    par_seconds: float
    max_abs_diff: float
    backend: str = "thread"
    comm_bytes: int = 0
    requested_workers: int = 0
    nodes: int = 1
    fusion: bool = False
    repeats: int = 1
    seq_samples: List[float] = field(default_factory=list)
    par_samples: List[float] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.seq_seconds / self.par_seconds if self.par_seconds > 0 else float("inf")


def run_parallel_speedup(
    *,
    n: int = 2048,
    kernel: str = "yukawa",
    leaf_size: int = 256,
    max_rank: int = 60,
    n_workers: int = 4,
    backend: str = "thread",
    fusion: bool = False,
    repeats: int = 3,
    seed: int = 0,
) -> List[SpeedupRow]:
    """Measure sequential vs parallel task-graph execution for every format.

    ``backend`` selects the parallel execution substrate (``"thread"``,
    ``"process"`` or ``"distributed"``); ``fusion`` the record-time task
    coarsening of the parallel side; ``repeats`` the best-of-N timing
    protocol applied to both sides.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
    slots = 2 * max(1, n_workers)
    points = uniform_grid_2d(n)
    kmat = KernelMatrix(kernel_by_name(kernel), points)
    b = np.random.default_rng(seed).standard_normal(n)

    algorithms = (
        ("HSS-ULV", "hss", build_hss, _hss_builder),
        ("BLR2-ULV", "blr2", build_blr2, _blr2_builder),
        ("HODLR-ULV", "hodlr", build_hodlr, _hodlr_builder),
    )
    deferred = ExecutionPolicy(backend="deferred")
    rows: List[SpeedupRow] = []
    for name, fmt, build, factorize_builder in algorithms:
        matrix = build(kmat, leaf_size=leaf_size, max_rank=max_rank)
        comm_bytes = 0
        nodes = 1

        if backend == "thread":
            # Record each graph without executing, so the timings cover pure
            # execution (recording cost is identical on both sides); every
            # repeat records afresh because an executed graph cannot run again.
            def record(*, fuse: bool):
                builder = factorize_builder(matrix, deferred).record()
                if fuse:
                    builder.runtime.fuse(slots=slots)
                return builder.result(), builder.runtime

            seq_timing = best_of(
                lambda state: (state[1].run(), state)[1],
                repeats=repeats,
                setup=lambda: record(fuse=False),
            )
            t_seq, (seq_factor, _) = seq_timing
            par_timing = best_of(
                lambda state: (state[1].run_parallel(n_workers=n_workers), state)[1],
                repeats=repeats,
                setup=lambda: record(fuse=fusion),
            )
            t_par, (par_factor, par_rt) = par_timing
            actual_workers = par_rt.last_parallel_report.num_workers
        else:
            # Forked ranks inherit the recorded closures, so recording
            # cannot be hoisted out of the timed region; both sides time the
            # full record+execute path to compare like with like.
            def seq_full():
                factor, _ = get_format(fmt).factorize_dtd(matrix, policy=deferred)
                return factor

            def par_full():
                policy = ExecutionPolicy(
                    backend=backend,
                    n_workers=n_workers,
                    nodes=n_workers if backend == "distributed" else 1,
                    fusion=fusion,
                )
                return get_format(fmt).factorize_dtd(matrix, policy=policy)

            seq_timing = best_of(seq_full, repeats=repeats)
            t_seq, seq_factor = seq_timing
            par_timing = best_of(par_full, repeats=repeats)
            t_par, (par_factor, par_rt) = par_timing
            comm_bytes = par_rt.last_distributed_report.ledger.total_bytes
            if backend == "process":
                actual_workers = n_workers  # one forked rank per worker
            else:
                nodes = n_workers
                actual_workers = 1  # one in-order executor per forked node

        diff = float(np.max(np.abs(par_factor.solve(b) - seq_factor.solve(b))))
        rows.append(
            SpeedupRow(
                algorithm=name,
                format=fmt,
                n=n,
                num_tasks=par_rt.num_tasks,
                n_workers=actual_workers,
                seq_seconds=t_seq,
                par_seconds=t_par,
                max_abs_diff=diff,
                backend=backend,
                comm_bytes=comm_bytes,
                requested_workers=n_workers,
                nodes=nodes,
                fusion=fusion,
                repeats=repeats,
                seq_samples=seq_timing.samples,
                par_samples=par_timing.samples,
            )
        )
    return rows


def format_parallel_speedup(rows: List[SpeedupRow]) -> str:
    """Format the measurement as a fixed-width table."""
    lines = [
        f"{'algorithm':<10} {'backend':<11} {'N':>7} {'tasks':>6} {'workers':>7} "
        f"{'nodes':>5} {'fused':>5} {'seq [s]':>9} {'par [s]':>9} {'speedup':>8} "
        f"{'comm [B]':>9} {'max diff':>10}"
    ]
    for r in rows:
        lines.append(
            f"{r.algorithm:<10} {r.backend:<11} {r.n:>7} {r.num_tasks:>6} "
            f"{r.n_workers:>7} {r.nodes:>5} {'yes' if r.fusion else 'no':>5} "
            f"{r.seq_seconds:>9.3f} {r.par_seconds:>9.3f} {r.speedup:>8.2f} "
            f"{r.comm_bytes:>9} {r.max_abs_diff:>10.2e}"
        )
    return "\n".join(lines)

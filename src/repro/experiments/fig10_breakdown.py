"""Fig. 10: per-worker performance breakdown of the Yukawa weak-scaling runs.

For every point of the Fig. 9b (Yukawa) weak-scaling series the paper reports
the average per-worker time split into

* LORAPO      -- COMPUTE TASK TIME vs RUNTIME OVERHEAD (PaRSEC instrumentation),
* STRUMPACK   -- COMPUTE TIME vs MPI TIME (mpiP),
* HATRIX-DTD  -- COMPUTE TASK TIME vs RUNTIME OVERHEAD.

The simulator tracks exactly these categories (see
:class:`repro.runtime.trace.SimulationResult`).

:func:`run_fig10_measured` is the measured counterpart: it executes a real
traced factorization on the requested runtime backends
(:class:`repro.runtime.tracing.ExecutionTrace`) and emits each point twice --
once with the *measured* per-worker breakdown and once with the simulator's
prediction for the same recorded graph -- so the Fig. 10 categories can be
cross-validated against reality instead of only against the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.fig9_weak_scaling import (
    simulate_hatrix,
    simulate_lorapo,
    simulate_strumpack,
)
from repro.experiments.workloads import (
    KERNEL_RANKS,
    hss_weak_scaling_schedule,
    lorapo_weak_scaling_schedule,
)
from repro.runtime.machine import MachineConfig

__all__ = [
    "BreakdownRow",
    "MeasuredBreakdownRow",
    "run_fig10",
    "format_fig10",
    "run_fig10_measured",
    "format_fig10_measured",
]


@dataclass
class BreakdownRow:
    """Per-worker time breakdown for one (code, nodes) point."""

    code: str
    nodes: int
    n: int
    compute_time: float
    overhead_time: float
    overhead_label: str
    makespan: float


def run_fig10(
    *,
    kernel: str = "yukawa",
    base_n: int = 4096,
    max_nodes: int = 128,
    leaf_size: int = 512,
    lorapo_leaf: int = 2048,
    lorapo_max_nodes: int = 512,
    machine: Optional[MachineConfig] = None,
) -> List[BreakdownRow]:
    """Run the Fig. 10 breakdown for the Yukawa kernel (or any other kernel)."""
    rank = KERNEL_RANKS.get(kernel, 100)
    rows: List[BreakdownRow] = []

    for point in lorapo_weak_scaling_schedule(base_n=base_n, max_nodes=lorapo_max_nodes):
        res = simulate_lorapo(
            point.n,
            point.nodes,
            leaf_size=min(lorapo_leaf, point.n // 2),
            rank=min(256, lorapo_leaf // 8),
            machine=machine,
        )
        rows.append(
            BreakdownRow(
                code="LORAPO",
                nodes=point.nodes,
                n=point.n,
                compute_time=res.compute_task_time,
                overhead_time=res.runtime_overhead,
                overhead_label="RUNTIME OVERHEAD",
                makespan=res.makespan,
            )
        )

    for point in hss_weak_scaling_schedule(base_n=base_n, max_nodes=max_nodes):
        res = simulate_strumpack(point.n, point.nodes, leaf_size=leaf_size, rank=rank, machine=machine)
        rows.append(
            BreakdownRow(
                code="STRUMPACK",
                nodes=point.nodes,
                n=point.n,
                compute_time=res.compute_time,
                overhead_time=res.mpi_time,
                overhead_label="MPI TIME",
                makespan=res.makespan,
            )
        )
        res = simulate_hatrix(point.n, point.nodes, leaf_size=leaf_size, rank=rank, machine=machine)
        rows.append(
            BreakdownRow(
                code="HATRIX-DTD",
                nodes=point.nodes,
                n=point.n,
                compute_time=res.compute_task_time,
                overhead_time=res.runtime_overhead,
                overhead_label="RUNTIME OVERHEAD",
                makespan=res.makespan,
            )
        )
    return rows


@dataclass
class MeasuredBreakdownRow:
    """One breakdown point of a real traced execution (or its simulation).

    Each (backend, format) pair of :func:`run_fig10_measured` produces two of
    these: ``source="measured"`` with the per-worker averages derived from the
    recorded :class:`~repro.runtime.tracing.ExecutionTrace`, and
    ``source="simulated"`` with the machine model's prediction for the same
    recorded graph.  All time columns are average per-worker seconds except
    ``makespan`` (wall clock).
    """

    backend: str
    source: str
    format: str
    n: int
    n_workers: int
    nodes: int
    num_tasks: int
    compute_time: float
    overhead_time: float
    comm_time: float
    idle_time: float
    makespan: float


def run_fig10_measured(
    *,
    n: int = 512,
    kernel: str = "yukawa",
    leaf_size: int = 128,
    max_rank: int = 30,
    fmt: str = "hss",
    backends: Sequence[str] = ("deferred", "parallel", "process", "distributed"),
    n_workers: int = 4,
    nodes: int = 2,
    seed: int = 0,
    machine: Optional[MachineConfig] = None,
) -> List[MeasuredBreakdownRow]:
    """Measured Fig. 10 breakdowns from real traced executions.

    Builds the structured matrix once, then factorizes it on every requested
    backend with tracing enabled and derives the per-worker
    compute/overhead/communication/idle averages from the recorded
    :class:`~repro.runtime.tracing.ExecutionTrace`.  Each measured row is
    paired with the simulator's prediction for the *same recorded graph* on a
    machine shaped like the real run (same node and worker counts), so the
    model can be validated category by category.
    """
    from repro.geometry.points import uniform_grid_2d
    from repro.kernels.assembly import KernelMatrix
    from repro.kernels.greens import kernel_by_name
    from repro.pipeline.policy import ExecutionPolicy
    from repro.pipeline.registry import get_format
    from repro.runtime.machine import laptop_like
    from repro.runtime.simulator import simulate

    kmat = KernelMatrix(kernel_by_name(kernel), uniform_grid_2d(n))
    spec = get_format(fmt)
    matrix = spec.build(
        kmat, leaf_size=leaf_size, max_rank=max_rank, tol=None, method=None, seed=seed
    )

    rows: List[MeasuredBreakdownRow] = []
    for backend in backends:
        policy = ExecutionPolicy(
            backend=backend,
            n_workers=n_workers,
            nodes=nodes if backend == "distributed" else 1,
            trace=True,
        )
        _, rt = spec.factorize_dtd(matrix, policy=policy)
        trace = rt.last_trace
        if trace is None:
            raise RuntimeError(f"backend {backend!r} produced no execution trace")

        workers = max(trace.n_workers, 1)
        totals = trace.totals()
        rows.append(
            MeasuredBreakdownRow(
                backend=backend,
                source="measured",
                format=fmt,
                n=n,
                n_workers=trace.n_workers,
                nodes=policy.ranks,
                num_tasks=len(trace.spans),
                compute_time=totals.compute / workers,
                overhead_time=totals.overhead / workers,
                comm_time=totals.communication / workers,
                idle_time=totals.idle / workers,
                makespan=trace.wall_time,
            )
        )

        # Simulate the same recorded graph on a machine shaped like the real
        # run: the forked backends run one in-order executor per rank, the
        # shared-memory backends one node with n_workers cores.
        if machine is not None:
            sim_machine = machine
        elif backend in ("distributed", "process"):
            sim_machine = laptop_like(nodes=policy.ranks, cores_per_node=1)
        else:
            sim_machine = laptop_like(nodes=1, cores_per_node=workers)
        res = simulate(rt.graph, sim_machine, policy="async", record_workers=True)
        sim_workers = max(res.workers, 1)
        sim_idle = sum(b.idle for b in res.per_worker.values()) / sim_workers
        rows.append(
            MeasuredBreakdownRow(
                backend=backend,
                source="simulated",
                format=fmt,
                n=n,
                n_workers=res.workers,
                nodes=sim_machine.nodes,
                num_tasks=res.num_tasks,
                compute_time=res.compute_task_time,
                overhead_time=res.total_runtime_overhead / sim_workers,
                comm_time=res.total_communication / sim_workers,
                idle_time=sim_idle,
                makespan=res.makespan,
            )
        )
    return rows


def format_fig10_measured(rows: List[MeasuredBreakdownRow]) -> str:
    """Render measured and simulated breakdowns side by side per backend."""
    lines = [
        f"{'backend':<12} {'source':<10} {'tasks':>6} {'workers':>7} "
        f"{'compute [s]':>12} {'overhead [s]':>13} {'comm [s]':>10} "
        f"{'idle [s]':>10} {'makespan [s]':>13}"
    ]
    for r in rows:
        lines.append(
            f"{r.backend:<12} {r.source:<10} {r.num_tasks:>6} {r.n_workers:>7} "
            f"{r.compute_time:>12.4f} {r.overhead_time:>13.4f} "
            f"{r.comm_time:>10.4f} {r.idle_time:>10.4f} {r.makespan:>13.4f}"
        )
    return "\n".join(lines)


def format_fig10(rows: List[BreakdownRow]) -> str:
    """Render the three breakdown panels of Fig. 10."""
    lines: List[str] = []
    for code in ("LORAPO", "STRUMPACK", "HATRIX-DTD"):
        subset = [r for r in rows if r.code == code]
        if not subset:
            continue
        label = subset[0].overhead_label
        lines.append(f"== {code} ==")
        lines.append(f"{'Nodes':<8}{'N':<10}{'COMPUTE (s)':<14}{label + ' (s)':<22}")
        lines.append("-" * 54)
        for r in sorted(subset, key=lambda r: r.nodes):
            lines.append(f"{r.nodes:<8}{r.n:<10}{r.compute_time:<14.4e}{r.overhead_time:<22.4e}")
        lines.append("")
    return "\n".join(lines)

"""Measured vs simulated weak scaling of the distributed HSS-ULV factorization.

For each node count ``P`` the problem size grows proportionally
(``n = base_n * P``, the paper's weak-scaling protocol, Fig. 9) and the *same*
recorded task graph is both

* executed for real on the multi-process distributed backend (``P`` forked
  worker processes, owner-computes placement, explicit data transfers), and
* replayed through the discrete-event machine simulator,

so the measured makespan and communication volume can be cross-validated
against the model.  Each configuration runs under every requested distribution
strategy (row-cyclic vs block-cyclic), exposing how placement alone changes
the communication volume of an identical DAG, and under every requested data
plane (zero-copy ``"shm"`` vs legacy ``"pickle"``), exposing the physical
byte savings of the shared-memory plane on an identical transfer plan: the
*logical* volume of a row is invariant across planes, the *physical* (wire)
bytes collapse to descriptor size under ``"shm"``.

Used by ``python -m repro weakscale`` and
``benchmarks/test_runtime_distributed_scaling.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distribution.strategies import strategy_by_name
from repro.formats.hss import build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format
from repro.runtime.machine import MachineConfig, laptop_like
from repro.runtime.simulator import simulate

__all__ = [
    "DistributedWeakScalingRow",
    "run_distributed_weak_scaling",
    "format_distributed_weak_scaling",
    "comm_plane_savings",
]


@dataclass
class DistributedWeakScalingRow:
    """One (strategy, node-count, data-plane) configuration: measured vs modelled."""

    distribution: str
    nodes: int
    n: int
    num_tasks: int
    measured_seconds: float
    simulated_makespan: float
    measured_messages: int
    measured_bytes: int
    modeled_bytes: float
    data_plane: str = "shm"
    physical_bytes: int = 0
    mapped_bytes: int = 0

    @property
    def comm_bytes_match(self) -> bool:
        """Measured *logical* volume agrees with the graph's static model.

        Holds on every data plane: the plane changes the wire representation
        (``physical_bytes``), never the modelled volume (``measured_bytes``).
        """
        return abs(self.measured_bytes - self.modeled_bytes) < 0.5


def run_distributed_weak_scaling(
    *,
    base_n: int = 512,
    node_counts: Sequence[int] = (1, 2, 4),
    kernel: str = "yukawa",
    leaf_size: int = 64,
    max_rank: int = 24,
    distributions: Sequence[str] = ("row", "block"),
    data_planes: Sequence[str] = ("shm", "pickle"),
    machine: Optional[MachineConfig] = None,
) -> List[DistributedWeakScalingRow]:
    """Run the weak-scaling sweep on the real backend and the simulator.

    ``machine`` defaults to a one-core-per-node laptop preset so the simulated
    topology matches the real backend (one single-threaded worker process per
    node).  Each (distribution, nodes) configuration builds its HSS matrix
    once and factorizes once per requested data plane, so the per-plane rows
    differ only in the wire representation of an identical transfer plan.
    """
    rows: List[DistributedWeakScalingRow] = []
    for dist_name in distributions:
        for nodes in node_counts:
            n = base_n * nodes
            points = uniform_grid_2d(n)
            kmat = KernelMatrix(kernel_by_name(kernel), points)
            hss = build_hss(kmat, leaf_size=leaf_size, max_rank=max_rank)
            strategy = strategy_by_name(dist_name, nodes, max_level=hss.max_level)

            for plane in data_planes:
                t0 = time.perf_counter()
                policy = ExecutionPolicy(
                    backend="distributed", nodes=nodes,
                    distribution=strategy, data_plane=plane,
                )
                _, rt = get_format("hss").factorize_dtd(hss, policy=policy)
                measured = time.perf_counter() - t0
                report = rt.last_distributed_report

                mach = machine if machine is not None else laptop_like(nodes, cores_per_node=1)
                sim = simulate(
                    rt.graph, mach.with_nodes(nodes), policy="async", distribution=strategy
                )

                rows.append(
                    DistributedWeakScalingRow(
                        distribution=dist_name,
                        nodes=nodes,
                        n=n,
                        num_tasks=rt.num_tasks,
                        measured_seconds=measured,
                        simulated_makespan=sim.makespan,
                        measured_messages=report.ledger.num_messages,
                        measured_bytes=report.ledger.total_bytes,
                        modeled_bytes=rt.graph.communication_bytes(),
                        data_plane=report.data_plane,
                        physical_bytes=report.ledger.total_payload_bytes,
                        mapped_bytes=report.ledger.total_mapped_bytes,
                    )
                )
    return rows


def comm_plane_savings(
    rows: Sequence[DistributedWeakScalingRow],
) -> Dict[Tuple[str, int], float]:
    """Physical-byte savings factor of the shm plane per (distribution, nodes).

    ``pickle_physical / shm_physical`` for every multi-node configuration
    measured under both planes -- the quantity the weak-scaling benchmark
    asserts stays >= its floor.  Single-node rows (no transfers) are skipped.
    """
    physical: Dict[Tuple[str, int, str], int] = {}
    for r in rows:
        physical[(r.distribution, r.nodes, r.data_plane)] = r.physical_bytes
    savings: Dict[Tuple[str, int], float] = {}
    for (dist, nodes, plane), nbytes in physical.items():
        if plane != "shm" or nodes <= 1:
            continue
        pickle_bytes = physical.get((dist, nodes, "pickle"))
        if pickle_bytes is None:
            continue
        savings[(dist, nodes)] = pickle_bytes / max(nbytes, 1)
    return savings


def format_distributed_weak_scaling(rows: List[DistributedWeakScalingRow]) -> str:
    """Format the sweep as a fixed-width table."""
    if not rows:
        return "no weak-scaling configurations ran (check --max-nodes / node_counts)"
    lines = [
        f"{'dist':<6} {'nodes':>5} {'N':>7} {'plane':<6} {'tasks':>6} "
        f"{'measured [s]':>12} {'simulated [s]':>13} {'msgs':>5} "
        f"{'comm [B]':>10} {'wire [B]':>10} {'shm [B]':>10}"
    ]
    for r in rows:
        lines.append(
            f"{r.distribution:<6} {r.nodes:>5} {r.n:>7} {r.data_plane:<6} "
            f"{r.num_tasks:>6} {r.measured_seconds:>12.3f} "
            f"{r.simulated_makespan:>13.3e} {r.measured_messages:>5} "
            f"{r.measured_bytes:>10} {r.physical_bytes:>10} {r.mapped_bytes:>10}"
        )
    mismatched = [r for r in rows if not r.comm_bytes_match]
    lines.append(
        "communication volume: measured == static model (all planes)"
        if not mismatched
        else f"WARNING: {len(mismatched)} row(s) disagree with the static comm model"
    )
    savings = comm_plane_savings(rows)
    for (dist, nodes), factor in sorted(savings.items()):
        lines.append(
            f"zero-copy wire savings {dist}/{nodes} nodes: {factor:.1f}x "
            "(pickle physical / shm physical)"
        )
    return "\n".join(lines)

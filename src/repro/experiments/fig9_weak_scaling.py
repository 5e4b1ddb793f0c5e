"""Fig. 9: weak scaling of factorization time for the three kernels.

HATRIX-DTD and STRUMPACK factor the *same* HSS structure; the difference is
asynchronous (row-cyclic) versus fork-join (block-cyclic) distributed
execution.  LORAPO runs the BLR tile Cholesky with the asynchronous runtime.
Problem sizes follow the paper's schedules (see
:mod:`repro.experiments.workloads`); factorization time comes from replaying
the recorded task graphs on the Fugaku-like machine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.lorapo_like import build_blr_cholesky_taskgraph
from repro.baselines.strumpack_like import build_strumpack_taskgraph
from repro.experiments.workloads import (
    KERNEL_RANKS,
    WeakScalingPoint,
    hss_weak_scaling_schedule,
    lorapo_weak_scaling_schedule,
)
from repro.formats.hss import HSSStructure
from repro.pipeline.factorize import build_hss_ulv_taskgraph
from repro.runtime.machine import MachineConfig, fugaku_like
from repro.runtime.simulator import simulate
from repro.runtime.trace import SimulationResult

__all__ = ["WeakScalingResult", "run_fig9", "format_fig9"]


@dataclass
class WeakScalingResult:
    """One simulated weak-scaling measurement."""

    code: str
    kernel: str
    nodes: int
    n: int
    time: float
    result: SimulationResult


def simulate_hatrix(
    n: int, nodes: int, *, leaf_size: int, rank: int, machine: Optional[MachineConfig] = None
) -> SimulationResult:
    """Simulate HATRIX-DTD (HSS-ULV, asynchronous, row-cyclic) for one configuration."""
    machine = machine if machine is not None else fugaku_like(nodes)
    structure = HSSStructure.synthetic(n, leaf_size, rank)
    graph = build_hss_ulv_taskgraph(structure, nodes=nodes).graph
    return simulate(graph, machine.with_nodes(nodes), policy="async")


def simulate_strumpack(
    n: int, nodes: int, *, leaf_size: int, rank: int, machine: Optional[MachineConfig] = None
) -> SimulationResult:
    """Simulate STRUMPACK (HSS-ULV, fork-join, block-cyclic) for one configuration."""
    machine = machine if machine is not None else fugaku_like(nodes)
    structure = HSSStructure.synthetic(n, leaf_size, rank)
    graph = build_strumpack_taskgraph(structure, nodes=nodes).graph
    return simulate(graph, machine.with_nodes(nodes), policy="forkjoin")


def simulate_lorapo(
    n: int,
    nodes: int,
    *,
    leaf_size: int = 2048,
    rank: int = 256,
    machine: Optional[MachineConfig] = None,
) -> SimulationResult:
    """Simulate LORAPO (BLR tile Cholesky, asynchronous, block-cyclic).

    ``rank`` is the *effective* tile rank: LORAPO compresses adaptively to a
    1e-8 tolerance under its max-rank cap, so the tiles it actually computes
    with are much smaller than the cap (the paper's cap is half the leaf
    size).
    """
    machine = machine if machine is not None else fugaku_like(nodes)
    graph = build_blr_cholesky_taskgraph(n, leaf_size, rank, nodes=nodes).graph
    return simulate(graph, machine.with_nodes(nodes), policy="async")


def run_fig9(
    *,
    kernels: Sequence[str] = ("laplace2d", "yukawa", "matern"),
    base_n: int = 4096,
    max_nodes: int = 128,
    leaf_size: int = 512,
    lorapo_leaf: int = 2048,
    lorapo_max_nodes: int = 512,
    machine: Optional[MachineConfig] = None,
) -> List[WeakScalingResult]:
    """Run the weak-scaling study of Fig. 9 for all kernels and all three codes."""
    results: List[WeakScalingResult] = []
    hss_points = hss_weak_scaling_schedule(base_n=base_n, max_nodes=max_nodes)
    lorapo_points = lorapo_weak_scaling_schedule(base_n=base_n, max_nodes=lorapo_max_nodes)

    for kernel in kernels:
        rank = KERNEL_RANKS.get(kernel, 100)
        for point in hss_points:
            res = simulate_hatrix(point.n, point.nodes, leaf_size=leaf_size, rank=rank, machine=machine)
            results.append(WeakScalingResult("HATRIX-DTD", kernel, point.nodes, point.n, res.makespan, res))
            res = simulate_strumpack(point.n, point.nodes, leaf_size=leaf_size, rank=rank, machine=machine)
            results.append(WeakScalingResult("STRUMPACK", kernel, point.nodes, point.n, res.makespan, res))
        for point in lorapo_points:
            res = simulate_lorapo(
                point.n, point.nodes, leaf_size=min(lorapo_leaf, point.n // 2), rank=min(256, lorapo_leaf // 8),
                machine=machine,
            )
            results.append(WeakScalingResult("LORAPO", kernel, point.nodes, point.n, res.makespan, res))
    return results


def format_fig9(results: List[WeakScalingResult]) -> str:
    """Render one weak-scaling series per (kernel, code), like the Fig. 9 panels."""
    lines: List[str] = []
    kernels = sorted({r.kernel for r in results})
    for kernel in kernels:
        lines.append(f"== {kernel} ==")
        lines.append(f"{'Code':<12}{'Nodes':<8}{'N':<10}{'Time (s)':<12}")
        lines.append("-" * 42)
        for r in sorted(
            (r for r in results if r.kernel == kernel), key=lambda r: (r.code, r.nodes)
        ):
            lines.append(f"{r.code:<12}{r.nodes:<8}{r.n:<10}{r.time:<12.4f}")
        lines.append("")
    return "\n".join(lines)

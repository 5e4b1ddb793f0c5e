#!/usr/bin/env python3
"""The Fig. 6 DAG: a 3x3 tile Cholesky expressed as runtime tasks.

Demonstrates the DTD programming model directly: declare data handles, insert
POTRF/TRSM/SYRK/GEMM tasks with READ/RW access modes, inspect the inferred
dependency DAG (the one drawn in Fig. 6 of the paper), execute it both
sequentially and with a thread pool, and finally replay it on the simulated
distributed machine with asynchronous vs fork-join scheduling.

Run:  python examples/runtime_taskgraph_demo.py
"""

import numpy as np

from repro.baselines.dense_cholesky import tile_cholesky_dtd
from repro.formats.block_dense import BlockDenseMatrix
from repro.formats.hss import build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import Yukawa
from repro.pipeline.factorize import HSSULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format
from repro.runtime.executor import execute_graph
from repro.runtime.machine import fugaku_like
from repro.runtime.simulator import simulate


def fig6_dag() -> None:
    print("=== Fig. 6: 3x3 tile Cholesky as a task DAG ===")
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    a = a @ a.T + 96 * np.eye(96)
    factor, runtime = tile_cholesky_dtd(BlockDenseMatrix(a, 32), nodes=2)
    graph = runtime.graph

    print(f"tasks: {graph.num_tasks}, edges: {graph.num_edges}")
    for task in graph.tasks:
        deps = [graph.task(p).name for p in sorted(graph.predecessors(task.tid))]
        print(f"  {task.name:<12} kind={task.kind:<6} depends on {deps if deps else '-'}")
    err = np.linalg.norm(factor.to_dense() @ factor.to_dense().T - a) / np.linalg.norm(a)
    print(f"factorization residual: {err:.2e}")


def hss_ulv_tasks() -> None:
    print("\n=== HSS-ULV as runtime tasks (Fig. 8) ===")
    points = uniform_grid_2d(1024)
    kmat = KernelMatrix(Yukawa(), points)
    hss = build_hss(kmat, leaf_size=128, max_rank=40)
    factor, runtime = get_format("hss").factorize_dtd(
        hss, policy=ExecutionPolicy(backend="immediate", nodes=4)
    )
    graph = runtime.graph
    print(f"tasks: {graph.num_tasks}, edges: {graph.num_edges}, "
          f"total flops: {graph.total_flops() / 1e9:.2f} GFlop")
    print("flops per kind:", {k: f"{v / 1e6:.1f} MFlop" for k, v in sorted(graph.flops_by_kind().items())})

    b = np.random.default_rng(1).standard_normal(1024)
    x = factor.solve(hss.matvec(b))
    print(f"ULV solve error: {np.linalg.norm(x - b) / np.linalg.norm(b):.2e}")

    # Replay the recorded graph on the simulated machine under both policies.
    for nodes in (4, 16):
        machine = fugaku_like(nodes)
        async_res = simulate(graph, machine, policy="async")
        fj_res = simulate(graph, machine, policy="forkjoin")
        print(f"  simulated on {nodes:>3} nodes: async {async_res.makespan * 1e3:7.2f} ms, "
              f"fork-join {fj_res.makespan * 1e3:7.2f} ms")


def threaded_execution() -> None:
    print("\n=== Shared-memory parallel replay of a recorded graph ===")
    points = uniform_grid_2d(512)
    kmat = KernelMatrix(Yukawa(), points)
    hss = build_hss(kmat, leaf_size=64, max_rank=24)
    # Record the graph with deferred execution, then run it with 4 threads.
    builder = HSSULVFactorizeBuilder(
        hss, policy=ExecutionPolicy(backend="deferred", nodes=2)
    ).record()
    report = execute_graph(builder.runtime.graph, n_workers=4)
    factor = builder.result()
    print(f"executed {len(report.executed)} / {report.num_tasks} tasks "
          f"on {report.num_workers} threads in {report.wall_time * 1e3:.1f} ms, "
          f"ok={report.ok}")
    b = np.random.default_rng(2).standard_normal(512)
    x = factor.solve(hss.matvec(b))
    print(f"solve error after threaded execution: {np.linalg.norm(x - b) / np.linalg.norm(b):.2e}")


def parallel_execution_modes() -> None:
    print("\n=== One-call parallel execution (every registered format) ===")
    points = uniform_grid_2d(1024)
    kmat = KernelMatrix(Yukawa(), points)
    b = np.random.default_rng(3).standard_normal(1024)
    policy = ExecutionPolicy(backend="parallel", n_workers=4)

    for name in ("hss", "blr2", "hodlr"):
        spec = get_format(name)
        matrix = spec.build(kmat, leaf_size=128, max_rank=40)
        factor, rt = spec.factorize_dtd(matrix, policy=policy)
        x, _ = spec.solve_dtd(factor, matrix.matvec(b), policy=policy)
        print(f"{spec.title + '-ULV':<9} parallel: {rt.num_tasks} factorize tasks, "
              f"solve error {np.linalg.norm(x - b) / np.linalg.norm(b):.2e}")


if __name__ == "__main__":
    fig6_dag()
    hss_ulv_tasks()
    threaded_execution()
    parallel_execution_modes()

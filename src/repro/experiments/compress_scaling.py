"""Compression-phase scaling: task-graph construction vs the sequential build.

After PRs 1-4 the factorize and solve phases already run through the DTD
runtime; this driver measures the *construction* phase doing the same
(:mod:`repro.compress`): for every structured format with a registered
``compress_graph`` it compresses the same kernel matrix on the sequential
reference path and on each requested runtime backend, and reports

* the compression wall time and the speedup over the sequential build --
  both sides measured as best-of-``repeats`` warmed runs, interleaved in
  pairs so machine-speed drift cannot land on one side of the ratio
  (:func:`repro.experiments.timing.best_of_pair`), repeat count stamped
  into every row,
* the number of recorded construction tasks (after fusion, when enabled),
* the concurrency each row *actually* used: ``n_workers`` is 1 for the
  sequential-executor backends (``deferred``, ``distributed``) and ``nodes``
  is 1 for the shared-memory ones,
* for the distributed backend: the measured communication volume and
  whether it matches the static transfer plan exactly,
* a bit-identity verdict against the sequential ``formats.build_*`` output
  (the subsystem's correctness contract).

Run via ``python -m repro compresscale`` or the benchmark harness
(``benchmarks/test_compress_scaling.py``, which prints the rows and asserts
their correctness contracts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.compress.verify import compressed_identical
from repro.experiments.timing import best_of_pair
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import available_formats, get_format
from repro.runtime.distributed import measured_vs_planned_comm

__all__ = ["CompressScalingRow", "run_compress_scaling", "format_compress_scaling"]


@dataclass
class CompressScalingRow:
    """One measured (format, backend) point of the compression sweep."""

    format: str
    backend: str
    nodes: int
    n_workers: int
    wall_seconds: float
    sequential_seconds: float
    speedup: float
    tasks: int
    bit_identical: bool
    comm_messages: int = 0
    comm_bytes: int = 0
    comm_matches_plan: bool = True
    fusion: bool = False
    repeats: int = 1


def run_compress_scaling(
    *,
    n: int = 1024,
    kernel: str = "yukawa",
    leaf_size: int = 128,
    max_rank: int = 30,
    formats: Optional[Sequence[str]] = None,
    backends: Sequence[str] = ("deferred", "parallel", "distributed"),
    n_workers: int = 4,
    nodes: int = 2,
    fusion: bool = False,
    repeats: int = 3,
    seed: int = 0,
) -> Dict[str, object]:
    """Measure the compression phase for every (format, backend) pair.

    The kernel matrix is assembled once; each format is first built on the
    sequential reference path (the speedup baseline and the bit-identity
    oracle), then once per runtime backend through its registered
    ``compress_graph``.  Both sides take the best of ``repeats`` warmed
    runs, interleaved per backend so drift hits baseline and contender alike.
    ``fusion`` turns on record-time task fusion/batching of the graphs.
    """
    kmat = KernelMatrix(kernel_by_name(kernel), uniform_grid_2d(n))
    names = tuple(formats) if formats else tuple(
        f for f in available_formats() if get_format(f).compress_graph is not None
    )

    rows: List[CompressScalingRow] = []
    for name in names:
        spec = get_format(name)

        for backend in backends:
            policy = ExecutionPolicy(
                backend=backend,
                n_workers=n_workers,
                nodes=nodes if backend == "distributed" else 1,
                fusion=fusion,
            )
            # The reference build is re-timed interleaved with every backend
            # (not once per format): on a drifting machine a block of
            # baseline timings taken minutes before the graph timings would
            # put all the drift on one side of the speedup.
            t_seq, reference, wall, (matrix, rt) = best_of_pair(
                lambda: spec.build(
                    kmat, leaf_size=leaf_size, max_rank=max_rank, tol=None,
                    method=None, seed=seed,
                ),
                lambda: spec.compress_graph(
                    kmat, leaf_size=leaf_size, max_rank=max_rank, tol=None,
                    method=None, seed=seed, policy=policy,
                ),
                repeats=repeats,
            )

            comm_messages = comm_bytes = 0
            comm_matches = True
            if backend in ("distributed", "process"):
                measured, planned = measured_vs_planned_comm(
                    rt.graph, rt.last_distributed_report, policy.ranks
                )
                comm_messages, comm_bytes = measured
                comm_matches = measured == planned

            rows.append(
                CompressScalingRow(
                    format=name,
                    backend=backend,
                    nodes=policy.nodes,
                    # Actual concurrency: deferred runs in-order in the parent,
                    # distributed runs one in-order executor per node and
                    # process one per worker.
                    n_workers=n_workers if backend in ("parallel", "process") else 1,
                    wall_seconds=wall,
                    sequential_seconds=t_seq,
                    speedup=t_seq / wall if wall > 0 else float("inf"),
                    tasks=rt.num_tasks,
                    bit_identical=compressed_identical(name, reference, matrix),
                    comm_messages=comm_messages,
                    comm_bytes=comm_bytes,
                    comm_matches_plan=comm_matches,
                    fusion=policy.fusion,
                    repeats=repeats,
                )
            )
    return {
        "n": n,
        "kernel": kernel,
        "leaf_size": leaf_size,
        "max_rank": max_rank,
        "n_workers": n_workers,
        "nodes": nodes,
        "repeats": repeats,
        "rows": rows,
    }


def format_compress_scaling(result: Dict[str, object]) -> str:
    """Render the sweep as the table ``python -m repro compresscale`` prints."""
    lines = [
        f"Compression scaling: kernel={result['kernel']} n={result['n']} "
        f"leaf_size={result['leaf_size']} max_rank={result['max_rank']} "
        f"workers={result['n_workers']} nodes={result['nodes']} "
        f"repeats={result.get('repeats', 1)}",
        "(task-graph construction vs the sequential formats.build_* reference, "
        "paired best-of-N warmed timings)",
        "",
        f"{'format':>8} {'backend':>12} {'tasks':>6} {'fused':>5} {'seq [s]':>9} "
        f"{'wall [s]':>9} {'speedup':>8} {'msgs':>6} {'comm MB':>9} {'identical':>10}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row.format:>8} {row.backend:>12} {row.tasks:>6d} "
            f"{'yes' if row.fusion else 'no':>5} "
            f"{row.sequential_seconds:>9.4f} {row.wall_seconds:>9.4f} "
            f"{row.speedup:>8.2f} {row.comm_messages:>6d} "
            f"{row.comm_bytes / 1e6:>9.3f} "
            f"{'yes' if row.bit_identical else 'NO':>10}"
        )
    return "\n".join(lines)

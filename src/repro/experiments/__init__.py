"""Experiment drivers: one module per table/figure of the paper's evaluation.

Every driver exposes a ``run_*`` function returning plain data (lists of row
dictionaries) plus a ``format_*`` helper that prints the same rows/series
the paper reports.  The benchmark harness under ``benchmarks/`` and the
examples call into these drivers.  Besides the paper's tables and figures
there are the compression-scaling and distributed weak-scaling sweeps, and
:mod:`~repro.experiments.serve_load`, the concurrent-client driver of the
CI serve smoke.  Factorize/solve speedups and serving throughput are
measured by ``bench/``, not by a driver here.
"""

from repro.experiments.workloads import (
    KERNEL_RANKS,
    WeakScalingPoint,
    build_problem,
    hss_weak_scaling_schedule,
    lorapo_weak_scaling_schedule,
)
from repro.experiments.table1_complexity import run_table1, format_table1
from repro.experiments.table2_accuracy import run_table2, format_table2
from repro.experiments.fig9_weak_scaling import run_fig9, format_fig9
from repro.experiments.fig10_breakdown import (
    MeasuredBreakdownRow,
    format_fig10,
    format_fig10_measured,
    run_fig10,
    run_fig10_measured,
)
from repro.experiments.fig11_problem_size import run_fig11, format_fig11
from repro.experiments.fig12_leaf_size import run_fig12, format_fig12
from repro.experiments.distributed_weak_scaling import (
    DistributedWeakScalingRow,
    comm_plane_savings,
    format_distributed_weak_scaling,
    run_distributed_weak_scaling,
)
from repro.experiments.compress_scaling import (
    CompressScalingRow,
    format_compress_scaling,
    run_compress_scaling,
)
from repro.experiments.timing import bench_repeats, best_of_pair

__all__ = [
    "bench_repeats",
    "best_of_pair",
    "CompressScalingRow",
    "run_compress_scaling",
    "format_compress_scaling",
    "drive_concurrent_clients",
    "DistributedWeakScalingRow",
    "run_distributed_weak_scaling",
    "format_distributed_weak_scaling",
    "comm_plane_savings",
    "KERNEL_RANKS",
    "WeakScalingPoint",
    "build_problem",
    "hss_weak_scaling_schedule",
    "lorapo_weak_scaling_schedule",
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
    "run_fig9",
    "format_fig9",
    "run_fig10",
    "format_fig10",
    "MeasuredBreakdownRow",
    "run_fig10_measured",
    "format_fig10_measured",
    "run_fig11",
    "format_fig11",
    "run_fig12",
    "format_fig12",
]


def __getattr__(name):
    # Imported on first use so ``python -m repro.experiments.serve_load``
    # does not find its own module already imported by this package.
    if name == "drive_concurrent_clients":
        from repro.experiments.serve_load import drive_concurrent_clients

        return drive_concurrent_clients
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

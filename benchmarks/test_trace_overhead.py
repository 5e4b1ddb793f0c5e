"""Benchmark: measured observability must be near-free on the hot path.

The tracing layer only appends raw stamp tuples while tasks run and builds
:class:`~repro.runtime.tracing.TaskSpan` objects after the run, and the
metrics registry consumes those same stamps post-run, so enabling either
should not perturb the very timings they exist to explain.  This benchmark
executes the same recorded HSS-ULV task graph on the thread pool three ways
-- bare, traced, and traced with a :class:`~repro.obs.MetricsRegistry`
attached -- interleaved per repeat so machine drift hits all arms alike, and
records the deltas (with the raw per-repeat samples) into
``BENCH_runtime.json``.  The CI gate
(``benchmarks/check_speedup_trajectory.py --max-trace-overhead``) fails the
trajectory check when either recorded overhead fraction exceeds 3%.

The test itself asserts no timing: wall-clock belongs in the gate, not in a
test body that a loaded container can fail at random.
"""

import time

from bench_utils import bench_repeats, full_scale, print_table, record_bench

from repro.formats.hss import build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
from repro.obs import MetricsRegistry
from repro.pipeline.factorize import HSSULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy

N = 4096 if full_scale() else 2048
WORKERS = 4
REPEATS = max(bench_repeats(), 5)


def _measure():
    kmat = KernelMatrix(kernel_by_name("yukawa"), uniform_grid_2d(N))
    matrix = build_hss(kmat, leaf_size=256, max_rank=60)

    def record(trace, metrics=None):
        # Fresh graph per run: an executed graph cannot run again.
        builder = HSSULVFactorizeBuilder(matrix, policy=ExecutionPolicy(backend="deferred"))
        rt = builder.record().runtime
        rt.trace = trace
        rt.metrics = metrics
        return rt

    untraced = []
    traced = []
    metered = []
    num_spans = 0
    num_tasks = 0
    for _ in range(REPEATS):
        rt = record(False)
        t0 = time.perf_counter()
        rt.run_parallel(n_workers=WORKERS)
        untraced.append(time.perf_counter() - t0)
        assert rt.last_trace is None

        rt = record(True)
        t0 = time.perf_counter()
        rt.run_parallel(n_workers=WORKERS)
        traced.append(time.perf_counter() - t0)
        assert rt.last_trace is not None
        num_spans = len(rt.last_trace.spans)
        num_tasks = rt.num_tasks

        registry = MetricsRegistry()
        rt = record(True, metrics=registry)
        t0 = time.perf_counter()
        rt.run_parallel(n_workers=WORKERS)
        metered.append(time.perf_counter() - t0)
        assert rt.last_trace is not None
        assert registry.value(
            "repro_tasks_executed_total", backend="parallel"
        ) == num_tasks
    return untraced, traced, metered, num_spans, num_tasks


def test_trace_overhead(benchmark):
    untraced, traced, metered, num_spans, num_tasks = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    best_untraced = min(untraced)
    best_traced = min(traced)
    best_metered = min(metered)
    overhead_fraction = (best_traced - best_untraced) / best_untraced
    metered_overhead_fraction = (best_metered - best_untraced) / best_untraced
    print_table(
        f"Observability overhead (HSS-ULV thread execution, N={N}, "
        f"{WORKERS} workers, best of {REPEATS})",
        f"bare best {best_untraced:.4f} s   traced best {best_traced:.4f} s "
        f"({overhead_fraction * 100:+.2f}%)   traced+metered best "
        f"{best_metered:.4f} s ({metered_overhead_fraction * 100:+.2f}%)   "
        f"spans {num_spans}",
    )
    record_bench(
        "trace_overhead",
        {
            "n": N,
            "backend": "parallel",
            "n_workers": WORKERS,
            "repeats": REPEATS,
            "num_spans": num_spans,
            "num_tasks": num_tasks,
            "untraced_best": best_untraced,
            "traced_best": best_traced,
            "metered_best": best_metered,
            "overhead_fraction": overhead_fraction,
            "metered_overhead_fraction": metered_overhead_fraction,
            "untraced_samples": untraced,
            "traced_samples": traced,
            "metered_samples": metered,
        },
    )

    # tracing recorded exactly one span per executed task; the overhead
    # fractions are gated by check_speedup_trajectory.py, not here
    assert num_spans == num_tasks > 0

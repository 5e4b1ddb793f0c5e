"""Process-wide observability: metrics registry, exposition, memory.

The aggregating counterpart of :mod:`repro.runtime.tracing` (which records
per-run timelines): a mergeable :class:`MetricsRegistry` threaded through the
four execution backends and the :class:`~repro.service.SolverService`,
Prometheus text exposition, memory/byte accounting, the benchmark trajectory
gate (compression speedups, zero-copy wire bytes and baseline sample
spreads), and the ``repro benchreport`` renderer.  Factorize/solve timings,
serving throughput and observability overhead are measured by ``bench/``,
not here.  See README "Observability" for the metric names and label
conventions.
"""

from repro.obs.memory import (
    MemoryStats,
    estimate_nbytes,
    handle_table_bytes,
    peak_rss_bytes,
)
from repro.obs.metrics import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    merge_snapshots,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "merge_snapshots",
    "LATENCY_BUCKETS",
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
    "render_prometheus",
    "parse_prometheus",
    "ExpositionError",
    "MemoryStats",
    "peak_rss_bytes",
    "estimate_nbytes",
    "handle_table_bytes",
]

#: Names re-exported from :mod:`repro.obs.exposition`, imported on first use
#: so ``python -m repro.obs.exposition`` does not find its own module
#: already imported by this package.
_EXPOSITION_NAMES = frozenset({"ExpositionError", "parse_prometheus", "render_prometheus"})


def __getattr__(name):
    if name in _EXPOSITION_NAMES:
        from repro.obs import exposition

        return getattr(exposition, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

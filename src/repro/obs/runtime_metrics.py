"""Shared metric recording for the execution backends.

One vocabulary of runtime metrics, recorded identically by every backend so
``repro metrics`` output is comparable across ``--runtime`` choices:

Counters
    ``repro_executions_total{backend}``, ``repro_execution_timeouts_total``,
    ``repro_tasks_executed_total``, ``repro_tasks_failed_total``,
    ``repro_tasks_cancelled_total``,
    ``repro_solve_plan_records_total{backend}`` /
    ``repro_solve_plan_replays_total{backend}`` (task-graph solves that
    recorded a new graph / replayed a recorded one -- their ratio is the
    replay hit rate), ``repro_comm_messages_total``,
    ``repro_comm_logical_bytes_total`` (the comm *model*: declared
    ``handle.nbytes``, what :class:`~repro.runtime.distributed.comm.CommLedger`
    calls ``total_bytes``), ``repro_comm_physical_bytes_total`` (measured
    wire bytes through the queues, the ledger's ``total_payload_bytes``),
    ``repro_comm_mapped_bytes_total`` (bytes moved through shared-memory
    segments by the zero-copy data plane, the ledger's
    ``total_mapped_bytes``; 0 on the pickle plane).
Histograms
    ``repro_execution_seconds{backend}``, ``repro_task_seconds{backend,kind}``,
    ``repro_queue_delay_seconds{backend}``,
    ``repro_scheduler_overhead_seconds{backend}``,
    ``repro_comm_seconds{backend,action}``,
    ``repro_comm_transfer_bytes{backend,src,dst}`` (physical bytes per
    message, per directed process pair),
    ``repro_service_queue_wait_seconds`` (a ticket's wait from
    ``SolverService.submit`` to the start of the flush that takes it; beside
    ``repro_service_batch_rhs`` it tells full batches from slow flushes).
Gauges (merge mode ``max``)
    ``repro_queue_depth{backend}`` (ready-queue high water),
    ``repro_peak_rss_bytes{backend,rank}``,
    ``repro_handle_bytes{backend,view=logical|measured}``.

The per-task histograms are derived from the *same* raw stamp tuples the
tracing layer builds its spans from (enabling metrics enables stamping), so
the trace and the metrics can never disagree about a duration -- the
reconciliation the metrics tests assert.

Label values are always strings (Prometheus semantics); ``rank`` is the
worker process rank, or ``"parent"`` for the coordinating process.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from repro.obs.memory import MemoryStats, handle_table_bytes, peak_rss_bytes
from repro.obs.metrics import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "record_report",
    "record_spans",
    "record_comm_spans",
    "record_comm_events",
    "record_comm_message",
    "record_queue_depth",
    "record_memory",
    "record_execution_metrics",
    "record_rank_execution",
    "record_sequential_run",
    "record_solve_plan",
    "service_queue_wait",
    "record_http_request",
    "record_http_rejection",
    "record_http_inflight",
]

_H = {
    "executions": ("repro_executions_total", "Graph executions started"),
    "timeouts": ("repro_execution_timeouts_total", "Graph executions that hit their timeout"),
    "executed": ("repro_tasks_executed_total", "Task bodies completed successfully"),
    "failed": ("repro_tasks_failed_total", "Task bodies that raised"),
    "cancelled": ("repro_tasks_cancelled_total", "Tasks cancelled before starting"),
    "exec_seconds": ("repro_execution_seconds", "Wall-clock seconds per graph execution"),
    "task_seconds": ("repro_task_seconds", "Task body seconds by kind"),
    "queue_delay": ("repro_queue_delay_seconds", "Seconds between a task becoming ready and starting"),
    "sched_overhead": ("repro_scheduler_overhead_seconds", "Runtime-system seconds per execution (dispatch, bookkeeping, result shuttling)"),
    "comm_msgs": ("repro_comm_messages_total", "Inter-process messages carried"),
    "comm_logical": ("repro_comm_logical_bytes_total", "Modelled message bytes (declared handle sizes)"),
    "comm_physical": ("repro_comm_physical_bytes_total", "Measured wire bytes (serialized message payloads)"),
    "comm_mapped": ("repro_comm_mapped_bytes_total", "Bytes moved through shared-memory segments (zero-copy data plane)"),
    "comm_seconds": ("repro_comm_seconds", "Seconds spent in communication actions"),
    "comm_transfer": ("repro_comm_transfer_bytes", "Physical bytes per message by directed process pair"),
    "plan_records": ("repro_solve_plan_records_total", "Task-graph solves that recorded a new graph"),
    "plan_replays": ("repro_solve_plan_replays_total", "Task-graph solves that replayed an already recorded graph"),
    "service_queue_wait": ("repro_service_queue_wait_seconds", "Seconds a ticket waited between submit and the start of the flush that took it"),
    "queue_depth": ("repro_queue_depth", "Ready-queue high-water mark"),
    "peak_rss": ("repro_peak_rss_bytes", "Peak resident-set bytes per process"),
    "handle_bytes": ("repro_handle_bytes", "Handle-table bytes (view=logical: declared sizes; view=measured: bound values)"),
    "http_requests": ("repro_http_requests_total", "HTTP requests served by route, method and status"),
    "http_seconds": ("repro_http_request_seconds", "HTTP request handling seconds by route"),
    "http_rejected": ("repro_http_rejected_total", "HTTP requests rejected before solving (unauthorized, rate_limited, backpressure, shutdown)"),
    "http_inflight": ("repro_http_inflight_requests", "Concurrent in-flight HTTP requests (high-water mark)"),
}


def record_report(
    registry: MetricsRegistry,
    backend: str,
    report: Any,
    *,
    include_executed: bool = True,
) -> None:
    """Record execution-level counters from an ExecutionReport-shaped object.

    Works for the thread/process :class:`~repro.runtime.executor.ExecutionReport`
    and the :class:`~repro.runtime.distributed.DistributedReport` alike
    (``executed`` / ``errors`` / ``cancelled`` / ``timed_out`` /
    ``wall_time``).  Error and cancellation paths run through here too, so a
    failed execution still counts its completed, failed and cancelled tasks.
    ``include_executed=False`` skips the executed-tasks counter for callers
    whose workers already counted their own completions (the distributed
    parent after merging rank snapshots).
    """
    registry.counter(*_H["executions"], backend=backend).inc()
    if getattr(report, "timed_out", False):
        registry.counter(*_H["timeouts"], backend=backend).inc()
    if include_executed:
        registry.counter(*_H["executed"], backend=backend).inc(len(report.executed))
    else:
        # Touch the series so it exists even when no rank completed a task.
        registry.counter(*_H["executed"], backend=backend)
    errors = getattr(report, "errors", None) or {}
    if errors:
        registry.counter(*_H["failed"], backend=backend).inc(len(errors))
    cancelled = getattr(report, "cancelled", None) or []
    if cancelled:
        registry.counter(*_H["cancelled"], backend=backend).inc(len(cancelled))
    wall = getattr(report, "wall_time", 0.0)
    registry.histogram(
        *_H["exec_seconds"], buckets=LATENCY_BUCKETS, backend=backend
    ).observe(wall)


def record_spans(registry: MetricsRegistry, backend: str, spans: Iterable[Any]) -> None:
    """Per-kind latency and queue-delay histograms from built TaskSpans."""
    for span in spans:
        registry.histogram(
            *_H["task_seconds"], buckets=LATENCY_BUCKETS,
            backend=backend, kind=span.kind,
        ).observe(span.duration)
        registry.histogram(
            *_H["queue_delay"], buckets=LATENCY_BUCKETS, backend=backend
        ).observe(max(0.0, span.queue_delay))


def record_overhead(registry: MetricsRegistry, backend: str, seconds: float) -> None:
    """One scheduler-overhead observation (central loop + per-worker dispatch)."""
    registry.histogram(
        *_H["sched_overhead"], buckets=LATENCY_BUCKETS, backend=backend
    ).observe(seconds)


def record_comm_spans(registry: MetricsRegistry, backend: str, comm: Iterable[Any]) -> None:
    """Comm-action duration histograms from built CommSpans."""
    for span in comm:
        registry.histogram(
            *_H["comm_seconds"], buckets=LATENCY_BUCKETS,
            backend=backend, action=span.action,
        ).observe(span.duration)


def record_comm_message(
    registry: MetricsRegistry,
    backend: str,
    *,
    src: Any,
    dst: Any,
    logical_bytes: int,
    physical_bytes: int,
    mapped_bytes: int = 0,
) -> None:
    """Account one inter-process message: counters + per-edge size histogram.

    ``physical_bytes`` is what crossed the queue (a full pickled payload, or
    just a descriptor list on the shm plane); ``mapped_bytes`` is what moved
    through shared-memory segments instead.  The transfer histogram observes
    the wire size -- the cost the queue actually paid.
    """
    registry.counter(*_H["comm_msgs"], backend=backend).inc()
    registry.counter(*_H["comm_logical"], backend=backend).inc(logical_bytes)
    registry.counter(*_H["comm_physical"], backend=backend).inc(physical_bytes)
    if mapped_bytes:
        registry.counter(*_H["comm_mapped"], backend=backend).inc(mapped_bytes)
    registry.histogram(
        *_H["comm_transfer"], buckets=BYTES_BUCKETS,
        backend=backend, src=str(src), dst=str(dst),
    ).observe(physical_bytes)


def record_comm_events(registry: MetricsRegistry, backend: str, events: Iterable[Any]) -> None:
    """Account CommEvents (the ledger's rows) as messages.

    Uses each event's ``nbytes`` (model), ``payload_nbytes`` (measured wire)
    and ``mapped_nbytes`` (shared-memory), so the registry's byte counters
    reconcile with :attr:`CommLedger.total_bytes` / ``total_payload_bytes`` /
    ``total_mapped_bytes`` by construction.
    """
    for event in events:
        record_comm_message(
            registry,
            backend,
            src=event.src,
            dst=event.dst,
            logical_bytes=int(event.nbytes),
            physical_bytes=int(event.payload_nbytes),
            mapped_bytes=int(getattr(event, "mapped_nbytes", 0)),
        )


def record_queue_depth(registry: MetricsRegistry, backend: str, high_water: int) -> None:
    registry.gauge(*_H["queue_depth"], mode="max", backend=backend).set_max(high_water)


def record_memory(
    registry: MetricsRegistry,
    backend: str,
    memory: MemoryStats,
    *,
    rank: Any = "parent",
) -> None:
    """Record a MemoryStats onto the gauges (peak RSS + handle-table bytes)."""
    if memory.peak_rss_bytes is not None:
        registry.gauge(
            *_H["peak_rss"], mode="max", backend=backend, rank=str(rank)
        ).set_max(memory.peak_rss_bytes)
    for r, rss in memory.rank_peak_rss_bytes.items():
        registry.gauge(
            *_H["peak_rss"], mode="max", backend=backend, rank=str(r)
        ).set_max(rss)
    registry.gauge(
        *_H["handle_bytes"], mode="max", backend=backend, view="logical"
    ).set_max(memory.logical_bytes)
    registry.gauge(
        *_H["handle_bytes"], mode="max", backend=backend, view="measured"
    ).set_max(memory.measured_bytes)


def record_execution_metrics(
    registry: MetricsRegistry,
    *,
    backend: str,
    report: Any,
    trace: Any = None,
    graph: Any = None,
    queue_high_water: Optional[int] = None,
) -> MemoryStats:
    """The parent-side umbrella recorder used by the shared-memory backends.

    Records the report counters, the span/overhead/comm histograms from the
    (possibly unattached) trace, the ready-queue high water, and the memory
    gauges; returns the :class:`MemoryStats` so the caller can attach it to
    ``report.memory``.
    """
    record_report(registry, backend, report)
    if trace is not None:
        record_spans(registry, backend, trace.spans)
        record_comm_spans(registry, backend, trace.comm)
        overhead = trace.scheduler_overhead + sum(trace.worker_overhead.values())
        record_overhead(registry, backend, overhead)
    if queue_high_water is not None:
        record_queue_depth(registry, backend, queue_high_water)
    memory = handle_table_bytes(graph) if graph is not None else MemoryStats(
        peak_rss_bytes=peak_rss_bytes()
    )
    record_memory(registry, backend, memory)
    return memory


def record_sequential_run(
    registry: MetricsRegistry,
    backend: str,
    graph: Any,
    raw_spans: Sequence[tuple],
) -> MemoryStats:
    """DTD-level recorder for the sequential modes (immediate bodies, run()).

    ``raw_spans`` are the runtime's not-yet-recorded 9-field span-log tuples
    ``(tid, name, kind, phase, worker, process, queue_t, start_t, end_t)`` --
    the same log :meth:`DTDRuntime.assemble_trace` builds its spans from.
    """
    from repro.runtime.tracing import build_spans

    registry.counter(*_H["executions"], backend=backend).inc()
    registry.counter(*_H["executed"], backend=backend).inc(len(raw_spans))
    if raw_spans:
        t0 = min(item[6] for item in raw_spans)
        wall = max(item[8] for item in raw_spans) - t0
        record_spans(registry, backend, build_spans(list(raw_spans), t0))
    else:
        wall = 0.0
    registry.histogram(
        *_H["exec_seconds"], buckets=LATENCY_BUCKETS, backend=backend
    ).observe(wall)
    memory = handle_table_bytes(graph)
    record_memory(registry, backend, memory)
    return memory


def record_solve_plan(registry: MetricsRegistry, backend: str, *, replayed: bool) -> None:
    """Count one task-graph solve as a replay of a recorded graph or a new recording."""
    registry.counter(*_H["plan_replays" if replayed else "plan_records"], backend=backend).inc()


def service_queue_wait(registry: MetricsRegistry) -> Histogram:
    """The queue-wait histogram of a solver service (created empty on first use).

    One observation per ticket: the seconds between ``submit`` and the start
    of the flush that took it.  On a server that flushes on arrival this is
    the part of the serving latency that is neither HTTP plumbing nor solve.
    """
    return registry.histogram(*_H["service_queue_wait"], buckets=LATENCY_BUCKETS)


def record_http_request(
    registry: MetricsRegistry,
    *,
    route: str,
    method: str,
    status: int,
    seconds: float,
) -> None:
    """Account one served HTTP request (the solver server's request log).

    ``route`` is the route *pattern* (``"/v1/tickets/{id}"``, never the
    concrete path) so label cardinality stays bounded no matter how many
    tickets exist.
    """
    registry.counter(
        *_H["http_requests"], route=route, method=method, status=str(status)
    ).inc()
    registry.histogram(
        *_H["http_seconds"], buckets=LATENCY_BUCKETS, route=route
    ).observe(seconds)


def record_http_rejection(
    registry: MetricsRegistry, *, reason: str, tenant: str = "anonymous"
) -> None:
    """Count one request rejected before reaching the solver.

    ``reason`` is one of ``unauthorized`` (401), ``rate_limited`` (429),
    ``backpressure`` (503, queue full) or ``shutdown`` (503, the server is
    stopping) -- the admission-control outcomes a capacity alert wants to
    distinguish.
    """
    registry.counter(*_H["http_rejected"], reason=reason, tenant=tenant).inc()


def record_http_inflight(registry: MetricsRegistry, inflight: int) -> None:
    """High-water mark of concurrently handled requests."""
    registry.gauge(*_H["http_inflight"], mode="max").set_max(inflight)


def record_rank_execution(
    registry: MetricsRegistry,
    *,
    backend: str,
    rank: int,
    graph: Any,
    spans: Sequence[tuple],
    comm_events: Iterable[Any] = (),
    comm_spans: Iterable[tuple] = (),
    overhead: float = 0.0,
) -> None:
    """The worker-side recorder of the distributed backend.

    Runs inside a forked rank on its local registry; the snapshot ships back
    to the parent in :class:`~repro.runtime.distributed.protocol.WorkerResult`
    and merges there.  ``spans`` are the rank's raw ``(tid, queue_t, start_t,
    end_t)`` stamp tuples, ``comm_spans`` the raw ``(action, src, dst, edge,
    nbytes, start, end)`` tuples -- the same data the trace is built from.
    """
    registry.counter(*_H["executed"], backend=backend).inc(len(spans))
    for tid, queue_t, start_t, end_t in spans:
        task = graph.task(tid)
        registry.histogram(
            *_H["task_seconds"], buckets=LATENCY_BUCKETS,
            backend=backend, kind=task.kind,
        ).observe(end_t - start_t)
        registry.histogram(
            *_H["queue_delay"], buckets=LATENCY_BUCKETS, backend=backend
        ).observe(max(0.0, start_t - queue_t))
    record_comm_events(registry, backend, comm_events)
    for action, _src, _dst, _edge, _nbytes, cs, ce in comm_spans:
        registry.histogram(
            *_H["comm_seconds"], buckets=LATENCY_BUCKETS,
            backend=backend, action=action,
        ).observe(ce - cs)
    if overhead:
        record_overhead(registry, backend, overhead)
    rss = peak_rss_bytes()
    if rss is not None:
        registry.gauge(
            *_H["peak_rss"], mode="max", backend=backend, rank=str(rank)
        ).set_max(rss)

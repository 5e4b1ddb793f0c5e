"""Measured task-level tracing for the real execution backends.

The simulator has always produced the paper's Fig. 10 per-worker breakdowns
(COMPUTE TASK TIME / RUNTIME OVERHEAD / MPI TIME) from the machine model;
*measured* executions recorded a single ``wall_time``, so the question "where
does the execution phase actually spend its time" could not be answered from
data.  This module is the measured counterpart of
:mod:`repro.runtime.trace`: a low-overhead span recorder threaded through all
four execution backends.

* :class:`TaskSpan` -- one executed task body: id, kind, phase, executing
  worker/process, queue/start/end ``perf_counter`` stamps, and the fused-head
  id when the span covers a coarsened task.
* :class:`CommSpan` -- one timed communication action of the distributed
  backend (serialize+send on the producer, install on the consumer), on the
  same clock as the task spans.
* :class:`ExecutionTrace` -- the assembled timeline: spans + comm events +
  measured scheduler overhead, normalized to a single ``t0`` origin.  Derives
  per-worker :class:`~repro.runtime.trace.WorkerBreakdown` rows
  (compute/overhead/communication/idle), per-kind and per-phase aggregate
  tables (:meth:`ExecutionTrace.by_kind` / :meth:`by_phase`), and exports the
  whole timeline as Chrome trace-event JSON
  (:meth:`ExecutionTrace.to_chrome_json`) loadable in ``chrome://tracing`` or
  Perfetto.

Clock alignment: every process stamps ``time.perf_counter()``, which on Linux
reads the system-wide ``CLOCK_MONOTONIC``; forked workers (the process and
distributed backends) therefore share the parent's clock and their spans
merge into one timeline by subtracting the parent's ``t0``.

The idle component is defined as the per-worker remainder
``wall_time - compute - overhead - communication`` (clamped at zero), so the
four components always reconcile with the execution wall time -- the
invariant the trace tests assert.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.trace import WorkerBreakdown

__all__ = [
    "TaskSpan",
    "CommSpan",
    "SpanAggregate",
    "ExecutionTrace",
    "aggregate_spans",
]


@dataclass(frozen=True)
class TaskSpan:
    """One executed task body on the measured timeline.

    Attributes
    ----------
    tid:
        Task id of the *executed* task.  For coarsened graphs this is the
        fused head's id; :attr:`ExecutionTrace.head_of` maps every original
        task id onto it.
    name, kind, phase:
        Copied from the task (fused tasks carry the merged kind).
    worker:
        Executing worker index.  Thread backend: thread index; distributed
        and process backends: the rank (one event loop per rank).
    process:
        Executing process rank (0 for the shared-memory backends).
    queue_t, start_t, end_t:
        ``perf_counter`` stamps relative to the trace origin: when the task
        became ready/was submitted, when its body started, when it finished.
    """

    tid: int
    name: str
    kind: str
    phase: int
    worker: int
    process: int
    queue_t: float
    start_t: float
    end_t: float

    @property
    def duration(self) -> float:
        return self.end_t - self.start_t

    @property
    def queue_delay(self) -> float:
        """Seconds between becoming ready/submitted and starting."""
        return self.start_t - self.queue_t


@dataclass(frozen=True)
class CommSpan:
    """One timed communication action of a distributed execution.

    ``action`` is ``"send"`` (serialize + enqueue, charged to the producer's
    rank) or ``"recv"`` (deserialize + install, charged to the consumer's
    rank); ``worker`` is the rank that spent the time.
    """

    action: str
    worker: int
    src: int
    dst: int
    edge: Tuple[int, int]
    nbytes: int
    start_t: float
    end_t: float

    @property
    def duration(self) -> float:
        return self.end_t - self.start_t


@dataclass(frozen=True)
class SpanAggregate:
    """Aggregate statistics of one group of spans (a task kind or a phase)."""

    key: Any
    count: int
    total: float
    mean: float
    p95: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p95": self.p95,
        }


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_values[lo]
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def aggregate_spans(spans: Sequence[TaskSpan], key: str) -> List[SpanAggregate]:
    """Aggregate span durations by ``key`` (``"kind"`` or ``"phase"``).

    Returns one :class:`SpanAggregate` per distinct key value, sorted by
    descending total time -- the table the CLI prints to answer "which task
    kind eats the wall time".
    """
    groups: Dict[Any, List[float]] = {}
    for span in spans:
        groups.setdefault(getattr(span, key), []).append(span.duration)
    out: List[SpanAggregate] = []
    for value, durations in groups.items():
        durations.sort()
        total = sum(durations)
        out.append(
            SpanAggregate(
                key=value,
                count=len(durations),
                total=total,
                mean=total / len(durations),
                p95=_percentile(durations, 0.95),
            )
        )
    out.sort(key=lambda a: a.total, reverse=True)
    return out


@dataclass
class ExecutionTrace:
    """The measured timeline of one graph execution on one backend.

    Attributes
    ----------
    backend:
        Executor name (``"parallel"``, ``"distributed"`` -- also for
        ``process`` runs, which use the distributed rank loop --
        ``"deferred"``).
    n_workers:
        Worker count the breakdowns average over (threads or ranks).
    wall_time:
        Wall-clock seconds of the traced execution (the reconciliation
        window of :meth:`worker_breakdowns`).
    spans:
        One :class:`TaskSpan` per executed task, stamps relative to the
        trace origin.
    comm:
        Timed communication actions (distributed backend only).
    worker_overhead:
        Measured runtime-system seconds per worker (dispatch, bookkeeping,
        result shuttling) -- the directly instrumented part of RUNTIME
        OVERHEAD.
    head_of:
        Fusion contraction map ``original tid -> executed head tid`` (empty
        when the graph was not coarsened).
    """

    backend: str
    n_workers: int
    wall_time: float = 0.0
    spans: List[TaskSpan] = field(default_factory=list)
    comm: List[CommSpan] = field(default_factory=list)
    worker_overhead: Dict[int, float] = field(default_factory=dict)
    head_of: Dict[int, int] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- breakdowns ----------------------------------------------------------
    def worker_breakdowns(self) -> Dict[int, WorkerBreakdown]:
        """Measured per-worker compute/overhead/communication/idle split.

        Compute and communication are summed from the recorded spans,
        overhead is the measured per-worker runtime cost, and idle is the
        remainder of the :attr:`wall_time` window (clamped at zero) -- so the four
        components of every worker sum to ``wall_time`` whenever the
        measured parts fit inside it.
        """
        workers = max(self.n_workers, 1)
        out: Dict[int, WorkerBreakdown] = {w: WorkerBreakdown() for w in range(workers)}
        for span in self.spans:
            out.setdefault(span.worker, WorkerBreakdown()).compute += span.duration
        for comm in self.comm:
            out.setdefault(comm.worker, WorkerBreakdown()).communication += comm.duration
        for worker, overhead in self.worker_overhead.items():
            out.setdefault(worker, WorkerBreakdown()).overhead += overhead
        for breakdown in out.values():
            busy = breakdown.compute + breakdown.overhead + breakdown.communication
            breakdown.idle = max(0.0, self.wall_time - busy)
        return out

    def totals(self) -> WorkerBreakdown:
        """Component sums over all workers (``totals().compute`` etc.)."""
        total = WorkerBreakdown()
        for breakdown in self.worker_breakdowns().values():
            total.compute += breakdown.compute
            total.overhead += breakdown.overhead
            total.communication += breakdown.communication
            total.idle += breakdown.idle
        return total

    @property
    def compute_task_time(self) -> float:
        """Average per-worker seconds inside task bodies (Fig. 10 COMPUTE TASK TIME)."""
        return self.totals().compute / max(self.n_workers, 1)

    @property
    def runtime_overhead(self) -> float:
        """Average per-worker runtime + communication seconds (Fig. 10 RUNTIME OVERHEAD)."""
        totals = self.totals()
        return (totals.overhead + totals.communication) / max(self.n_workers, 1)

    def by_kind(self) -> List[SpanAggregate]:
        """Per-task-kind aggregates (count, total, mean, p95 seconds)."""
        return aggregate_spans(self.spans, "kind")

    def by_phase(self) -> List[SpanAggregate]:
        """Per-phase aggregates (count, total, mean, p95 seconds)."""
        return aggregate_spans(self.spans, "phase")

    # -- export --------------------------------------------------------------
    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """The timeline as Chrome trace-event dicts (``X`` spans, ``M`` metadata).

        Timestamps are microseconds from the trace origin; ``pid`` is the
        executing process rank, ``tid`` the worker index -- so Perfetto /
        ``chrome://tracing`` renders one lane per worker, with communication
        actions interleaved on their rank's lane.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": rank,
                "args": {"name": f"{self.backend} rank {rank}"},
            }
            for rank in sorted({s.process for s in self.spans} | {0})
        ]
        seen_threads = set()
        for span in self.spans:
            if (span.process, span.worker) not in seen_threads:
                seen_threads.add((span.process, span.worker))
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": span.process,
                        "tid": span.worker,
                        "args": {"name": f"worker {span.worker}"},
                    }
                )
            events.append(
                {
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "X",
                    "ts": span.start_t * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": span.process,
                    "tid": span.worker,
                    "args": {
                        "tid": span.tid,
                        "phase": span.phase,
                        "queue_delay_us": span.queue_delay * 1e6,
                    },
                }
            )
        for comm in self.comm:
            events.append(
                {
                    "name": f"{comm.action} {comm.edge[0]}->{comm.edge[1]}",
                    "cat": "comm",
                    "ph": "X",
                    "ts": comm.start_t * 1e6,
                    "dur": comm.duration * 1e6,
                    "pid": comm.worker,
                    "tid": comm.worker,
                    "args": {
                        "src": comm.src,
                        "dst": comm.dst,
                        "nbytes": comm.nbytes,
                    },
                }
            )
        return events

    def to_chrome_json(self, path: str) -> str:
        """Write the Chrome trace-event JSON file and return its path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_events(), fh)
        return path

    # -- reporting -----------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Plain-dict summary for benchmark artifacts (JSON-serializable)."""
        totals = self.totals()
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "wall_time": self.wall_time,
            "num_spans": len(self.spans),
            "num_comm_events": len(self.comm),
            "compute": totals.compute,
            "overhead": totals.overhead,
            "communication": totals.communication,
            "idle": totals.idle,
            "compute_task_time": self.compute_task_time,
            "runtime_overhead": self.runtime_overhead,
        }

    def format_breakdown(self) -> str:
        """Fixed-width per-worker breakdown table (the measured Fig. 10 view)."""
        lines = [
            f"{'worker':>6} {'compute [s]':>12} {'overhead [s]':>13} "
            f"{'comm [s]':>10} {'idle [s]':>10} {'busy %':>7}"
        ]
        for worker, b in sorted(self.worker_breakdowns().items()):
            busy = b.compute + b.overhead + b.communication
            pct = 100.0 * busy / self.wall_time if self.wall_time > 0 else 0.0
            lines.append(
                f"{worker:>6} {b.compute:>12.4f} {b.overhead:>13.4f} "
                f"{b.communication:>10.4f} {b.idle:>10.4f} {pct:>6.1f}%"
            )
        lines.append(
            f"{'avg':>6} {self.compute_task_time:>12.4f} "
            f"{self.runtime_overhead:>13.4f} {'':>10} {'':>10} "
            f"  wall={self.wall_time:.4f}s"
        )
        return "\n".join(lines)

    def format_aggregates(self) -> str:
        """Per-kind and per-phase aggregate tables (count/total/mean/p95)."""
        lines: List[str] = []
        for title, rows in (("by task kind", self.by_kind()), ("by phase", self.by_phase())):
            lines.append(f"-- {title} --")
            lines.append(
                f"{'key':<28} {'count':>6} {'total [s]':>10} {'mean [ms]':>10} {'p95 [ms]':>9}"
            )
            for agg in rows:
                lines.append(
                    f"{str(agg.key):<28.28} {agg.count:>6} {agg.total:>10.4f} "
                    f"{agg.mean * 1e3:>10.4f} {agg.p95 * 1e3:>9.4f}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExecutionTrace(backend={self.backend!r}, workers={self.n_workers}, "
            f"spans={len(self.spans)}, comm={len(self.comm)}, "
            f"wall_time={self.wall_time:.3g}s)"
        )


def _relative(stamp: float, t0: float) -> float:
    return stamp - t0


def build_spans(
    raw: Sequence[Tuple[int, str, str, int, int, int, float, float, float]],
    t0: float,
) -> List[TaskSpan]:
    """Build :class:`TaskSpan` objects from raw stamp tuples.

    ``raw`` items are ``(tid, name, kind, phase, worker, process, queue_t,
    start_t, end_t)`` with absolute ``perf_counter`` stamps; the returned
    spans are relative to ``t0``.  Kept out of the executors' hot loops so
    tracing only appends tuples while tasks run.
    """
    return [
        TaskSpan(
            tid=tid,
            name=name,
            kind=kind,
            phase=phase,
            worker=worker,
            process=process,
            queue_t=_relative(queue_t, t0),
            start_t=_relative(start_t, t0),
            end_t=_relative(end_t, t0),
        )
        for (tid, name, kind, phase, worker, process, queue_t, start_t, end_t) in raw
    ]

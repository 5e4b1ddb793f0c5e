"""Shared-memory parallel execution of a recorded task graph.

This is the "real execution" counterpart of the simulator: ``n_workers``
workers -- the calling thread plus ``n_workers - 1`` threads -- execute the
task bodies respecting the DAG dependencies.  NumPy/BLAS
releases the GIL inside the dense kernels, so genuinely concurrent execution
of independent tasks is possible.  Used by the ``"parallel"`` backend of
:class:`~repro.pipeline.policy.ExecutionPolicy` (every compress, factorize
and solve graph builder) and by examples, benchmarks and tests to demonstrate that the task-based factorization produces
the same numbers as the sequential reference regardless of execution order.

Scheduling is entirely event-driven (no polling): workers sleep on a condition
variable and are woken exactly when a task becomes ready, an error occurs or
the graph is drained.  Ready tasks are dispatched from a priority queue seeded
with the flops-weighted critical-path depth of each task
(:meth:`repro.runtime.dag.TaskGraph.critical_path_priorities`), i.e. the
longest chain of work that still hangs off a task -- the classic critical-path
list-scheduling heuristic.

Error handling is deterministic: the first task body that raises stops all
dispatch; tasks that have not started yet are recorded in
``ExecutionReport.cancelled`` and are guaranteed never to run, while tasks
already in flight on other workers are allowed to finish (threads cannot be
interrupted mid-kernel).
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Dict, List, Mapping, Optional

from repro.runtime.dag import TaskGraph

__all__ = ["execute_graph", "ExecutionReport"]


class ExecutionReport:
    """Summary of a parallel graph execution.

    Attributes
    ----------
    num_workers:
        Workers that actually ran: ``max(1, min(requested, num_tasks))`` (0
        for an empty graph) -- the executor never uses more workers than
        there are tasks.  The thread executor counts the calling thread.
    requested_workers:
        The ``n_workers`` the caller asked for.
    executed:
        Task ids that completed successfully, in completion order.
    errors:
        ``tid -> exception`` for every task body that raised.
    cancelled:
        Task ids that were never started because an earlier task failed (or
        the execution timed out).  Disjoint from ``executed`` and ``errors``.
    timed_out:
        True when the overall ``timeout`` expired before the graph drained.
    wall_time:
        Wall-clock seconds spent inside :func:`execute_graph`.
    trace:
        Measured :class:`~repro.runtime.tracing.ExecutionTrace` when the
        execution ran with ``trace=True`` (None otherwise).
    memory:
        :class:`~repro.obs.memory.MemoryStats` (peak RSS + handle-table
        logical/measured bytes) when the execution ran with a metrics
        registry (None otherwise).
    """

    def __init__(
        self,
        num_tasks: int,
        num_workers: int,
        requested_workers: Optional[int] = None,
    ) -> None:
        self.num_tasks = num_tasks
        self.num_workers = num_workers
        self.requested_workers = (
            requested_workers if requested_workers is not None else num_workers
        )
        self.executed: List[int] = []
        self.errors: Dict[int, BaseException] = {}
        self.cancelled: List[int] = []
        self.timed_out: bool = False
        self.wall_time: float = 0.0
        self.trace = None
        self.memory = None

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and not self.cancelled
            and not self.timed_out
            and len(self.executed) == self.num_tasks
        )

    def __repr__(self) -> str:
        return (
            f"ExecutionReport(tasks={self.num_tasks}, workers={self.num_workers}, "
            f"executed={len(self.executed)}, errors={len(self.errors)}, "
            f"cancelled={len(self.cancelled)}, timed_out={self.timed_out}, "
            f"wall_time={self.wall_time:.3g}s)"
        )


def execute_graph(
    graph: TaskGraph,
    *,
    n_workers: int = 4,
    timeout: Optional[float] = None,
    priorities: Optional[Mapping[int, float]] = None,
    raise_on_error: bool = True,
    trace: bool = False,
    metrics=None,
) -> ExecutionReport:
    """Execute all task bodies of ``graph`` on ``n_workers`` workers.

    The calling thread is worker 0 and runs the same loop as the
    ``n_workers - 1`` threads started beside it, so ``n_workers=1`` executes
    the whole graph inline.  A task becomes *ready* when all of its
    predecessors have completed; ready tasks are dispatched
    highest-priority-first.  Tasks with ``func is None`` (symbolic tasks) are
    treated as instantaneous no-ops but still participate in the dependency
    bookkeeping.

    Parameters
    ----------
    graph:
        The recorded task graph (insertion order must be a topological order,
        which :class:`~repro.runtime.dtd.DTDRuntime` guarantees).
    n_workers:
        Number of workers, the calling thread included.
    timeout:
        Overall wall-clock limit in seconds, kept as a deadline every worker
        checks before it dispatches or waits: once it has passed no further
        task starts and not-yet-started tasks are cancelled (tasks in flight
        finish; a graph that drains before any worker looks is not late).
    priorities:
        Optional ``tid -> priority`` map (higher runs first among ready
        tasks).  Defaults to the flops-weighted critical-path depth.
    raise_on_error:
        If True (default) the first task error (or :class:`TimeoutError`) is
        raised after dispatch has stopped; the partial report is attached to
        the exception as ``exc.execution_report``.  Pass False to inspect the
        partial :class:`ExecutionReport` (``errors`` / ``cancelled`` /
        ``timed_out``) instead -- except for a ``KeyboardInterrupt`` /
        ``SystemExit`` raised inside a task body, which is always re-raised.
    trace:
        Record a measured :class:`~repro.runtime.tracing.ExecutionTrace`
        (per-task spans, per-worker dispatch overhead and wait time) onto
        ``report.trace``.  The workers only append stamp tuples while tasks
        run; span objects are built after the graph drains.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When given,
        the execution records task counters, per-kind latency and
        queue-delay histograms, scheduler overhead, the ready-queue high
        water and memory gauges into it (metric names in
        :mod:`repro.obs.runtime_metrics`), and ``report.memory`` is filled.
        The same stamps feed the trace and the histograms, so the two
        surfaces always agree; ``report.trace`` is still only attached for
        ``trace=True``.

    Returns
    -------
    ExecutionReport
        ``report.ok`` is True when every task ran without raising.
    """
    t0 = time.perf_counter()
    deadline = None if timeout is None else t0 + timeout
    # Metrics ride on the same stamps tracing uses: enabling either turns
    # stamping on, and the histograms are derived from the built spans.
    stamp = trace or metrics is not None
    succ, pred = graph.adjacency()
    remaining = {t.tid: len(pred.get(t.tid, [])) for t in graph.tasks}
    # Report the worker count that will actually run, not the request.
    actual_workers = max(1, min(n_workers, graph.num_tasks)) if graph.num_tasks else 0
    report = ExecutionReport(
        num_tasks=graph.num_tasks,
        num_workers=actual_workers,
        requested_workers=n_workers,
    )
    if graph.num_tasks == 0:
        report.wall_time = time.perf_counter() - t0
        if metrics is not None:
            from repro.obs.runtime_metrics import record_execution_metrics

            report.memory = record_execution_metrics(
                metrics, backend="parallel", report=report, graph=graph
            )
        return report

    # Fail fast on graphs the scheduler could never drain -- otherwise every
    # worker would block on the condition forever.
    graph.validate_drainable()

    if priorities is None:
        priorities = graph.critical_path_priorities()

    cond = threading.Condition()
    # Min-heap on (-priority, tid): highest priority first, insertion order as
    # a deterministic tie-break.  All mutable state below is guarded by `cond`.
    ready: List[tuple] = [
        (-priorities.get(tid, 0.0), tid) for tid, cnt in remaining.items() if cnt == 0
    ]
    heapq.heapify(ready)
    started: set = set()
    cancelled_set: set = set()
    state = {"inflight": 0, "stop": False, "timed_out": False, "ready_hw": len(ready)}
    # Tracing state: per-worker raw stamp tuples and measured dispatch
    # overhead, plus the ready-time of every dispatched task (guarded by
    # `cond`, like the heap it annotates).
    ready_at: Dict[int, float] = {}
    span_logs: List[List[tuple]] = [[] for _ in range(actual_workers)]
    overhead_log: List[float] = [0.0] * actual_workers
    if stamp:
        for _, tid in ready:
            ready_at[tid] = t0

    def _settled() -> int:  # caller holds cond
        return len(report.executed) + len(report.errors) + len(report.cancelled)

    def _cancel_unstarted() -> None:  # caller holds cond
        ready.clear()
        for task in graph.tasks:
            if task.tid not in started and task.tid not in cancelled_set:
                cancelled_set.add(task.tid)
                report.cancelled.append(task.tid)
        state["stop"] = True
        cond.notify_all()

    def _expired() -> bool:  # caller holds cond
        # The timeout is a deadline looked at whenever a worker is about to
        # dispatch or wait: tasks in flight finish, nothing new starts.
        if deadline is None or time.perf_counter() < deadline:
            return False
        state["timed_out"] = True
        _cancel_unstarted()
        return True

    def worker(widx: int) -> None:
        spans = span_logs[widx]
        overhead = 0.0
        t_start = t_end = 0.0
        while True:
            # Dispatch: everything inside the condition block that is not
            # cond.wait counts as measured runtime overhead; the wait itself
            # is the worker's idle time.
            tb0 = time.perf_counter() if stamp else 0.0
            idle_round = 0.0
            with cond:
                while not state["stop"] and not _expired() and not ready:
                    tw0 = time.perf_counter()
                    cond.wait(None if deadline is None else max(0.0, deadline - tw0))
                    idle_round += time.perf_counter() - tw0
                if state["stop"]:
                    overhead_log[widx] = overhead
                    return
                _, tid = heapq.heappop(ready)
                started.add(tid)
                state["inflight"] += 1
            task = graph.task(tid)
            error: Optional[BaseException] = None
            if stamp:
                t_start = time.perf_counter()
                overhead += (t_start - tb0) - idle_round
            try:
                task.run()
            except BaseException as exc:  # propagate through the report
                error = exc
            if stamp:
                t_end = time.perf_counter()
            with cond:
                state["inflight"] -= 1
                if error is not None:
                    report.errors[tid] = error
                    _cancel_unstarted()
                else:
                    report.executed.append(tid)
                    if stamp:
                        spans.append(
                            (tid, task.name, task.kind, task.phase, widx, 0,
                             ready_at.get(tid, t0), t_start, t_end)
                        )
                    if not state["stop"]:
                        now = time.perf_counter() if stamp else 0.0
                        for nxt in succ.get(tid, []):
                            remaining[nxt] -= 1
                            if remaining[nxt] == 0:
                                heapq.heappush(ready, (-priorities.get(nxt, 0.0), nxt))
                                if stamp:
                                    ready_at[nxt] = now
                        if stamp and len(ready) > state["ready_hw"]:
                            state["ready_hw"] = len(ready)
                        if ready:
                            cond.notify_all()
                if _settled() == graph.num_tasks and state["inflight"] == 0:
                    state["stop"] = True
                    cond.notify_all()
            if stamp:
                overhead += time.perf_counter() - t_end

    # Caller-runs: the calling thread is worker 0 and only the other
    # n_workers - 1 are threads, so a one-worker execution starts no thread
    # at all (no GIL hand-off per task, no second malloc arena).
    threads = [
        threading.Thread(target=worker, args=(i,), name=f"executor-{i}", daemon=True)
        for i in range(1, actual_workers)
    ]
    for thread in threads:
        thread.start()

    try:
        worker(0)
    finally:
        # Also reached when worker 0 is interrupted between tasks
        # (KeyboardInterrupt): stop dispatch and wait for in-flight tasks, so
        # no worker keeps mutating shared state after execute_graph has
        # returned or raised.
        with cond:
            if not state["stop"]:
                _cancel_unstarted()
        for thread in threads:
            thread.join()
        report.timed_out = state["timed_out"]
        report.wall_time = time.perf_counter() - t0
        if stamp:
            from repro.runtime.tracing import ExecutionTrace, build_spans

            tr = ExecutionTrace(
                backend="parallel",
                n_workers=actual_workers,
                wall_time=report.wall_time,
            )
            tr.spans = build_spans(
                [item for log in span_logs for item in log], t0
            )
            tr.worker_overhead = {w: o for w, o in enumerate(overhead_log)}
            if trace:
                report.trace = tr
            if metrics is not None:
                from repro.obs.runtime_metrics import record_execution_metrics

                report.memory = record_execution_metrics(
                    metrics,
                    backend="parallel",
                    report=report,
                    trace=tr,
                    graph=graph,
                    queue_high_water=state["ready_hw"],
                )

    # An interrupt that landed inside a task body on worker 0 was recorded
    # like any task error; it is never the caller's to swallow.
    interrupt = next(
        (exc for exc in report.errors.values() if not isinstance(exc, Exception)), None
    )
    if interrupt is not None:
        interrupt.execution_report = report
        raise interrupt
    if raise_on_error:
        # A task error outranks a concurrent timeout: TimeoutError means
        # "every started task completed", which a failed body violates.
        if report.errors:
            first = next(iter(report.errors.values()))
            first.execution_report = report
            raise first
        if report.timed_out:
            err = TimeoutError(
                f"graph execution exceeded {timeout}s "
                f"({len(report.executed)}/{report.num_tasks} tasks completed)"
            )
            err.execution_report = report
            raise err
    return report

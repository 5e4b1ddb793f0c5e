"""Shared-memory parallel execution of a recorded task graph.

This is the "real execution" counterpart of the simulator: ``n_workers``
workers -- the calling thread plus ``n_workers - 1`` threads -- execute the
task bodies respecting the DAG dependencies.  NumPy/BLAS
releases the GIL inside the dense kernels, so genuinely concurrent execution
of independent tasks is possible.  Used by the ``"parallel"`` execution mode
of the DTD factorizations (:func:`repro.core.hss_ulv_dtd.hss_ulv_factorize_dtd`
and :func:`repro.core.blr2_ulv_dtd.blr2_ulv_factorize_dtd`) and by examples,
benchmarks and tests to demonstrate that the task-based factorization produces
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
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.runtime.dag import TaskGraph

__all__ = ["execute_graph", "execute_graph_processes", "ExecutionReport"]


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
    fragments:
        Per-worker result fragments (process-pool executions only).
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
        self.fragments: List = []
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


# -- process-pool execution ---------------------------------------------------
#
# The pool workers are forked, so they inherit the recorded graph (closures
# and all) plus the pre-execution numerical state through this module-level
# slot -- nothing but task ids and handle values ever crosses the process
# boundary.  The slot is populated before the pool is created and cleared in
# the `finally` of execute_graph_processes; ProcessPoolExecutor forks its
# workers lazily from the submitting (main) thread, so every worker sees a
# consistent snapshot.
_POOL_STATE: Dict[str, Any] = {}


def _pack_oob(obj: Any) -> tuple:
    """Serialize for the pool channel: protocol 5 with out-of-band buffers.

    Returns ``(payload, buffers)``: the pickle stream without any array bytes
    in it, plus each array's flat bytes as a writable ``bytearray``.  The
    pool's own (protocol-4) channel pickler cannot ship ``PickleBuffer``
    views, so each buffer is flattened to a ``bytearray`` -- the one copy the
    shuttle makes per direction; :func:`_unpack_oob` then reconstructs every
    array as a zero-copy (writable) view over its received buffer instead of
    copying it back out of a pickle stream.
    """
    pickle_buffers: List[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=pickle_buffers.append)
    return payload, [bytearray(b.raw()) for b in pickle_buffers]


def _unpack_oob(packed: tuple) -> Any:
    payload, buffers = packed
    return pickle.loads(payload, buffers=buffers)


def _oob_nbytes(packed: tuple) -> int:
    """Physical bytes of a packed message (stream + out-of-band buffers)."""
    payload, buffers = packed
    return len(payload) + sum(len(b) for b in buffers)


def _pool_run_task(tid: int, packed_inject: tuple) -> tuple:
    """Run one task inside a pool worker.

    ``packed_inject`` is the :func:`_pack_oob` form of the ``hid -> value``
    dict of bound read handles the parent injects.  Returns
    ``(packed_writes, span, phys_nbytes)``: the written values in the same
    packed form, ``span`` None unstamped or the raw stamp tuple ``(pid,
    install_t0, install_t1, run_t0, run_t1, gather_t1)`` -- absolute
    ``perf_counter`` stamps on the parent's clock (fork shares
    ``CLOCK_MONOTONIC``), split into handle-install (recv), task body
    (compute) and written-value gather (send) intervals -- and
    ``phys_nbytes`` the measured physical size of the written values (free
    from the packed form; None when the execution carries no metrics
    registry).
    """
    stamp = _POOL_STATE.get("trace", False)
    t_in0 = time.perf_counter() if stamp else 0.0
    graph = _POOL_STATE["graph"]
    by_hid = _POOL_STATE["by_hid"]
    for hid, value in _unpack_oob(packed_inject).items():
        by_hid[hid].set_value(value)
    task = graph.task(tid)
    t_run0 = time.perf_counter() if stamp else 0.0
    task.run()
    t_run1 = time.perf_counter() if stamp else 0.0
    out: Dict[int, Any] = {}
    for handle in task.write_handles:
        if handle.bound:
            out[handle.hid] = handle.get_value()
    packed_out = _pack_oob(out)
    phys = None
    if _POOL_STATE.get("measure", False) and out:
        phys = _oob_nbytes(packed_out)
    if not stamp:
        return packed_out, None, phys
    return packed_out, (os.getpid(), t_in0, t_run0, t_run0, t_run1, time.perf_counter()), phys


def _pool_collect(_slot: int) -> Any:
    """Gather one worker's result fragment (runs inside the worker).

    Blocks on a barrier sized to the worker count first, which forces the
    pool to stand up every worker and hand each exactly one collect call --
    so every worker's fragment is gathered exactly once.
    """
    barrier = _POOL_STATE["barrier"]
    if barrier is not None:
        barrier.wait(timeout=120.0)
    collect = _POOL_STATE["collect"]
    return collect() if collect is not None else None


def _check_bound_dataflow(graph: TaskGraph) -> None:
    """Every cross-task value flow must go through a *bound* handle.

    The process backend ships written handle values between workers through
    their getters/setters; a task reading a handle some earlier task wrote
    without accessors would silently read stale forked state.  Task chains
    passing state outside handles must be fused first (the `process` backend
    enables fusion by default).
    """
    last_writer: Dict[int, int] = {}
    for task in graph.tasks:
        for handle in task.read_handles:
            writer = last_writer.get(handle.hid)
            if writer is not None and writer != task.tid and not handle.bound:
                raise RuntimeError(
                    f"process backend: task {task.tid} ({task.name!r}) reads "
                    f"unbound handle {handle.name!r} written by task {writer}; "
                    "bind the handle (DataHandle.bind/bind_item) or fuse the chain"
                )
        for handle in task.write_handles:
            last_writer[handle.hid] = task.tid


def execute_graph_processes(
    graph: TaskGraph,
    *,
    n_workers: int = 4,
    timeout: Optional[float] = None,
    priorities: Optional[Mapping[int, float]] = None,
    collect: Optional[Callable[[], Any]] = None,
    raise_on_error: bool = True,
    trace: bool = False,
    metrics=None,
) -> ExecutionReport:
    """Execute all task bodies of ``graph`` on ``n_workers`` forked processes.

    The GIL-free counterpart of :func:`execute_graph`: workers are forked
    from the current process (inheriting the graph and all pre-execution
    state), ready tasks are dispatched highest-critical-path-first, and the
    parent holds the authoritative copy of every *bound* handle -- written
    values are shipped back after each task and injected into the process
    that runs a consumer, so out-of-order cross-process execution is exactly
    as bit-identical as the thread pool.

    ``collect`` (optional) is invoked once inside every worker after the
    graph drains; the returned fragments are stored in
    ``ExecutionReport.fragments`` so results kept outside handles (per-node
    factor stores, solution blocks) can be merged by the caller.

    Error and timeout semantics mirror :func:`execute_graph`: the first task
    error cancels all not-yet-started tasks, a timeout cancels the rest but
    lets in-flight bodies finish, and with ``raise_on_error`` the partial
    report rides on the raised exception as ``exc.execution_report``.

    With ``trace=True`` every worker stamps its task bodies and the
    handle-shuttle intervals (install/gather, reported as communication) and
    ships the stamps back with the results; the parent's scheduling loop time
    is measured as ``scheduler_overhead``.  Fork shares ``CLOCK_MONOTONIC``,
    so child stamps merge directly onto the parent's timeline in
    ``report.trace``.

    With a ``metrics`` registry the execution additionally records task
    counters and latency histograms (derived from the same stamps) plus the
    handle-shuttle traffic as comm metrics: every inject (parent -> pool)
    and every gather (pool -> parent) counts one message, with *logical*
    bytes from the declared handle sizes and *physical* bytes measured from
    the serialized payloads (protocol 5 with out-of-band buffers: array
    bytes travel as flat buffers beside a tiny pickle stream, and the
    receiving side reconstructs each array as a zero-copy view over its
    buffer).  ``report.memory`` is filled.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError("the process backend requires fork (POSIX)")
    t0 = time.perf_counter()
    stamp = trace or metrics is not None
    succ, pred = graph.adjacency()
    remaining = {t.tid: len(pred.get(t.tid, [])) for t in graph.tasks}
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
                metrics, backend="process", report=report, graph=graph
            )
        return report

    graph.validate_drainable()
    _check_bound_dataflow(graph)

    if priorities is None:
        priorities = graph.critical_path_priorities(succ)

    by_hid: Dict[int, Any] = {}
    for task in graph.tasks:
        for access in task.accesses:
            by_hid.setdefault(access.handle.hid, access.handle)

    ctx = multiprocessing.get_context("fork")
    deadline = None if timeout is None else t0 + timeout
    ready: List[tuple] = [
        (-priorities.get(tid, 0.0), tid) for tid, cnt in remaining.items() if cnt == 0
    ]
    heapq.heapify(ready)
    dirty: set = set()          # hids written by completed tasks
    started: set = set()
    futures: Dict[Any, int] = {}  # future -> tid

    # Tracing state: parent-side submit stamps (queue_t of each span), raw
    # child stamp tuples, and the parent scheduling-loop time (everything the
    # parent does between waits, accounted as central scheduler overhead).
    submit_at: Dict[int, float] = {}
    child_spans: List[tuple] = []   # (tid, pid, in0, in1, run0, run1, out1)
    sched_overhead = 0.0
    # Metrics state: handle-shuttle messages as (src, dst, logical, physical)
    # byte tuples, recorded after the run, and the ready-queue high water.
    shuttle_msgs: List[tuple] = []
    ready_hw = len(ready)

    _POOL_STATE["graph"] = graph
    _POOL_STATE["by_hid"] = by_hid
    _POOL_STATE["collect"] = collect
    _POOL_STATE["trace"] = stamp
    _POOL_STATE["measure"] = metrics is not None
    _POOL_STATE["barrier"] = ctx.Barrier(actual_workers) if collect is not None else None
    pool = ProcessPoolExecutor(max_workers=actual_workers, mp_context=ctx)
    try:
        def submit_ready() -> None:
            nonlocal ready_hw
            if stamp and len(ready) > ready_hw:
                ready_hw = len(ready)
            while ready:
                _, tid = heapq.heappop(ready)
                task = graph.task(tid)
                inject = {
                    h.hid: h.get_value()
                    for h in task.read_handles
                    if h.bound and h.hid in dirty
                }
                packed = _pack_oob(inject)
                started.add(tid)
                if stamp:
                    submit_at[tid] = time.perf_counter()
                if metrics is not None and inject:
                    logical = sum(
                        h.nbytes for h in task.read_handles
                        if h.bound and h.hid in inject
                    )
                    shuttle_msgs.append(("parent", "pool", logical, _oob_nbytes(packed)))
                futures[pool.submit(_pool_run_task, tid, packed)] = tid

        submit_ready()
        stop = False
        while futures and not stop:
            budget = None if deadline is None else max(0.0, deadline - time.perf_counter())
            done, _ = wait(futures, timeout=budget, return_when=FIRST_COMPLETED)
            if not done:
                report.timed_out = True
                break
            ts0 = time.perf_counter() if stamp else 0.0
            for fut in done:
                tid = futures.pop(fut)
                try:
                    packed_writes, span, phys = fut.result()
                except BaseException as exc:
                    report.errors[tid] = exc
                    stop = True
                    continue
                writes = _unpack_oob(packed_writes)
                for hid, value in writes.items():
                    by_hid[hid].set_value(value)
                    dirty.add(hid)
                report.executed.append(tid)
                if span is not None:
                    child_spans.append((tid,) + span)
                if phys is not None:
                    logical = sum(by_hid[hid].nbytes for hid in writes)
                    shuttle_msgs.append(("pool", "parent", logical, phys))
                if not stop:
                    for nxt in succ.get(tid, []):
                        remaining[nxt] -= 1
                        if remaining[nxt] == 0:
                            heapq.heappush(ready, (-priorities.get(nxt, 0.0), nxt))
            if not stop:
                submit_ready()
            if stamp:
                sched_overhead += time.perf_counter() - ts0

        if report.timed_out or report.errors:
            # Cancel whatever has not started; in-flight bodies finish (their
            # processes cannot be interrupted mid-kernel) and are recorded.
            for fut, tid in list(futures.items()):
                if fut.cancel():
                    started.discard(tid)
                    del futures[fut]
            for fut, tid in futures.items():
                try:
                    packed_writes, span, phys = fut.result()
                except BaseException as exc:
                    report.errors.setdefault(tid, exc)
                else:
                    writes = _unpack_oob(packed_writes)
                    for hid, value in writes.items():
                        by_hid[hid].set_value(value)
                        dirty.add(hid)
                    report.executed.append(tid)
                    if span is not None:
                        child_spans.append((tid,) + span)
                    if phys is not None:
                        logical = sum(by_hid[hid].nbytes for hid in writes)
                        shuttle_msgs.append(("pool", "parent", logical, phys))
            futures.clear()
            for task in graph.tasks:
                if task.tid not in started:
                    report.cancelled.append(task.tid)
        elif collect is not None:
            # One blocking collect call per worker: the barrier holds each
            # worker until all of them run one, so the pool spawns any
            # workers it never needed during execution (their fragments are
            # near-empty forks of the parent, and merging is idempotent).
            collect_futures = [
                pool.submit(_pool_collect, slot) for slot in range(actual_workers)
            ]
            report.fragments = [f.result(timeout=150.0) for f in collect_futures]
    finally:
        pool.shutdown(wait=True)
        _POOL_STATE.clear()
        report.wall_time = time.perf_counter() - t0
        if stamp:
            from repro.runtime.tracing import CommSpan, ExecutionTrace, build_spans

            tr = ExecutionTrace(
                backend="process",
                n_workers=actual_workers,
                wall_time=report.wall_time,
                scheduler_overhead=sched_overhead,
            )
            # Map distinct worker pids onto dense worker indices in
            # first-seen (completion) order.
            slot_of: Dict[int, int] = {}
            raw: List[tuple] = []
            for tid, pid, t_in0, t_in1, t_run0, t_run1, t_out1 in child_spans:
                widx = slot_of.setdefault(pid, len(slot_of))
                task = graph.task(tid)
                raw.append(
                    (tid, task.name, task.kind, task.phase, widx, widx,
                     submit_at.get(tid, t0), t_run0, t_run1)
                )
                # Handle shuttling across the fork boundary: install of
                # injected values (recv) and gather of written values (send).
                if t_in1 > t_in0:
                    tr.comm.append(CommSpan(
                        action="recv", worker=widx, src=-1, dst=widx,
                        edge=(tid, tid), nbytes=0,
                        start_t=t_in0 - t0, end_t=t_in1 - t0,
                    ))
                if t_out1 > t_run1:
                    tr.comm.append(CommSpan(
                        action="send", worker=widx, src=widx, dst=-1,
                        edge=(tid, tid), nbytes=0,
                        start_t=t_run1 - t0, end_t=t_out1 - t0,
                    ))
            tr.spans = build_spans(raw, t0)
            if trace:
                report.trace = tr
            if metrics is not None:
                from repro.obs.runtime_metrics import (
                    record_comm_message,
                    record_execution_metrics,
                )

                report.memory = record_execution_metrics(
                    metrics,
                    backend="process",
                    report=report,
                    trace=tr,
                    graph=graph,
                    queue_high_water=ready_hw,
                )
                for src, dst, logical, physical in shuttle_msgs:
                    record_comm_message(
                        metrics, "process",
                        src=src, dst=dst,
                        logical_bytes=logical, physical_bytes=physical,
                    )

    if raise_on_error:
        if report.errors:
            first = next(iter(report.errors.values()))
            try:
                first.execution_report = report
            except AttributeError:
                pass  # some builtin exceptions reject new attributes
            raise first
        if report.timed_out:
            err = TimeoutError(
                f"graph execution exceeded {timeout}s "
                f"({len(report.executed)}/{report.num_tasks} tasks completed)"
            )
            err.execution_report = report
            raise err
    return report

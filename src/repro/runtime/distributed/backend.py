"""Multi-process execution of a recorded task graph (owner-computes placement).

The distributed counterpart of :func:`repro.runtime.executor.execute_graph`:
``nodes`` worker *processes* (forked, so each inherits the recorded graph and
the pre-execution numerical state) each run an event loop over the tasks they
own.  Placement is owner-computes: a task executes on the process that owns
its primary written handle, as assigned by a
:class:`~repro.distribution.strategies.DistributionStrategy` (row-cyclic /
block-cyclic, paper Sec. 4.3).  Within a process, ready tasks are dispatched
highest critical-path priority first, mirroring the thread executor's
list-scheduling heuristic.

Data movement is explicit: every dependency edge whose endpoints live on
different processes becomes exactly one message
(:mod:`repro.runtime.distributed.comm` plans and accounts these).  What the
message carries depends on the **data plane**:

* ``"shm"`` (default) -- the zero-copy plane.  The producer writes each
  ndarray payload into a ``multiprocessing.shared_memory`` segment through
  the per-run :class:`~repro.runtime.distributed.blockstore.BlockStore` and
  the message carries metadata only (segment name, dtype, shape); the
  consumer installs the value as a zero-copy view over the mapped segment.
  Non-array values fall back to inline pickle inside the same message.
* ``"pickle"`` -- the legacy plane: the message payload is the pickled tuple
  of handle values.

Either way, receipt of the message releases the dependency *and* installs the
remote value into the consumer's address space -- PaRSEC's data-flow
semantics, where data availability and dependency release are one event; the
planes are bit-identical and differ only in which bytes cross the queue
(``payload_nbytes``, the wire) versus shared memory (``mapped_nbytes``).
Transfers overlap with compute: sends are posted without blocking the task
loop, receives are drained opportunistically between tasks, and an idle
worker parks in a *blocking* ``Queue.get`` (no sleep-polling) until data
arrives.  The parent likewise blocks in ``multiprocessing.connection.wait``
on the report queue and every live worker's sentinel, so worker results and
worker deaths both wake it immediately.

Because every process discovers the whole graph (each worker walks the full
task list to find its local tasks and compute priorities), the backend
reproduces the DTD discovery behaviour the paper identifies as the scaling
limiter (Sec. 5.3.3).

Results are gathered through per-worker ``collect`` callbacks: after a worker
drains its local tasks it serializes a *fragment* of the results it produced
(e.g. the factor pieces of its block rows) back to the parent, which merges
the fragments -- so the parent ends up with factors bit-identical to a
sequential in-process run.
"""

from __future__ import annotations

import heapq
import os
import pickle
import queue as queue_mod
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.runtime.dag import TaskGraph
from repro.runtime.distributed.blockstore import (
    BlockStore,
    decode_payload,
    encode_payload,
    resolve_data_plane,
)
from repro.runtime.distributed.comm import CommEvent, CommLedger
from repro.runtime.distributed.protocol import DataMessage, RemoteTaskError, WorkerResult

__all__ = [
    "DistributedReport",
    "execute_graph_distributed",
    "measured_vs_planned_comm",
    "resolve_owners",
]


@dataclass
class DistributedReport:
    """Summary of one multi-process graph execution.

    Attributes
    ----------
    nodes:
        Number of worker processes.
    data_plane:
        The wire representation the run used: ``"shm"`` (descriptor messages
        + shared-memory segments) or ``"pickle"`` (full pickled payloads).
    executed:
        Task ids that completed, grouped by ascending worker rank (each
        rank's ids in its local completion order).
    errors:
        ``tid -> RemoteTaskError`` for task bodies that raised in a worker.
    cancelled:
        Task ids that never ran because of an error or timeout.
    timed_out:
        True when the parent's overall ``timeout`` expired.
    ledger:
        Communication ledger aggregating every inter-process message
        (logical ``total_bytes``, wire ``total_payload_bytes``, shared-memory
        ``total_mapped_bytes``).
    segments_swept:
        Shared-memory segments the parent's cleanup sweep had to unlink after
        the run -- always 0 for a clean execution (each segment's single
        consumer unlinks it on install); positive only on error/timeout/
        cancellation paths where transfers were orphaned in flight.
    fragments:
        Per-worker result fragments returned by the ``collect`` callback.
    per_rank:
        Per-worker statistics (task count, messages sent, wall time).
    wall_time:
        Parent-side wall-clock seconds for the whole execution.
    trace:
        Measured :class:`~repro.runtime.tracing.ExecutionTrace` merging all
        ranks onto one clock-aligned timeline (``trace=True`` runs only).
    memory:
        :class:`~repro.obs.memory.MemoryStats` with the parent's peak RSS,
        every rank's peak RSS and the handle-table byte accounting (metrics
        runs only).
    """

    nodes: int
    num_tasks: int
    data_plane: str = "shm"
    executed: List[int] = field(default_factory=list)
    errors: Dict[int, RemoteTaskError] = field(default_factory=dict)
    cancelled: List[int] = field(default_factory=list)
    timed_out: bool = False
    ledger: CommLedger = field(default_factory=CommLedger)
    segments_swept: int = 0
    fragments: List[Any] = field(default_factory=list)
    per_rank: Dict[int, Dict[str, float]] = field(default_factory=dict)
    wall_time: float = 0.0
    trace: Any = None
    memory: Any = None

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and not self.cancelled
            and not self.timed_out
            and len(self.executed) == self.num_tasks
        )

    def __repr__(self) -> str:
        # Same shape as ExecutionReport.__repr__: surface error/cancelled
        # counts and the timeout flag, not just the happy-path statistics.
        return (
            f"DistributedReport(nodes={self.nodes}, tasks={self.num_tasks}, "
            f"data_plane={self.data_plane!r}, "
            f"executed={len(self.executed)}, errors={len(self.errors)}, "
            f"cancelled={len(self.cancelled)}, timed_out={self.timed_out}, "
            f"messages={self.ledger.num_messages}, "
            f"comm_bytes={self.ledger.total_bytes}, wall_time={self.wall_time:.3g}s)"
        )


def resolve_owners(graph: TaskGraph, nodes: int, strategy=None) -> Dict[int, int]:
    """Owner-computes placement map ``tid -> rank`` for every task.

    When ``strategy`` is given, it (re)assigns every handle's owner first.
    Tasks whose handles carry no ownership information fall back to
    ``tid % nodes``; every rank is reduced modulo ``nodes`` so a strategy
    configured for more processes still yields a valid placement.
    """
    if strategy is not None:
        handles = {a.handle for t in graph.tasks for a in t.accesses}
        strategy.assign(handles)
    proc_of: Dict[int, int] = {}
    for task in graph.tasks:
        proc = task.owner_process()
        proc_of[task.tid] = (proc if proc is not None else task.tid) % nodes
    return proc_of


def measured_vs_planned_comm(graph: TaskGraph, report: "DistributedReport", nodes: int):
    """``(measured, planned)`` communication totals of one distributed run.

    Both are ``(message_count, model_bytes)`` pairs: the measured side from
    the run's ledger, the planned side from the static transfer plan implied
    by the owners recorded on the graph's handles.  The single definition of
    "the ledger matches the plan" shared by the graph builders, the test
    harness and the scaling experiments -- a correct execution measures
    exactly what the plan predicts.  The model bytes are the declared handle
    sizes, so the equality holds on *both* data planes (the plane changes
    only the physical representation, never the logical volume).
    """
    from repro.runtime.distributed.comm import expected_comm

    proc_of = resolve_owners(graph, nodes)
    measured = (report.ledger.num_messages, report.ledger.total_bytes)
    return measured, expected_comm(graph, proc_of)


#: ``prctl`` option that delivers a signal to the caller when its parent dies.
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Make this forked rank receive SIGTERM when the forking thread exits.

    Linux only (``prctl(PR_SET_PDEATHSIG)``); elsewhere a rank can outlive a
    killed parent.  The forking thread waits in
    ``execute_graph_distributed`` until every rank is joined, so it cannot
    exit early on a healthy run.  If the parent already died between the
    fork and the ``prctl`` call, the signal will never come: exit now.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    import multiprocessing

    parent = multiprocessing.parent_process()
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    # Best effort: a failed call leaves the rank as it was before.
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    if parent is not None and os.getppid() != parent.pid:
        os._exit(1)


def _worker_main(
    rank: int,
    graph: TaskGraph,
    proc_of: Mapping[int, int],
    priorities: Mapping[int, float],
    inboxes: List[Any],
    report_queue: Any,
    collect: Optional[Callable[[], Any]],
    store: Optional[BlockStore] = None,
    trace: bool = False,
    metrics: bool = False,
) -> None:
    """Event loop of one worker process (runs in a forked child).

    ``store`` selects the data plane: a :class:`BlockStore` exports array
    payloads into shared-memory segments and ships descriptors (the shm
    plane); ``None`` pickles the full values into the message (the legacy
    plane).  When idle with no ready task, the worker blocks in
    ``inbox.get()`` -- the next event can only be a data arrival, and the
    parent supervises liveness through the process sentinel, so there is
    nothing to poll for.

    With ``trace`` the worker stamps every task body, every export+send
    and receive+install interval, and its bookkeeping time, shipping the
    raw tuples back in :class:`WorkerResult` -- all stamps are absolute
    ``perf_counter`` values on the parent's clock (fork shares
    ``CLOCK_MONOTONIC``).  Comm-span byte counts are wire + mapped bytes
    (the data the action actually moved, on either plane).

    With ``metrics`` the same stamps additionally feed a rank-local
    :class:`~repro.obs.metrics.MetricsRegistry`, whose snapshot ships back
    in ``result.metrics`` for the parent to merge.

    The rank first arranges to die with its parent (:func:`_die_with_parent`),
    so a killed parent leaves no rank behind.
    """
    _die_with_parent()
    t0 = time.perf_counter()
    stamp = trace or metrics
    result = WorkerResult(rank=rank)
    succ, pred = graph.adjacency()
    local = [t.tid for t in graph.tasks if proc_of[t.tid] == rank]
    remaining = {tid: len(pred.get(tid, [])) for tid in local}
    # Min-heap on (-priority, tid): highest critical-path depth first, insertion
    # order as the deterministic tie-break -- same policy as the thread executor.
    ready = [(-priorities.get(tid, 0.0), tid) for tid in local if remaining[tid] == 0]
    heapq.heapify(ready)
    inbox = inboxes[rank]
    ready_at: Dict[int, float] = {}
    ready_hw = len(ready)
    if stamp:
        for _, tid in ready:
            ready_at[tid] = t0

    def apply_message(msg: DataMessage) -> None:
        # Install the remote values, then release the dependency: receipt of
        # the data *is* the producer's completion notification.  On the shm
        # plane the install attaches the producer's segments and binds
        # zero-copy views; the bytes never cross the queue.
        nonlocal ready_hw
        tr0 = time.perf_counter() if stamp else 0.0
        handles = graph.edge_data.get(msg.edge, [])
        if store is not None:
            values, mapped_in = store.install(decode_payload(msg.payload))
        else:
            values = pickle.loads(msg.payload)
            mapped_in = 0
        for handle, value in zip(handles, values):
            if value is not None:
                handle.set_value(value)
        if stamp:
            result.comm_spans.append(
                ("recv", msg.src, rank, msg.edge, len(msg.payload) + mapped_in,
                 tr0, time.perf_counter())
            )
        consumer = msg.edge[1]
        remaining[consumer] -= 1
        if remaining[consumer] == 0:
            heapq.heappush(ready, (-priorities.get(consumer, 0.0), consumer))
            if stamp:
                ready_at[consumer] = time.perf_counter()
                ready_hw = max(ready_hw, len(ready))

    try:
        while len(result.executed) < len(local):
            # Drain any transfers that arrived while computing.
            while True:
                try:
                    apply_message(inbox.get_nowait())
                except queue_mod.Empty:
                    break
            if not ready:
                # Nothing runnable: block until data arrives (dependency
                # release *is* data receipt, so there is no other event to
                # wait for).  No timeout -- the parent owns liveness: it
                # wakes on any worker death and terminates the rest.
                apply_message(inbox.get())
                continue
            _, tid = heapq.heappop(ready)
            task = graph.task(tid)
            t_start = time.perf_counter() if stamp else 0.0
            try:
                task.run()
            except BaseException as exc:
                result.error = RemoteTaskError(
                    rank, tid, task.name, repr(exc), traceback.format_exc()
                )
                break
            t_end = time.perf_counter() if stamp else 0.0
            result.executed.append(tid)
            if stamp:
                result.spans.append((tid, ready_at.get(tid, t0), t_start, t_end))
            comm_round = 0.0
            for nxt in succ.get(tid, []):
                dst = proc_of[nxt]
                if dst == rank:
                    remaining[nxt] -= 1
                    if remaining[nxt] == 0:
                        heapq.heappush(ready, (-priorities.get(nxt, 0.0), nxt))
                        if stamp:
                            ready_at[nxt] = time.perf_counter()
                            ready_hw = max(ready_hw, len(ready))
                else:
                    handles = graph.edge_data.get((tid, nxt), [])
                    ts0 = time.perf_counter() if stamp else 0.0
                    values = tuple(h.get_value() if h.bound else None for h in handles)
                    if store is not None:
                        # Export array payloads into shared memory; only the
                        # descriptor list crosses the queue.
                        descriptors, mapped = store.export((tid, nxt), values)
                        payload = encode_payload(descriptors)
                    else:
                        # Serialize once: the pickled payload both crosses
                        # the queue and yields the measured byte count.
                        payload = pickle.dumps(values, pickle.HIGHEST_PROTOCOL)
                        mapped = 0
                    inboxes[dst].put(
                        DataMessage(edge=(tid, nxt), src=rank, dst=dst, payload=payload)
                    )
                    if stamp:
                        ts1 = time.perf_counter()
                        comm_round += ts1 - ts0
                        result.comm_spans.append(
                            ("send", rank, dst, (tid, nxt), len(payload) + mapped,
                             ts0, ts1)
                        )
                    result.events.append(
                        CommEvent(
                            src=rank,
                            dst=dst,
                            edge=(tid, nxt),
                            handles=tuple(h.name for h in handles),
                            nbytes=int(sum(h.nbytes for h in handles)),
                            payload_nbytes=len(payload),
                            mapped_nbytes=mapped,
                        )
                    )
            if stamp:
                # Post-task bookkeeping (dependency release, scheduling),
                # minus the timed communication it contained.
                result.overhead += (time.perf_counter() - t_end) - comm_round
        if result.error is None and collect is not None:
            result.fragment = collect()
    except BaseException as exc:  # protocol/serialization failure, not a task body
        if result.error is None:
            result.error = RemoteTaskError(rank, -1, "<runtime>", repr(exc), traceback.format_exc())
    if metrics:
        # Rank-local registry, shipped home as a snapshot and merged by the
        # parent -- recorded even on the error path, so a failed execution
        # still accounts the tasks and messages that did happen.
        try:
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.runtime_metrics import record_queue_depth, record_rank_execution

            registry = MetricsRegistry()
            record_rank_execution(
                registry,
                backend="distributed",
                rank=rank,
                graph=graph,
                spans=result.spans,
                comm_events=result.events,
                comm_spans=result.comm_spans,
                overhead=result.overhead,
            )
            record_queue_depth(registry, "distributed", ready_hw)
            result.metrics = registry.snapshot()
        except BaseException as exc:  # never let accounting kill the report
            if result.error is None:
                result.error = RemoteTaskError(
                    rank, -1, "<metrics>", repr(exc), traceback.format_exc()
                )
    result.wall_time = time.perf_counter() - t0
    report_queue.put(result)


def execute_graph_distributed(
    graph: TaskGraph,
    *,
    nodes: int = 2,
    strategy=None,
    collect: Optional[Callable[[], Any]] = None,
    timeout: Optional[float] = None,
    raise_on_error: bool = True,
    trace: bool = False,
    metrics=None,
    data_plane: Optional[str] = None,
) -> DistributedReport:
    """Execute all task bodies of ``graph`` across ``nodes`` worker processes.

    Parameters
    ----------
    graph:
        The recorded task graph (insertion order must be a topological order,
        which :class:`~repro.runtime.dtd.DTDRuntime` guarantees).
    nodes:
        Number of worker processes (one per simulated cluster node).
    strategy:
        Optional :class:`~repro.distribution.strategies.DistributionStrategy`
        used to (re)assign handle owners before placement.  When omitted, the
        owners already present on the handles are used (tasks without any
        ownership information fall back to ``tid % nodes``).
    collect:
        Zero-argument callable executed in *each worker* after it drains its
        local tasks; its picklable return value is shipped back to the parent
        and appended to ``report.fragments`` (a ``None`` return contributes no
        fragment).  This is how factorization drivers gather their result
        pieces from the worker address spaces.
    timeout:
        Overall wall-clock limit in seconds.  On expiry the workers are
        terminated; unlike the thread executor, partially computed remote
        state is lost.
    raise_on_error:
        If True (default) the first worker error (or :class:`TimeoutError`)
        is raised with the partial report attached as ``exc.execution_report``.
    trace:
        Record per-rank task spans and timed communication actions and merge
        them into one clock-aligned
        :class:`~repro.runtime.tracing.ExecutionTrace` on ``report.trace``.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  Each rank
        records its task and comm metrics (message counts, logical bytes
        from the declared handle sizes, measured wire bytes, shared-memory
        mapped bytes, per-edge transfer histograms) into a rank-local
        registry whose snapshot ships back in its :class:`WorkerResult`; the
        parent merges every snapshot into ``metrics``, adds the
        execution-level counters and memory gauges, and fills
        ``report.memory``.  The registry's byte counters reconcile with
        ``report.ledger`` by construction (both are fed from the same
        :class:`CommEvent` rows).
    data_plane:
        ``"shm"`` (zero-copy shared-memory segments + descriptor messages,
        the default), ``"pickle"`` (full pickled payloads), or None to read
        ``REPRO_DATA_PLANE`` and fall back to the default.  Both planes are
        bit-identical; they differ only in physical byte movement.

    Returns
    -------
    DistributedReport
        ``report.ok`` is True when every task ran; ``report.ledger`` holds the
        measured communication (message/byte counts per process pair).
    """
    import multiprocessing

    if nodes <= 0:
        raise ValueError("nodes must be positive")
    plane = resolve_data_plane(data_plane)
    t0 = time.perf_counter()
    report = DistributedReport(nodes=nodes, num_tasks=graph.num_tasks, data_plane=plane)
    if graph.num_tasks == 0:
        if metrics is not None:
            from repro.obs.memory import handle_table_bytes
            from repro.obs.runtime_metrics import record_memory, record_report

            record_report(metrics, "distributed", report)
            report.memory = handle_table_bytes(graph)
            record_memory(metrics, "distributed", report.memory)
        return report
    # Fail fast on graphs no scheduler could drain -- otherwise the workers
    # would block on their inboxes forever.
    graph.validate_drainable()
    proc_of = resolve_owners(graph, nodes, strategy)
    priorities = graph.critical_path_priorities()

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise RuntimeError(
            "the distributed backend requires the 'fork' start method "
            "(POSIX only); use the thread executor on this platform"
        ) from exc

    # The store is created before the fork so every worker shares the run id
    # (its only cross-process state -- attachment maps are process-local).
    store = BlockStore() if plane == "shm" else None
    inboxes = [ctx.Queue() for _ in range(nodes)]
    report_queue = ctx.Queue()
    workers = [
        ctx.Process(
            target=_worker_main,
            args=(rank, graph, proc_of, priorities, inboxes, report_queue, collect,
                  store, trace, metrics is not None),
            name=f"dtd-rank{rank}",
            daemon=True,
        )
        for rank in range(nodes)
    ]
    for w in workers:
        w.start()

    deadline = None if timeout is None else t0 + timeout
    results: Dict[int, WorkerResult] = {}
    # The fork-context Queue is pipe-backed; waiting on its reader alongside
    # the live workers' sentinels replaces the old fixed-interval poll: the
    # parent wakes the moment a result lands *or* a worker dies.
    reader = report_queue._reader
    try:
        while len(results) < nodes:
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                report.timed_out = True
                break
            pending = [workers[r].sentinel for r in range(nodes) if r not in results]
            budget = None if deadline is None else max(deadline - now, 0.0)
            fired = _mp_wait([reader] + pending, timeout=budget)
            if not fired:
                report.timed_out = True
                break
            res: Optional[WorkerResult] = None
            if reader in fired:
                try:
                    res = report_queue.get(timeout=1.0)
                except queue_mod.Empty:
                    res = None
            if res is None:
                # Only sentinels fired: a worker exited.  A worker that died
                # without reporting (segfault in a BLAS kernel, OOM kill,
                # os._exit) would otherwise hang this loop and every peer
                # waiting on its data forever.
                dead = [
                    r for r in range(nodes)
                    if r not in results and not workers[r].is_alive()
                ]
                try:
                    # Its final report may still be in flight in the queue.
                    res = report_queue.get(timeout=0.5)
                except queue_mod.Empty:
                    if not dead:
                        continue
                    rank = dead[0]
                    res = WorkerResult(
                        rank=rank,
                        error=RemoteTaskError(
                            rank,
                            -1,
                            "<worker>",
                            "worker process died without reporting "
                            f"(exitcode={workers[rank].exitcode})",
                            "",
                        ),
                    )
            results[res.rank] = res
            if res.error is not None:
                # Peers may be blocked waiting for this worker's data forever;
                # give already-finished workers a moment to report, then stop.
                grace = time.perf_counter() + 0.2
                while len(results) < nodes and time.perf_counter() < grace:
                    try:
                        late: WorkerResult = report_queue.get(timeout=0.05)
                        results[late.rank] = late
                    except queue_mod.Empty:
                        break
                break
    finally:
        failed = report.timed_out or any(r.error is not None for r in results.values())
        for w in workers:
            if failed and w.is_alive():
                w.terminate()
            w.join(timeout=5.0)
            if w.is_alive():  # pragma: no cover - last-resort cleanup
                w.terminate()
                w.join(timeout=5.0)
        for q in inboxes:
            q.cancel_join_thread()
        if store is not None:
            # Segment-lifecycle backstop: unlink anything a terminated or
            # errored run left behind (the candidate names are a pure
            # function of the run id and the static transfer plan, so this
            # finds every possible orphan, even from a worker killed
            # mid-send).  A clean run sweeps nothing.
            try:
                report.segments_swept = store.sweep(graph, proc_of)
            except BaseException:  # pragma: no cover - cleanup must not mask
                pass

    for rank in sorted(results):
        res = results[rank]
        report.executed.extend(res.executed)
        report.ledger.events.extend(res.events)
        if res.error is not None:
            report.errors[res.error.tid] = res.error
        elif res.fragment is not None:
            report.fragments.append(res.fragment)
        report.per_rank[rank] = {
            "executed": len(res.executed),
            "messages_sent": len(res.events),
            "wall_time": res.wall_time,
        }
    if report.errors or report.timed_out:
        # Disjoint from executed and errors, matching ExecutionReport's contract.
        settled = set(report.executed) | set(report.errors)
        report.cancelled = [t.tid for t in graph.tasks if t.tid not in settled]
    report.wall_time = time.perf_counter() - t0

    if metrics is not None:
        from repro.obs.memory import handle_table_bytes
        from repro.obs.runtime_metrics import record_memory, record_report

        # Fold every rank's registry snapshot into the caller's registry
        # (rank-side: executed counters, per-kind latency, comm counters and
        # histograms, rank RSS), then add what only the parent knows: the
        # execution-level counters and the handle-table/memory gauges.
        for rank in sorted(results):
            snapshot = results[rank].metrics
            if snapshot:
                metrics.merge(snapshot)
        # Ranks already counted their own completed tasks in their snapshots.
        record_report(metrics, "distributed", report, include_executed=False)
        memory = handle_table_bytes(graph)
        for rank in sorted(results):
            rank_rss = metrics.value(
                "repro_peak_rss_bytes", backend="distributed", rank=str(rank)
            )
            if rank_rss:
                memory.rank_peak_rss_bytes[rank] = int(rank_rss)
        record_memory(metrics, "distributed", memory)
        report.memory = memory

    if trace:
        from repro.runtime.tracing import CommSpan, ExecutionTrace, build_spans

        tr = ExecutionTrace(
            backend="distributed",
            n_workers=nodes,
            wall_time=report.wall_time,
        )
        raw: List[tuple] = []
        for rank in sorted(results):
            res = results[rank]
            for tid, queue_t, start_t, end_t in res.spans:
                task = graph.task(tid)
                raw.append(
                    (tid, task.name, task.kind, task.phase, rank, rank,
                     queue_t, start_t, end_t)
                )
            for action, src, dst, edge, nbytes, cs, ce in res.comm_spans:
                tr.comm.append(CommSpan(
                    action=action,
                    worker=rank,
                    src=src,
                    dst=dst,
                    edge=tuple(edge),
                    nbytes=nbytes,
                    start_t=cs - t0,
                    end_t=ce - t0,
                ))
            tr.worker_overhead[rank] = res.overhead
        tr.spans = build_spans(raw, t0)
        report.trace = tr

    if raise_on_error:
        if report.errors:
            first = next(iter(report.errors.values()))
            first.execution_report = report
            raise first
        if report.timed_out:
            err = TimeoutError(
                f"distributed execution exceeded {timeout}s "
                f"({len(report.executed)}/{report.num_tasks} tasks completed)"
            )
            err.execution_report = report
            raise err
    return report

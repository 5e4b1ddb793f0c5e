"""Dynamic Task Discovery (DTD) runtime -- the PaRSEC interface used by HATRIX-DTD.

The DTD programming model (Sec. 4.2): the algorithm is written as a sequence of
``insert_task`` calls, each declaring which data handles it reads and writes.
The runtime derives the dependency DAG from the access order:

* a task reading a handle depends on the last writer of that handle;
* a task writing a handle depends on the last writer *and* on every reader
  since that write (write-after-read);

and, in the real PaRSEC DTD, *every process discovers the entire task graph*
and then trims the tasks that are not local.  That per-process discovery cost
is the runtime overhead that limits HATRIX-DTD's weak scaling (Sec. 5.3.3);
the machine model charges it explicitly.

Execution modes
---------------
``immediate``
    The task body runs at insertion time (sequential, deterministic) while the
    graph is still recorded -- the default for numerical factorizations.
``deferred``
    Bodies are stored and only run when :meth:`DTDRuntime.run` (sequentially,
    in insertion order), :meth:`DTDRuntime.run_parallel` (out-of-order on a
    thread pool, via :func:`repro.runtime.executor.execute_graph`) or
    :meth:`DTDRuntime.run_distributed` (across forked worker processes, via
    :func:`repro.runtime.distributed.execute_graph_distributed`) is called.
``symbolic``
    Bodies are never run; only the graph (block sizes, flops, bytes) is
    recorded.  Used to generate paper-scale DAGs for the machine simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.dag import TaskGraph
from repro.runtime.data import DataHandle
from repro.runtime.task import AccessMode, Task, TaskAccess, normalize_accesses

__all__ = ["DTDRuntime"]


class DTDRuntime:
    """A dynamic-task-discovery runtime instance.

    Parameters
    ----------
    execution:
        ``"immediate"`` (default), ``"deferred"`` or ``"symbolic"``.
    trace:
        Record a measured :class:`~repro.runtime.tracing.ExecutionTrace` of
        every execution.  Sequential runs (immediate bodies, :meth:`run`) are
        stamped at DTD level; the parallel/process/distributed backends
        receive the flag and attach their own traces.  The most recent trace
        is available as :attr:`last_trace`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` accumulating
        task counters, per-kind latency histograms and memory gauges across
        every execution of this runtime.  Sequential runs record at DTD
        level (from the same stamps tracing uses); the backend runners
        receive the registry and record their own metrics (the distributed
        backend merges per-rank registry snapshots into it).
    """

    def __init__(
        self, execution: str = "immediate", *, trace: bool = False, metrics=None
    ) -> None:
        if execution not in ("immediate", "deferred", "symbolic"):
            raise ValueError(f"unknown execution mode {execution!r}")
        self.execution = execution
        self.trace = bool(trace)
        self.metrics = metrics
        self.graph = TaskGraph()
        self._next_tid = 0
        self._last_writer: Dict[int, int] = {}
        self._readers_since_write: Dict[int, List[int]] = {}
        self._handles: Dict[str, DataHandle] = {}
        self._executed: set[int] = set()
        self._failed: Optional[BaseException] = None
        #: Raw sequential span tuples (immediate bodies / run()), absolute stamps.
        self._span_log: List[tuple] = []
        #: Span-log prefix already folded into the metrics registry (so
        #: repeated run() calls never double-count a task).
        self._metrics_upto = 0
        #: Report of the most recent :meth:`run_distributed` call (or None).
        self.last_distributed_report = None
        #: Report of the most recent :meth:`run_parallel` call (or None).
        self.last_parallel_report = None
        #: Report of the most recent :meth:`run_process` call (or None).
        self.last_process_report = None
        #: Stats of the most recent :meth:`fuse` call (or None).
        self.last_fusion_stats = None
        #: Fusion contraction map of all :meth:`fuse` calls (original -> head tid).
        self.last_head_of: Dict[int, int] = {}
        #: Measured trace of the most recent execution (``trace=True`` only).
        self.last_trace = None

    # -- data management ------------------------------------------------------
    def register_handle(self, handle: DataHandle) -> DataHandle:
        """Register a handle so it can be retrieved by name later."""
        self._handles[handle.name] = handle
        return handle

    def new_handle(
        self,
        name: str,
        nbytes: int = 0,
        *,
        owner: Optional[int] = None,
        payload: Any = None,
        **meta: Any,
    ) -> DataHandle:
        """Create and register a new :class:`DataHandle`."""
        if name in self._handles:
            raise ValueError(f"handle {name!r} already registered")
        handle = DataHandle(name=name, nbytes=nbytes, owner=owner, payload=payload, meta=dict(meta))
        return self.register_handle(handle)

    def handle(self, name: str) -> DataHandle:
        """Look up a registered handle by name."""
        return self._handles[name]

    @property
    def handles(self) -> List[DataHandle]:
        return list(self._handles.values())

    # -- task insertion --------------------------------------------------------
    def insert_task(
        self,
        func: Optional[Callable[..., Any]],
        accesses: Sequence[TaskAccess | Tuple[DataHandle, AccessMode]],
        *,
        name: str = "",
        kind: str = "TASK",
        flops: float = 0.0,
        phase: int = 0,
        process: Optional[int] = None,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
    ) -> Task:
        """Insert a task, wiring its dependencies from the declared data accesses.

        Returns the created :class:`Task`.  In ``immediate`` mode the task body
        has already been executed when this returns.
        """
        acc = normalize_accesses(accesses)
        task = Task(
            tid=self._next_tid,
            name=name or f"task{self._next_tid}",
            kind=kind,
            func=None if self.execution == "symbolic" else func,
            args=args,
            kwargs=kwargs or {},
            accesses=acc,
            flops=float(flops),
            phase=phase,
            process=process,
        )
        self._next_tid += 1
        self.graph.add_task(task)

        for access in acc:
            hid = access.handle.hid
            if access.mode.reads:
                writer = self._last_writer.get(hid)
                if writer is not None:
                    self.graph.add_edge(writer, task.tid, access.handle)
                self._readers_since_write.setdefault(hid, []).append(task.tid)
            if access.mode.writes:
                writer = self._last_writer.get(hid)
                if writer is not None:
                    self.graph.add_edge(writer, task.tid, access.handle)
                for reader in self._readers_since_write.get(hid, []):
                    self.graph.add_edge(reader, task.tid, access.handle)
                self._last_writer[hid] = task.tid
                self._readers_since_write[hid] = []

        if self.execution == "immediate" and task.func is not None:
            if self.trace or self.metrics is not None:
                queue_t = time.perf_counter()
                task.run()
                self._span_log.append(
                    (task.tid, task.name, task.kind, task.phase, 0, 0,
                     queue_t, queue_t, time.perf_counter())
                )
            else:
                task.run()
            self._executed.add(task.tid)
        return task

    # -- graph coarsening ------------------------------------------------------
    def fuse(self, *, slots: int = 8):
        """Coarsen the recorded graph in place (chain fusion + batching).

        Collapses linear same-phase, same-owner task chains and batches
        independent same-kind tasks through
        :func:`repro.runtime.fusion.coarsen_graph`, replacing :attr:`graph`
        with the coarse graph.  Surviving tasks keep their original ids and
        the dependency-discovery state is remapped onto them, so more
        ``insert_task`` calls may follow (they will depend on the fused
        tasks exactly as they would have on the absorbed originals).

        Only valid before any task body has run on a deferred (or symbolic)
        graph.  Returns the :class:`~repro.runtime.fusion.FusionStats`, also
        stored as :attr:`last_fusion_stats`.
        """
        from repro.runtime.fusion import coarsen_graph

        if self.execution == "immediate":
            raise RuntimeError(
                "cannot fuse an immediate-mode graph; its task bodies already ran"
            )
        if self._failed is not None:
            raise RuntimeError(
                "runtime has a failed execution; rebuild the task graph"
            ) from self._failed
        if self._executed:
            raise RuntimeError(
                f"{len(self._executed)} task(s) already executed; "
                "fusion requires a fully deferred graph"
            )
        coarse, head_of, stats = coarsen_graph(self.graph, slots=slots)
        self.graph = coarse
        # Remap the discovery state so later insert_task calls wire their
        # dependencies to the fused heads instead of absorbed task ids.
        self._last_writer = {
            hid: head_of.get(tid, tid) for hid, tid in self._last_writer.items()
        }
        self._readers_since_write = {
            hid: sorted({head_of.get(tid, tid) for tid in readers})
            for hid, readers in self._readers_since_write.items()
        }
        self.last_fusion_stats = stats
        # Compose onto any earlier fusion rounds, so last_head_of always maps
        # original ids onto the heads that will actually execute (and show up
        # as spans in a trace).
        self.last_head_of = {
            tid: head_of.get(head, head) for tid, head in self.last_head_of.items()
        }
        for tid, head in head_of.items():
            self.last_head_of.setdefault(tid, head)
        return stats

    # -- execution --------------------------------------------------------------
    def rewind(self) -> None:
        """Forget the last execution so the recorded graph can run again.

        Clears the executed set, the span log and the per-execution reports
        and trace; the graph itself (tasks, edges, fusion map) is untouched,
        so the next ``run*`` call re-executes every task body.  The caller is
        responsible for re-seeding whatever state the bodies read.  Refused on
        an ``immediate`` runtime (its bodies ran at insertion and cannot run
        again) and on a poisoned one (a failed body may have left state
        half-written; rebuild the graph instead).
        """
        if self.execution == "immediate":
            raise RuntimeError("cannot rewind an immediate-mode graph; its bodies ran at insertion")
        if self._failed is not None:
            raise RuntimeError(
                "runtime has a failed execution; rebuild the task graph"
            ) from self._failed
        self._executed.clear()
        self._span_log.clear()
        self._metrics_upto = 0
        self.last_distributed_report = None
        self.last_parallel_report = None
        self.last_process_report = None
        self.last_trace = None

    def run(self) -> None:
        """Execute all not-yet-executed task bodies in insertion (topological) order."""
        if self.execution == "symbolic":
            return
        if self._failed is not None:
            # A failed task may have left its outputs half-written; running
            # its dependents would propagate garbage silently.
            raise RuntimeError(
                "runtime has a failed execution; rebuild the task graph"
            ) from self._failed
        for task in self.graph.tasks:
            if task.tid not in self._executed and task.func is not None:
                if self.trace or self.metrics is not None:
                    queue_t = time.perf_counter()
                    task.run()
                    self._span_log.append(
                        (task.tid, task.name, task.kind, task.phase, 0, 0,
                         queue_t, queue_t, time.perf_counter())
                    )
                else:
                    task.run()
                self._executed.add(task.tid)
        if self.trace and self._span_log:
            self.assemble_trace()
        if self.metrics is not None:
            from repro.obs.runtime_metrics import record_sequential_run

            record_sequential_run(
                self.metrics, self.execution, self.graph,
                self._span_log[self._metrics_upto:],
            )
            self._metrics_upto = len(self._span_log)

    def assemble_trace(self):
        """Build the :class:`~repro.runtime.tracing.ExecutionTrace` of the
        sequential (immediate / deferred ``run()``) execution so far.

        The timeline origin is the first recorded span's stamp and the wall
        time spans to the last body's end, so an immediate-mode trace covers
        the record-and-execute window including any driver code between
        ``insert_task`` calls (which shows up as idle).  Parallel backends
        attach their own traces to their reports instead; see
        :attr:`last_trace`.
        """
        from repro.runtime.tracing import ExecutionTrace, build_spans

        if not self.trace:
            raise RuntimeError("runtime was created with trace=False")
        log = self._span_log
        t0 = min(item[6] for item in log) if log else 0.0
        wall = (max(item[8] for item in log) - t0) if log else 0.0
        tr = ExecutionTrace(
            backend=self.execution,
            n_workers=1,
            wall_time=wall,
        )
        tr.spans = build_spans(log, t0)
        tr.head_of = dict(self.last_head_of)
        self.last_trace = tr
        return tr

    def run_parallel(self, *, n_workers: int = 4, timeout: Optional[float] = None):
        """Execute the recorded graph out-of-order on a thread pool.

        The parallel counterpart of :meth:`run`: dispatches the task bodies
        through :func:`repro.runtime.executor.execute_graph`, respecting the
        inferred dependencies but otherwise running independent tasks
        concurrently.  Only valid on a fully deferred graph (no task body may
        have run yet); use a ``deferred`` runtime and call this once after all
        ``insert_task`` calls.

        Returns the :class:`~repro.runtime.executor.ExecutionReport`.
        """
        from repro.runtime.executor import execute_graph

        if self.execution == "symbolic":
            raise RuntimeError("cannot run a symbolic graph; task bodies were discarded")
        if self._failed is not None:
            raise RuntimeError(
                "runtime has a failed execution; rebuild the task graph"
            ) from self._failed
        if self._executed:
            # execute_graph re-dispatches the whole graph, so a partially
            # executed one (e.g. after a clean timeout) must finish through
            # run(), which skips completed bodies.
            raise RuntimeError(
                f"{len(self._executed)} task(s) already executed; "
                "use run() to finish the remaining tasks sequentially"
            )
        try:
            report = execute_graph(
                self.graph, n_workers=n_workers, timeout=timeout,
                trace=self.trace, metrics=self.metrics,
            )
        except BaseException as exc:
            partial = getattr(exc, "execution_report", None)
            if partial is not None:
                self._executed.update(partial.executed)
                self._adopt_trace(partial)
            # A failed task body may have left shared state half-written, so
            # poison the runtime: run()/run_parallel() must not "resume".  A
            # pure timeout is different -- every started task ran to
            # completion before the workers were joined, so finishing the
            # remaining tasks later (e.g. via run()) is safe.
            timed_out_cleanly = partial is not None and partial.timed_out and not partial.errors
            if partial is not None:
                self.last_parallel_report = partial
            if not timed_out_cleanly:
                self._failed = exc
            raise
        self._executed.update(report.executed)
        self.last_parallel_report = report
        self._adopt_trace(report)
        return report

    def _adopt_trace(self, report) -> None:
        """Attach the fusion map to a backend trace and remember it."""
        trace = getattr(report, "trace", None)
        if trace is not None:
            if self.last_head_of:
                trace.head_of = dict(self.last_head_of)
            self.last_trace = trace

    def run_distributed(
        self,
        *,
        nodes: int = 2,
        strategy=None,
        collect=None,
        timeout: Optional[float] = None,
        data_plane: Optional[str] = None,
    ):
        """Execute the recorded graph across ``nodes`` forked worker processes.

        The distributed counterpart of :meth:`run_parallel`: each worker
        process inherits the graph (and all pre-execution numerical state) via
        ``fork``, runs only the tasks placed on it by owner-computes over the
        handle owners (optionally reassigned through ``strategy``), and ships
        written handle values to remote consumers as explicit, accounted
        messages.  ``collect`` is the per-worker result-gathering callback and
        ``data_plane`` selects the wire representation (``"shm"`` zero-copy
        shared-memory segments or ``"pickle"`` full payloads -- see
        :func:`repro.runtime.distributed.execute_graph_distributed`).

        Only valid on a fully deferred graph.  Any failure -- a remote task
        error or a timeout -- poisons the runtime: the partially computed
        state lives in terminated worker processes and cannot be resumed.

        Returns the :class:`~repro.runtime.distributed.DistributedReport`,
        also stored as :attr:`last_distributed_report`.
        """
        from repro.runtime.distributed import execute_graph_distributed

        if self.execution == "symbolic":
            raise RuntimeError("cannot run a symbolic graph; task bodies were discarded")
        if self._failed is not None:
            raise RuntimeError(
                "runtime has a failed execution; rebuild the task graph"
            ) from self._failed
        if self._executed:
            raise RuntimeError(
                f"{len(self._executed)} task(s) already executed; "
                "the distributed backend requires a fully deferred graph"
            )
        try:
            report = execute_graph_distributed(
                self.graph, nodes=nodes, strategy=strategy, collect=collect,
                timeout=timeout, trace=self.trace, metrics=self.metrics,
                data_plane=data_plane,
            )
        except BaseException as exc:
            partial = getattr(exc, "execution_report", None)
            if partial is not None:
                self._executed.update(partial.executed)
                self.last_distributed_report = partial
                self._adopt_trace(partial)
            self._failed = exc
            raise
        self._executed.update(report.executed)
        self.last_distributed_report = report
        self._adopt_trace(report)
        return report

    def run_process(
        self,
        *,
        n_workers: int = 4,
        collect=None,
        timeout: Optional[float] = None,
    ):
        """Execute the recorded graph on a pool of forked worker processes.

        The GIL-free counterpart of :meth:`run_parallel`: task bodies run in
        ``fork``-ed worker processes that inherit the graph and all
        pre-execution numerical state; values written through *bound* handles
        are shipped back to the parent after each task and injected into the
        consumers' processes, so the numerical dataflow is exact.  Results
        living outside handles are gathered per worker by ``collect`` (see
        :func:`repro.runtime.executor.execute_graph_processes`).

        Only valid on a fully deferred graph.  Like the distributed backend,
        any failure poisons the runtime: partially computed state lives in
        pool worker processes and cannot be resumed.

        Returns the :class:`~repro.runtime.executor.ExecutionReport`
        (fragments in ``report.fragments``), also stored as
        :attr:`last_process_report`.
        """
        from repro.runtime.executor import execute_graph_processes

        if self.execution == "symbolic":
            raise RuntimeError("cannot run a symbolic graph; task bodies were discarded")
        if self._failed is not None:
            raise RuntimeError(
                "runtime has a failed execution; rebuild the task graph"
            ) from self._failed
        if self._executed:
            raise RuntimeError(
                f"{len(self._executed)} task(s) already executed; "
                "the process backend requires a fully deferred graph"
            )
        try:
            report = execute_graph_processes(
                self.graph, n_workers=n_workers, collect=collect,
                timeout=timeout, trace=self.trace, metrics=self.metrics,
            )
        except BaseException as exc:
            partial = getattr(exc, "execution_report", None)
            if partial is not None:
                self._executed.update(partial.executed)
                self.last_process_report = partial
                self._adopt_trace(partial)
            self._failed = exc
            raise
        self._executed.update(report.executed)
        self.last_process_report = report
        self._adopt_trace(report)
        return report

    # -- inspection ---------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self.graph.num_tasks

    def validate(self) -> None:
        """Sanity checks on the recorded graph (acyclic, insertion-ordered edges)."""
        self.graph.validate_insertion_order()
        if not self.graph.is_acyclic():
            raise ValueError("task graph has a cycle")

    def __repr__(self) -> str:
        return f"DTDRuntime(execution={self.execution!r}, tasks={self.num_tasks})"


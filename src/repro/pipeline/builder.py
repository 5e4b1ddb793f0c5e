"""The shared graph-builder scaffold every ULV task graph is built on.

A :class:`GraphBuilder` owns one :class:`~repro.runtime.dtd.DTDRuntime`, one
:class:`~repro.pipeline.policy.ExecutionPolicy` and the format-specific
recording hooks.  The scaffold provides everything the four former
per-format driver modules duplicated:

* runtime construction and the record-once template (:meth:`record`),
* phase bookkeeping for :meth:`insert` (critical-path priorities and the
  simulator group tasks by phase),
* distribution-strategy resolution and handle assignment,
* distributed execution with per-worker fragment collection and merging,
* comm-plan verification (measured ledger vs the static transfer plan).

Concrete builders (:mod:`repro.pipeline.factorize`,
:mod:`repro.pipeline.solve`) only implement ``declare_handles`` /
``record_tasks`` plus the fragment hooks; backend dispatch lives exclusively
in :meth:`ExecutionPolicy.execute`.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.pipeline.panels import column_panels, handle_namespace
from repro.pipeline.policy import ExecutionPolicy
from repro.runtime.dtd import DTDRuntime

__all__ = ["GraphBuilder", "SolveGraphBuilder"]


class GraphBuilder:
    """Base scaffold for recording one ULV task graph and executing it.

    Parameters
    ----------
    policy:
        The execution policy (must use a runtime backend).  Defaults to
        ``immediate`` execution.
    runtime:
        Record into an existing runtime instead of a fresh one.  Execution
        then stays sequential (:meth:`DTDRuntime.run`) unless the policy says
        otherwise -- this is how the legacy ``runtime=`` / ``execute=False``
        driver arguments are honoured.
    """

    #: Structural depth handed to the distribution strategy; subclasses set
    #: this before ``record()`` runs (HSS tree depth, or the virtual level a
    #: flat block row set is mapped onto).
    max_level: int = 0

    def __init__(
        self,
        *,
        policy: Optional[ExecutionPolicy] = None,
        runtime: Optional[DTDRuntime] = None,
    ) -> None:
        self.policy = policy if policy is not None else ExecutionPolicy(backend="immediate")
        if not self.policy.uses_runtime:
            raise ValueError(
                "graph builders require a runtime backend; "
                "backend 'off' is the sequential reference path"
            )
        self.runtime = runtime if runtime is not None else self.policy.make_runtime()
        self.strategy = None
        self._phase = 0
        self._recorded = False

    # -- recording helpers ----------------------------------------------------
    def set_phase(self, phase: int) -> None:
        """Set the phase tag attached to subsequently inserted tasks."""
        self._phase = phase

    def handle(self, name: str, nbytes: int, **meta: Any):
        """Create a data handle carrying the builder's structural metadata."""
        meta.setdefault("max_level", self.max_level)
        return self.runtime.new_handle(name, nbytes=int(nbytes), **meta)

    def insert(self, func, accesses, *, name: str, kind: str, flops: float = 0.0):
        """Insert one task at the current phase."""
        return self.runtime.insert_task(
            func, accesses, name=name, kind=kind, flops=flops, phase=self._phase
        )

    # -- subclass hooks -------------------------------------------------------
    def declare_handles(self) -> None:
        """Register every data handle of the graph (before strategy assignment)."""
        raise NotImplementedError

    def seed(self) -> None:
        """Populate the pre-execution numerical state (inherited by forked workers)."""

    def record_tasks(self) -> None:
        """Insert every task of the graph."""
        raise NotImplementedError

    def collect_local(self) -> Any:
        """Gather this worker's result fragment (runs *inside* each forked worker)."""
        return None

    def merge_fragment(self, fragment: Any) -> None:
        """Merge one worker's fragment into the builder's result (runs in the parent)."""

    def result(self) -> Any:
        """The built result object (factor, solution block, ...)."""
        raise NotImplementedError

    # -- template -------------------------------------------------------------
    def record(self) -> "GraphBuilder":
        """Declare handles, assign owners, seed state and insert all tasks (once).

        With :attr:`ExecutionPolicy.fusion_enabled` the freshly recorded
        graph is coarsened in place (chain fusion + batching, see
        :mod:`repro.runtime.fusion`) before any backend sees it, so transfer
        planning, comm verification and execution all run on the same fused
        graph.
        """
        if self._recorded:
            return self
        self.declare_handles()
        self.strategy = self.policy.resolve_distribution(self.max_level)
        self.strategy.assign(self.runtime.handles)
        self.seed()
        self.record_tasks()
        if self.policy.fusion_enabled and self.runtime.num_tasks:
            self.runtime.fuse(slots=self.policy.resolve_batch_slots())
        self._recorded = True
        return self

    def execute(self, *, timeout: Optional[float] = None) -> Any:
        """Record (if needed) and execute the graph through the policy.

        Returns whatever :meth:`ExecutionPolicy.execute` returns for the
        backend (a distributed/execution report, or None).
        """
        self.record()
        return self.policy.execute(
            self.runtime,
            strategy=self.strategy,
            collect=self.collect_local,
            merge=self.merge_fragment,
            timeout=timeout,
        )

    def run(self) -> Any:
        """Record, execute and return :meth:`result` in one call."""
        self.execute()
        return self.result()

    # -- verification ---------------------------------------------------------
    def verify_comm_plan(self, report=None) -> None:
        """Check a distributed run's measured ledger against the static plan.

        The recorded graph fully determines which handle values must cross a
        process boundary; the executed transfers must match that plan exactly
        (message count and byte volume).  Raises :class:`RuntimeError` on any
        mismatch -- a mismatch means the backend moved data the graph does not
        explain, or skipped a transfer the graph requires.
        """
        from repro.runtime.distributed import measured_vs_planned_comm

        report = report if report is not None else self.runtime.last_distributed_report
        if report is None:
            raise RuntimeError("no distributed report to verify; run on 'distributed' first")
        measured, planned = measured_vs_planned_comm(
            self.runtime.graph, report, self.policy.nodes
        )
        if measured != planned:
            raise RuntimeError(
                f"communication ledger {measured} does not match the static "
                f"transfer plan {planned}"
            )


class SolveGraphBuilder(GraphBuilder):
    """Scaffold shared by the task-graph solve builders.

    Adds to :class:`GraphBuilder` the right-hand-side handling every solve
    driver used to duplicate: shape validation, 2-D normalization, the split
    into independent RHS column panels (each panel carries its own
    forward/root/backward task chain), per-recording handle namespacing, and
    the scatter of the solved leaf blocks back into a dense ``(n, k)`` block.

    Subclasses keep every mutable block store in a :meth:`store` dict (solved
    blocks go into :attr:`sol`) and implement :meth:`gather` plus the usual
    recording hooks.

    A recorded builder is a reusable *plan*: :meth:`rebind` points it at a
    new right-hand side of the recorded width and :meth:`execute` then runs
    the existing graph again -- discovery (handles, dependencies, fusion,
    priorities) is paid once per plan, not once per solve.
    """

    def __init__(
        self,
        factor: Any,
        b: np.ndarray,
        *,
        policy: Optional[ExecutionPolicy] = None,
        runtime: Optional[DTDRuntime] = None,
    ) -> None:
        super().__init__(policy=policy, runtime=runtime)
        #: Only a graph alone in a deferred runtime of its own can be rewound
        #: and run again (immediate bodies ran at insertion; a caller's
        #: runtime may hold other recordings).
        self.replayable = runtime is None and self.runtime.execution == "deferred"
        self.factor = factor
        self._stores: list = []
        self._set_rhs(b)
        self.panels = column_panels(self.bm.shape[1], self.policy.panel_size)
        #: Unique suffix so repeated solves can record into one shared runtime.
        self.ns = handle_namespace(self.runtime)
        #: Mutable store of solved blocks, filled by the backward tasks.
        self.sol: dict = self.store()

    def _set_rhs(self, b: np.ndarray) -> None:
        # Imported here: repro.core's package __init__ pulls in the *_dtd
        # wrappers, which import this module -- a top-level import would cycle.
        from repro.core.rhs import check_rhs_shape

        # Normalize without copying: builders only read bm (the leaf seeds are
        # slice copies), so a validate_rhs working copy would be pure overhead.
        check_rhs_shape(b, self.n)
        arr = np.asarray(b, dtype=np.float64)
        self.single = arr.ndim == 1
        self.bm = arr.reshape(self.n, -1)

    def store(self) -> dict:
        """A new mutable block store the task bodies operate on (emptied by :meth:`rebind`)."""
        self._stores.append({})
        return self._stores[-1]

    def rebind(self, b: np.ndarray, policy: Optional[ExecutionPolicy] = None) -> None:
        """Point the recorded graph at a new right-hand side and make it runnable again.

        ``b`` must have the recorded number of columns.  Empties every block
        store, re-seeds the leaf blocks from ``b`` and rewinds the runtime;
        the graph, its handles and its owners are reused as recorded.
        ``policy`` (default: unchanged) must equal the recording policy up to
        ``trace`` / ``metrics``, which are switches of one execution, not
        part of the plan: both are set from it, on or off.
        """
        if not self._recorded or not self.replayable:
            raise RuntimeError("only a recorded graph in a deferred runtime of its own can be rebound")
        width = self.panels[-1].stop
        self.release()
        self._set_rhs(b)
        if self.bm.shape[1] != width:
            raise ValueError(
                f"plan was recorded for {width} right-hand-side column(s), got {self.bm.shape[1]}"
            )
        if policy is not None:
            self.policy = policy
            self.runtime.trace = policy.trace
            self.runtime.metrics = policy.metrics
        self.runtime.rewind()
        self.seed()

    def release(self) -> None:
        """Let go of the last solve's blocks and of the caller's right-hand side.

        A parked plan keeps its graph, not RHS-sized data; :meth:`rebind`
        starts from here.
        """
        for store in self._stores:
            store.clear()
        self.bm = None

    @property
    def n(self) -> int:
        """System dimension (subclasses know where their factor keeps it)."""
        raise NotImplementedError

    def gather(self) -> np.ndarray:
        """Assemble the dense ``(n, k)`` solution block from :attr:`sol`."""
        raise NotImplementedError

    def result(self) -> np.ndarray:
        """The solution block, always 2-D (drivers flatten vector inputs)."""
        return self.gather()

    # Leaf solution handles have no consumers, so a store entry present inside
    # a worker was computed by one of its local backward tasks; shipping the
    # whole store back and merging is therefore exact, not a heuristic.
    def collect_local(self):
        return dict(self.sol)

    def merge_fragment(self, fragment) -> None:
        self.sol.update(fragment)

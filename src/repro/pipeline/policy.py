"""The single execution-backend description and dispatch point.

One :class:`ExecutionPolicy` captures the full backend selection of the
facade, the CLI, the :class:`~repro.service.SolverService` and every graph
builder -- backend name, worker threads, worker processes, distribution
strategy and RHS panel width -- and :meth:`ExecutionPolicy.execute` is the
only place in the codebase that dispatches a recorded task graph onto a
backend.  A builder records into the runtime its policy makes
(:meth:`ExecutionPolicy.make_runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Union

from repro.distribution.strategies import (
    DistributionStrategy,
    RowCyclicDistribution,
    strategy_by_name,
)
from repro.runtime.dtd import DTDRuntime

__all__ = ["BACKENDS", "RUNTIME_BACKENDS", "ExecutionPolicy"]

#: Every execution backend, in the order the docs present them.  ``"off"`` is
#: the sequential reference implementation (no task graph); the rest record a
#: DTD task graph and differ only in how the recorded graph is executed.
BACKENDS = ("off", "immediate", "deferred", "parallel", "process", "distributed")

#: The backends that go through the DTD runtime (everything but ``"off"``).
RUNTIME_BACKENDS = BACKENDS[1:]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How (and where) a recorded ULV task graph executes.

    Attributes
    ----------
    backend:
        ``"off"`` (sequential reference, no task graph), ``"immediate"``
        (task bodies run at insertion time), ``"deferred"`` (record first,
        then run sequentially), ``"parallel"`` (record first, then execute
        out-of-order on a thread pool), ``"process"`` (record first, fuse,
        then execute on a pool of forked worker processes -- GIL-free) or
        ``"distributed"`` (record first, then execute across forked worker
        processes with owner-computes placement).  All backends produce
        bit-identical results.
    n_workers:
        Thread count for the ``parallel`` backend, process count for the
        ``process`` backend.
    nodes:
        Process count for the data distribution (real worker processes for
        ``distributed``, simulated ranks otherwise).
    distribution:
        Placement strategy for the runtime backends: a
        :class:`~repro.distribution.strategies.DistributionStrategy` instance,
        a name (``"row"`` / ``"block"`` / ``"element"``), or None for the
        paper's row-cyclic default.
    panel_size:
        Columns per RHS panel of the task-graph solves; None keeps all
        columns in one panel (bit-identical to the sequential reference).
    fusion:
        Record-time task fusion/batching (:mod:`repro.runtime.fusion`):
        coalesce short same-phase task chains and batch independent
        same-kind tasks so each scheduled task amortizes its dispatch cost.
        ``None`` (default) enables fusion exactly where it is required --
        the ``process`` backend; ``True``/``False`` force it on the other
        deferred-graph backends.  Fusion never changes results (the member
        bodies run in insertion order), only the task census.
    batch_slots:
        Upper bound on the number of batches a wide task group is split
        into; ``None`` derives ``2 * n_workers`` so every worker keeps two
        batches in flight.
    trace:
        Record a measured :class:`~repro.runtime.tracing.ExecutionTrace`
        (per-task spans, per-worker breakdowns, Chrome-exportable timeline)
        of every runtime execution; the trace rides on the backend report
        (``report.trace``) and on :attr:`DTDRuntime.last_trace`.  Ignored by
        ``"off"`` (no task graph is recorded).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` accumulating task
        counters, latency histograms and memory gauges across every runtime
        execution under this policy (see :mod:`repro.obs.runtime_metrics` for
        the metric vocabulary).  Like ``trace``, ignored by ``"off"``.
    data_plane:
        Wire representation of cross-process edges on the ``distributed``
        backend: ``"shm"`` (zero-copy shared-memory segments, the default) or
        ``"pickle"`` (full pickled payloads); None defers to the backend's
        resolution (``REPRO_DATA_PLANE`` or the default).  Ignored by every
        other backend.
    """

    backend: str = "off"
    n_workers: int = 4
    nodes: int = 1
    distribution: Optional[Union[str, DistributionStrategy]] = None
    panel_size: Optional[int] = None
    fusion: Optional[bool] = None
    batch_slots: Optional[int] = None
    trace: bool = False
    metrics: Optional[Any] = None
    data_plane: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.data_plane is not None:
            from repro.runtime.distributed.blockstore import resolve_data_plane

            resolve_data_plane(self.data_plane)  # validate eagerly
        if self.fusion is not None and not self.fusion and self.backend == "process":
            raise ValueError(
                "the process backend requires fusion; per-leaf task chains pass "
                "state outside handles and must be coarsened to stay colocated"
            )
        if self.fusion and self.backend in ("off", "immediate"):
            raise ValueError(
                f"fusion requires a deferred-graph backend, not {self.backend!r} "
                "(immediate bodies run at insertion time; 'off' records no graph)"
            )

    # -- construction ---------------------------------------------------------
    @classmethod
    def resolve(
        cls,
        use_runtime: Union[bool, str] = False,
        *,
        n_workers: int = 4,
        nodes: int = 1,
        distribution: Optional[Union[str, DistributionStrategy]] = None,
        panel_size: Optional[int] = None,
        fusion: Optional[bool] = None,
        batch_slots: Optional[int] = None,
        trace: bool = False,
        metrics: Optional[Any] = None,
        data_plane: Optional[str] = None,
    ) -> "ExecutionPolicy":
        """Normalize a facade-style ``use_runtime`` argument into a policy.

        ``False`` maps to ``"off"``, ``True`` to ``"immediate"``; strings are
        validated against :data:`BACKENDS`.
        """
        backend = {False: "off", True: "immediate"}.get(use_runtime, use_runtime)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown use_runtime {use_runtime!r}; expected False, True, "
                "'off', 'immediate', 'deferred', 'parallel', 'process' or "
                "'distributed'"
            )
        return cls(
            backend=backend,
            n_workers=n_workers,
            nodes=nodes,
            distribution=distribution,
            panel_size=panel_size,
            fusion=fusion,
            batch_slots=batch_slots,
            trace=trace,
            metrics=metrics,
            data_plane=data_plane,
        )

    @property
    def uses_runtime(self) -> bool:
        """True when this policy records (and executes) a DTD task graph."""
        return self.backend != "off"

    def with_backend(self, backend: str) -> "ExecutionPolicy":
        """A copy of this policy on a different backend."""
        return replace(self, backend=backend)

    @property
    def fusion_enabled(self) -> bool:
        """True when the graph builders should coarsen recorded graphs.

        ``fusion=None`` resolves to "on exactly for the process backend" --
        its workers rely on fused chains to keep non-handle state colocated.
        """
        if self.fusion is None:
            return self.backend == "process"
        return bool(self.fusion) and self.uses_runtime

    def resolve_batch_slots(self) -> int:
        """Concrete batch-count bound for :meth:`DTDRuntime.fuse`."""
        if self.batch_slots:
            return int(self.batch_slots)
        return 2 * max(1, self.n_workers)

    # -- runtime / strategy construction -------------------------------------
    def make_runtime(self) -> DTDRuntime:
        """A fresh :class:`DTDRuntime` in the recording mode this backend needs.

        ``parallel`` and ``distributed`` require a fully deferred graph; the
        sequential backends record in their own mode.
        """
        if self.backend in ("parallel", "process", "distributed"):
            return DTDRuntime(
                execution="deferred", trace=self.trace, metrics=self.metrics
            )
        if self.backend in ("immediate", "deferred"):
            return DTDRuntime(
                execution=self.backend, trace=self.trace, metrics=self.metrics
            )
        raise ValueError("backend 'off' does not record a task graph")

    def resolve_distribution(self, max_level: int) -> DistributionStrategy:
        """The concrete placement strategy (name or None resolved; instances pass through)."""
        if isinstance(self.distribution, str):
            return strategy_by_name(self.distribution, self.nodes, max_level=max_level)
        if self.distribution is None:
            return RowCyclicDistribution(self.nodes, max_level=max_level)
        return self.distribution

    # -- execution ------------------------------------------------------------
    def execute(
        self,
        runtime: DTDRuntime,
        *,
        strategy: Optional[DistributionStrategy] = None,
        collect: Optional[Callable[[], Any]] = None,
        merge: Optional[Callable[[Any], None]] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Execute ``runtime``'s recorded graph on this policy's backend.

        This is the single backend-dispatch implementation shared by every
        graph builder, the facade, the CLI and the service:

        * ``distributed`` runs the graph across :attr:`nodes` forked worker
          processes (``collect`` gathers per-worker result fragments, and
          ``merge`` is invoked on each returned fragment), returning the
          :class:`~repro.runtime.distributed.DistributedReport`;
        * ``parallel`` runs the graph out-of-order on a :attr:`n_workers`
          thread pool, returning the
          :class:`~repro.runtime.executor.ExecutionReport`;
        * every other backend finishes the graph sequentially in insertion
          order (a no-op for ``immediate`` bodies that already ran), returning
          None.
        """
        if self.backend == "distributed":
            if runtime.num_tasks == 0:
                return None
            report = runtime.run_distributed(
                nodes=self.nodes, strategy=strategy, collect=collect,
                timeout=timeout, data_plane=self.data_plane,
            )
            if merge is not None:
                for fragment in report.fragments:
                    merge(fragment)
            return report
        if self.backend == "process":
            if runtime.num_tasks == 0:
                return None
            report = runtime.run_process(
                n_workers=self.n_workers, collect=collect, timeout=timeout
            )
            if merge is not None:
                for fragment in report.fragments:
                    merge(fragment)
            return report
        if self.backend == "parallel":
            return runtime.run_parallel(n_workers=self.n_workers, timeout=timeout)
        runtime.run()
        return None


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
BACKENDS = ("off", "deferred", "parallel", "process", "distributed")

#: The backends that go through the DTD runtime (everything but ``"off"``).
RUNTIME_BACKENDS = BACKENDS[1:]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How (and where) a recorded ULV task graph executes.

    Attributes
    ----------
    backend:
        ``"off"`` (sequential reference, no task graph), ``"deferred"``
        (record first, then run sequentially), ``"parallel"`` (record
        first, then execute out-of-order on a thread pool) or
        ``"distributed"`` / ``"process"`` (record first, then execute across
        forked worker processes with owner-computes placement -- GIL-free;
        ``process`` is the same rank loop with one rank per worker, see
        :attr:`ranks`).  All backends produce bit-identical results.
    n_workers:
        Thread count for the ``parallel`` backend, worker-process (rank)
        count for the ``process`` backend.
    nodes:
        Process count for the data distribution (real worker processes for
        ``distributed``, simulated ranks for the in-process backends;
        ``process`` distributes over ``n_workers`` instead).
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
        Off by default; not valid on ``"off"`` (no graph to coarsen).  Fusion
        never changes results (the member bodies run in insertion order),
        only the task census.
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
        and ``process`` backends: ``"shm"`` (zero-copy shared-memory
        segments, the default) or ``"pickle"`` (full pickled payloads); None
        defers to the backend's resolution (``REPRO_DATA_PLANE`` or the
        default).  Ignored by every other backend.
    """

    backend: str = "off"
    n_workers: int = 4
    nodes: int = 1
    distribution: Optional[Union[str, DistributionStrategy]] = None
    panel_size: Optional[int] = None
    fusion: bool = False
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
        if self.fusion and self.backend == "off":
            raise ValueError("fusion requires a task-graph backend; 'off' records no graph")

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
        fusion: bool = False,
        batch_slots: Optional[int] = None,
        trace: bool = False,
        metrics: Optional[Any] = None,
        data_plane: Optional[str] = None,
    ) -> "ExecutionPolicy":
        """Normalize a facade-style ``use_runtime`` argument into a policy.

        ``False`` maps to ``"off"``, ``True`` to ``"deferred"``; strings are
        validated against :data:`BACKENDS`.
        """
        backend = {False: "off", True: "deferred"}.get(use_runtime, use_runtime)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown use_runtime {use_runtime!r}; expected False, True, "
                "'off', 'deferred', 'parallel', 'process' or 'distributed'"
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
    def ranks(self) -> int:
        """Rank count of the data distribution.

        ``n_workers`` for ``process`` (one forked rank per worker), ``nodes``
        for every other backend.  Placement, execution, comm-plan checks and
        the level-solve chunking all read this one number.
        """
        return self.n_workers if self.backend == "process" else self.nodes

    def resolve_batch_slots(self) -> int:
        """Concrete batch-count bound for :meth:`DTDRuntime.fuse`."""
        if self.batch_slots:
            return int(self.batch_slots)
        return 2 * max(1, self.n_workers)

    # -- runtime / strategy construction -------------------------------------
    def make_runtime(self) -> DTDRuntime:
        """A fresh deferred :class:`DTDRuntime` to record this policy's graph into."""
        if self.backend == "off":
            raise ValueError("backend 'off' does not record a task graph")
        return DTDRuntime(execution="deferred", trace=self.trace, metrics=self.metrics)

    def resolve_distribution(self, max_level: int) -> DistributionStrategy:
        """The concrete placement strategy (name or None resolved; instances pass through)."""
        if isinstance(self.distribution, str):
            return strategy_by_name(self.distribution, self.ranks, max_level=max_level)
        if self.distribution is None:
            return RowCyclicDistribution(self.ranks, max_level=max_level)
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

        * ``distributed`` and ``process`` run the graph across :attr:`ranks`
          forked worker processes (``collect`` gathers per-worker result
          fragments, and ``merge`` is invoked on each returned fragment),
          returning the
          :class:`~repro.runtime.distributed.DistributedReport`;
        * ``parallel`` runs the graph out-of-order on a :attr:`n_workers`
          thread pool, returning the
          :class:`~repro.runtime.executor.ExecutionReport`;
        * ``deferred`` runs the graph sequentially in insertion order,
          returning None.
        """
        if self.backend in ("distributed", "process"):
            if runtime.num_tasks == 0:
                return None
            report = runtime.run_distributed(
                nodes=self.ranks, strategy=strategy, collect=collect,
                timeout=timeout, data_plane=self.data_plane,
            )
            if merge is not None:
                for fragment in report.fragments:
                    merge(fragment)
            return report
        if self.backend == "parallel":
            return runtime.run_parallel(n_workers=self.n_workers, timeout=timeout)
        runtime.run()
        return None


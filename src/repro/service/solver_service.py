"""A caching, batching solve service on top of the task-graph solvers.

The ROADMAP north star bills by solves: one factorization amortized over many
right-hand sides.  :class:`SolverService` keeps an LRU cache of
:class:`~repro.api.StructuredSolver` factorizations keyed by the full problem
description (format, kernel, n, leaf_size, max_rank, kernel params), queues incoming
right-hand sides as :class:`SolveTicket` objects, and drains the queue in
:meth:`SolverService.flush` as *batched* task-graph solves: all queued
requests against the same factorization are stacked into one ``(n, k)`` block
and solved through a single recorded graph on the configured backend
(optionally split into ``panel_size`` panels so independent panels overlap
inside the runtime).

>>> service = SolverService(backend="parallel", n_workers=4)
>>> t1 = service.submit(b1, kernel="yukawa", n=1024, leaf_size=128, max_rank=30)
>>> t2 = service.submit(b2, kernel="yukawa", n=1024, leaf_size=128, max_rank=30)
>>> service.flush()
>>> x1, x2 = t1.result, t2.result      # one factorization, one batched solve
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api import StructuredSolver
from repro.core.rhs import validate_rhs
from repro.distribution.strategies import DistributionStrategy
from repro.kernels.greens import kernel_by_name
from repro.obs.metrics import COUNT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.runtime_metrics import service_queue_wait
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format

__all__ = [
    "FactorKey",
    "LatencyHistogram",
    "SolveTicket",
    "ServiceStats",
    "SolverService",
]

#: Maps the service backend name to the ``use_runtime`` mode of
#: :meth:`repro.api.StructuredSolver.solve`.
_BACKEND_TO_RUNTIME: Dict[str, Union[bool, str]] = {
    "reference": False,
    "sequential": "deferred",
    "parallel": "parallel",
    "process": "process",
    "distributed": "distributed",
}


@dataclass(frozen=True)
class FactorKey:
    """Cache key identifying one factorization (problem description).

    ``format`` names the structured representation (any format registered in
    :mod:`repro.pipeline.registry`); the same kernel problem compressed as
    HSS and as HODLR are distinct factorizations and cache separately.
    """

    kernel: str
    n: int
    leaf_size: int = 256
    max_rank: int = 100
    params: Tuple[Tuple[str, float], ...] = ()
    format: str = "hss"

    @classmethod
    def make(
        cls, kernel: str, n: int, *, leaf_size: int = 256, max_rank: int = 100,
        format: str = "hss", **params: float,
    ) -> "FactorKey":
        # Resolve the kernel and format names through their registries so
        # unknown ones fail at submit time (with the known choices) instead
        # of at factorization.
        try:
            kernel_by_name(kernel)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        return cls(
            kernel=str(kernel), n=int(n), leaf_size=int(leaf_size),
            max_rank=int(max_rank), params=tuple(sorted(params.items())),
            format=get_format(format).name,
        )

    @property
    def label(self) -> str:
        """Compact metrics label, e.g. ``"hss:yukawa:n=1024"``."""
        return f"{self.format}:{self.kernel}:n={self.n}"


class SolveTicket:
    """Handle for one queued right-hand side, resolved by :meth:`SolverService.flush`.

    A flushed ticket is always resolved exactly once, either with a solution
    (:attr:`result`) or -- when its batch failed -- with the error that
    poisoned it (:attr:`error`; reading :attr:`result` re-raises it).  Failed
    tickets are *not* silently re-queued: a request that cannot be served
    reports its error instead of retrying forever at the head of the queue.
    """

    __slots__ = ("key", "_b", "_single", "_result", "nrhs", "done", "error", "submitted_at")

    def __init__(self, key: FactorKey, b: np.ndarray, single: bool) -> None:
        self.key = key
        self._b: Optional[np.ndarray] = b  # validated (n, k) block until resolved
        self._single = single
        self._result: Optional[np.ndarray] = None
        self.nrhs = b.shape[1]
        self.done = False
        #: The exception that failed this ticket's batch (None on success).
        self.error: Optional[BaseException] = None
        #: ``perf_counter`` stamp of creation; :meth:`SolverService.flush`
        #: measures the ticket's queue wait from it.
        self.submitted_at = time.perf_counter()

    @property
    def result(self) -> np.ndarray:
        """The solution, shaped like the submitted ``b``.

        Raises ``RuntimeError`` while unresolved; re-raises the batch's
        exception when the ticket was resolved with an error.
        """
        if not self.done:
            raise RuntimeError(
                "ticket not resolved yet; call SolverService.flush() first"
            )
        if self.error is not None:
            raise self.error
        return self._result

    def _resolve(self, x: np.ndarray) -> None:
        # Copy out of the batch solution so tickets never alias each other,
        # and drop the input block so a resolved ticket holds one array.
        self._result = x[:, 0].copy() if self._single else x.copy()
        self._b = None
        self.done = True

    def _fail(self, exc: BaseException) -> None:
        self.error = exc
        self._b = None
        self.done = True

    def __repr__(self) -> str:
        state = "error" if self.error is not None else ("done" if self.done else "pending")
        return f"SolveTicket({self.key.kernel}, n={self.key.n}, nrhs={self.nrhs}, {state})"


#: Half-decade bucket upper bounds of :class:`LatencyHistogram`, 100us .. 100s.
_BUCKET_BOUNDS: Tuple[float, ...] = tuple(10.0 ** (k / 2.0) for k in range(-8, 5))


class LatencyHistogram:
    """Half-decade log-bucketed latency histogram (seconds).

    Buckets span 100 microseconds to 100 seconds with two buckets per decade
    (plus an overflow bucket), enough resolution to tell a cache-hit batch
    from a factorize-on-miss batch at a fixed, tiny memory cost.

    A view over one :class:`repro.obs.metrics.Histogram` series: the counts
    live in the service's :class:`~repro.obs.metrics.MetricsRegistry` (family
    ``repro_service_batch_seconds``), and this class only preserves the
    pre-registry API (``observe`` / ``quantile`` / ``summary`` and the
    ``counts`` / ``count`` / ``total`` / ``min`` / ``max`` attributes) --
    the latency a Prometheus scrape reports and the one
    :meth:`SolverService.metrics` reports are the same numbers by
    construction.
    """

    __slots__ = ("_hist",)

    def __init__(self, hist: Optional[Histogram] = None) -> None:
        if hist is None:  # standalone use (tests); normally backed by a registry
            hist = MetricsRegistry().histogram(
                _BATCH_SECONDS[0], _BATCH_SECONDS[1], buckets=_BUCKET_BOUNDS
            )
        self._hist = hist

    def observe(self, seconds: float) -> None:
        self._hist.observe(seconds)

    @property
    def counts(self) -> List[int]:
        return list(self._hist.counts)

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def total(self) -> float:
        return self._hist.sum

    @property
    def min(self) -> float:
        return self._hist.min if self._hist.count else float("inf")

    @property
    def max(self) -> float:
        return self._hist.max if self._hist.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile observation."""
        return self._hist.quantile(q)

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable snapshot (count/total/mean/min/max/p50/p95 + buckets)."""
        counts = self.counts
        buckets = {
            f"le_{_BUCKET_BOUNDS[i]:.4g}s": n
            for i, n in enumerate(counts[:-1])
            if n
        }
        if counts[-1]:
            buckets["overflow"] = counts[-1]
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "buckets": buckets,
        }


#: ServiceStats counter attribute -> (metric name, help text).
_STAT_COUNTERS: Dict[str, Tuple[str, str]] = {
    "requests": ("repro_service_requests_total", "Tickets submitted"),
    "solves": ("repro_service_solves_total", "Right-hand-side columns solved"),
    "batches": ("repro_service_batches_total", "Batched graph solves executed"),
    "cache_hits": ("repro_service_cache_hits_total", "Factorization cache hits"),
    "cache_misses": ("repro_service_cache_misses_total", "Factorization cache misses"),
    "evictions": (
        "repro_service_evictions_total",
        "Factorizations evicted from the LRU cache (capacity pressure only)",
    ),
    "expirations": (
        "repro_service_expirations_total",
        "Factorizations dropped by TTL expiry",
    ),
    "errors": (
        "repro_service_errors_total",
        "Tickets resolved with an error (their batch failed)",
    ),
    "compress_tasks": (
        "repro_service_compress_tasks_total",
        "Compression graph tasks recorded (cache misses only)",
    ),
    "factor_tasks": (
        "repro_service_factor_tasks_total",
        "Factorization graph tasks recorded (cache misses only)",
    ),
}

#: ServiceStats stage-timer attribute -> ``stage`` label value.
_STAT_STAGES: Dict[str, str] = {
    "compress_seconds": "compress",
    "factorize_seconds": "factorize",
    "factor_seconds": "factor",
    "solve_seconds": "solve",
}

_STAGE_SECONDS = ("repro_service_stage_seconds_total", "Wall seconds per service stage")
_BATCH_SECONDS = (
    "repro_service_batch_seconds",
    "Batched-solve wall seconds by factorization key",
)
_BATCH_RHS = (
    "repro_service_batch_rhs",
    "Right-hand-side columns per batched solve",
)
_QUEUE_DEPTH = ("repro_service_queue_depth", "Queued-ticket high-water mark")


class ServiceStats:
    """Counters accumulated over the lifetime of one :class:`SolverService`.

    A *view* over the service's :class:`~repro.obs.metrics.MetricsRegistry`:
    the attribute surface of the pre-registry dataclass is preserved
    (including augmented assignment, ``stats.cache_hits += 1``), but every
    counter, stage timer and latency histogram reads and writes registry
    series (``repro_service_*``), so :meth:`SolverService.metrics` and the
    Prometheus exposition can never disagree -- one source of truth.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Per-factorization-key batch-solve latency views
        #: (key label -> :class:`LatencyHistogram`).
        self.latency: Dict[str, LatencyHistogram] = {}
        # Touch every series up front so the exposition reports zeros for a
        # fresh service instead of omitting the families.
        for name, help_text in _STAT_COUNTERS.values():
            self.registry.counter(name, help_text)
        for stage in _STAT_STAGES.values():
            self.registry.counter(*_STAGE_SECONDS, stage=stage)

    @property
    def solves_per_sec(self) -> float:
        """Solved RHS columns per second of solve-phase wall time."""
        solve_seconds = self.solve_seconds
        return self.solves / solve_seconds if solve_seconds > 0 else 0.0

    def observe_latency(self, label: str, seconds: float) -> None:
        """Record one batched-solve latency under ``label``."""
        view = self.latency.get(label)
        if view is None:
            hist = self.registry.histogram(
                *_BATCH_SECONDS, buckets=_BUCKET_BOUNDS, key=label
            )
            view = self.latency[label] = LatencyHistogram(hist)
        view.observe(seconds)


def _counter_view(attr: str) -> property:
    name, help_text = _STAT_COUNTERS[attr]

    def _get(self: ServiceStats) -> int:
        return int(self.registry.value(name))

    def _set(self: ServiceStats, new: float) -> None:
        counter = self.registry.counter(name, help_text)
        counter.inc(new - counter.value)

    return property(_get, _set, doc=help_text)


def _stage_view(attr: str) -> property:
    stage = _STAT_STAGES[attr]

    def _get(self: ServiceStats) -> float:
        return self.registry.value(_STAGE_SECONDS[0], stage=stage)

    def _set(self: ServiceStats, new: float) -> None:
        counter = self.registry.counter(*_STAGE_SECONDS, stage=stage)
        counter.inc(new - counter.value)

    return property(_get, _set, doc=f"Stage timer: wall seconds in {stage!r}")


for _attr in _STAT_COUNTERS:
    setattr(ServiceStats, _attr, _counter_view(_attr))
for _attr in _STAT_STAGES:
    setattr(ServiceStats, _attr, _stage_view(_attr))
del _attr


class SolverService:
    """Serve many right-hand sides from cached, batched task-graph solves.

    Parameters
    ----------
    backend:
        Solve execution path: ``"reference"`` (sequential factor.solve),
        ``"sequential"`` (task graph, sequential bodies),
        ``"parallel"`` (thread-pool executor, ``n_workers`` threads; the
        default), ``"process"`` (``n_workers`` forked worker processes,
        GIL-free) or ``"distributed"`` (``nodes`` forked worker processes);
        ``process`` and ``distributed`` are the same owner-computes rank loop.  All backends produce bit-identical solutions.
    n_workers / nodes / distribution:
        Runtime-backend parameters, as in :meth:`repro.api.StructuredSolver.solve`.
    panel_size:
        RHS-panel width of the batched graph solves (``None``: one panel).
    refine:
        Apply one iterative-refinement step per batch (against the exact
        kernel operator) to every solve.
    max_cached:
        Factorizations kept in the LRU cache before eviction.  Keys with
        queued or in-flight tickets are *pinned*: eviction always takes the
        oldest unpinned entry, so a flush can never be forced into a silent
        mid-batch refactorization of a key it is about to serve.  When every
        entry is pinned the cache temporarily overflows instead of evicting;
        capacity is restored (and the eviction counted) once the pins drop.
    ttl_seconds:
        Optional factorization time-to-live: entries idle for longer than
        this are dropped by :meth:`purge_expired` (called at the start of
        every :meth:`flush`, so a server that flushes on arrival purges on
        arrival).  Pinned keys never expire.  ``None`` (default) disables
        TTL eviction.
    compress_runtime:
        Execution path of the *construction* phase on cache misses, as
        ``StructuredSolver.from_kernel(compress_runtime=...)`` accepts it
        (``False``: sequential build; a runtime backend name compresses
        through the task-graph construction subsystem with this service's
        ``n_workers`` / ``nodes`` / ``distribution``).  A
        :class:`FactorKey` cache hit skips compression *and* factorization
        entirely -- zero graph tasks run (see ``ServiceStats.compress_tasks``
        / ``factor_tasks``).
    fusion:
        Record-time task fusion/batching for every graph this service
        records (compression, factorization and the batched solves); off by
        default.  Fusion never changes solutions, only the task census.
    trace:
        Record measured :class:`~repro.runtime.tracing.ExecutionTrace` objects
        for every task-graph factorization and batched solve this service
        runs; :meth:`metrics` then includes the most recent solve trace's
        summary.  Ignored by ``backend="reference"`` (no task graph).
    metrics:
        Optional caller-owned :class:`~repro.obs.metrics.MetricsRegistry` the
        service records into (``None``: the service creates its own,
        :attr:`registry`).  The registry holds *both* the service-level
        ``repro_service_*`` series backing :attr:`stats` / :meth:`metrics`
        *and* the runtime-level ``repro_*`` task/comm/memory series of every
        task-graph compression, factorization and batched solve the service
        runs; render it with :meth:`render_prometheus`.
    """

    def __init__(
        self,
        *,
        backend: str = "parallel",
        n_workers: int = 4,
        nodes: int = 1,
        distribution: Optional[Union[str, DistributionStrategy]] = None,
        panel_size: Optional[int] = None,
        refine: bool = False,
        max_cached: int = 8,
        ttl_seconds: Optional[float] = None,
        compress_runtime: Union[bool, str] = False,
        fusion: bool = False,
        trace: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if backend not in _BACKEND_TO_RUNTIME:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                f"{sorted(_BACKEND_TO_RUNTIME)}"
            )
        if backend == "reference" and (panel_size is not None or distribution is not None):
            # Mirror StructuredSolver.solve: never silently drop task-graph-only knobs.
            raise ValueError(
                "panel_size and distribution only apply to the task-graph "
                "backends; backend='reference' would ignore them"
            )
        if max_cached <= 0:
            raise ValueError("max_cached must be positive")
        if ttl_seconds is not None and ttl_seconds < 0:
            raise ValueError("ttl_seconds must be non-negative (or None)")
        self.backend = backend
        self.n_workers = n_workers
        self.nodes = nodes
        self.distribution = distribution
        self.panel_size = panel_size
        self.refine = refine
        self.max_cached = max_cached
        self.ttl_seconds = ttl_seconds
        self.compress_runtime = compress_runtime
        self.fusion = fusion
        self.trace = bool(trace)
        #: The service's metrics registry (service-level + runtime-level series).
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.stats = ServiceStats(self.registry)
        self._queue_wait = service_queue_wait(self.registry)
        self._cache: "OrderedDict[FactorKey, StructuredSolver]" = OrderedDict()
        self._queue: List[SolveTicket] = []
        # submit()/flush()/solver_for() are safe to call from concurrent
        # threads, which is exactly what the HTTP server does (event-loop
        # handlers submit while an executor thread flushes).  ``_lock``
        # (re-entrant) guards the LRU OrderedDict, the eviction pins and the
        # stats read-modify-write property views, and is held across a whole
        # cache-miss build; solves run outside it.  ``_queue_lock`` guards
        # only the ticket queue and the request counter, so submit() and
        # ``pending`` never wait for a factorization -- an event loop calling
        # them keeps answering (and shedding load) while one is built.
        # Order: ``_lock`` before ``_queue_lock``, never the reverse.
        self._lock = threading.RLock()
        self._queue_lock = threading.Lock()
        #: Keys currently being served by an in-flight flush batch
        #: (key -> ticket count); pinned against eviction with the queue.
        self._inflight: Dict[FactorKey, int] = {}
        #: Last-use monotonic stamp per cached key (drives TTL expiry).
        self._stamps: Dict[FactorKey, float] = {}
        #: Measured trace of the most recent batched solve (``trace=True`` only).
        self.last_solve_trace: Any = None

    # -- factorization cache -------------------------------------------------
    def _pinned_keys(self) -> set:
        """Keys that must not be evicted: queued or in-flight tickets exist.

        Caller holds :attr:`_lock`.
        """
        with self._queue_lock:
            pinned = {ticket.key for ticket in self._queue}
        pinned.update(key for key, count in self._inflight.items() if count > 0)
        return pinned

    def _evict_over_capacity(self) -> None:
        """Evict oldest *unpinned* entries until the cache fits ``max_cached``.

        Caller holds :attr:`_lock`.  A key with queued or in-flight tickets
        is never evicted (that would force a silent refactorization mid-
        flush), and neither is the most-recently-used entry (evicting the
        factorization that was just built or served would defeat the cache);
        when no other candidate exists the cache temporarily overflows and
        capacity is restored at the next unpinned opportunity.  Only true
        evictions count into ``repro_service_evictions_total``.
        """
        while len(self._cache) > self.max_cached:
            pinned = self._pinned_keys()
            newest = next(reversed(self._cache))
            victim = next(
                (k for k in self._cache if k not in pinned and k != newest), None
            )
            if victim is None:
                break
            del self._cache[victim]
            self._stamps.pop(victim, None)
            self.stats.evictions += 1

    def purge_expired(self, *, now: Optional[float] = None) -> List[FactorKey]:
        """Drop cached factorizations idle for longer than ``ttl_seconds``.

        Returns the expired keys (empty when TTL is disabled).  Pinned keys
        (queued or in-flight tickets) are never expired.  ``now`` overrides
        the monotonic clock for tests.
        """
        if self.ttl_seconds is None:
            return []
        if now is None:
            now = time.monotonic()
        with self._lock:
            pinned = self._pinned_keys()
            expired = [
                key
                for key, stamp in self._stamps.items()
                if now - stamp > self.ttl_seconds and key not in pinned
            ]
            for key in expired:
                self._cache.pop(key, None)
                del self._stamps[key]
                self.stats.expirations += 1
            return expired

    def solver_for(self, key: FactorKey) -> StructuredSolver:
        """The cached, factorized :class:`StructuredSolver` for ``key`` (build on miss).

        Thread-safe; the service lock is held across the whole miss path, so
        two concurrent requests for the same new key build it once.
        """
        with self._lock:
            solver = self._cache.get(key)
            if solver is not None:
                self._cache.move_to_end(key)
                self._stamps[key] = time.monotonic()
                self.stats.cache_hits += 1
                return solver
            return self._build_and_cache(key)

    def _build_and_cache(self, key: FactorKey) -> StructuredSolver:
        """Miss path of :meth:`solver_for`; caller holds :attr:`_lock`."""
        self.stats.cache_misses += 1
        t0 = time.perf_counter()
        solver = StructuredSolver.from_kernel(
            key.kernel, n=key.n, format=key.format,
            leaf_size=key.leaf_size, max_rank=key.max_rank,
            compress_runtime=self.compress_runtime,
            compress_nodes=self.nodes,
            compress_workers=self.n_workers,
            compress_distribution=self.distribution,
            compress_fusion=self.fusion,
            compress_trace=self.trace and self.compress_runtime is not False,
            compress_metrics=self.registry,
            **dict(key.params),
        )
        t1 = time.perf_counter()
        self.stats.compress_seconds += t1 - t0
        # Factorize through the service's backend so the whole miss path is
        # one task-graph pipeline (compress -> factorize); the reference
        # backend keeps the sequential path.
        use_runtime = _BACKEND_TO_RUNTIME[self.backend]
        if use_runtime is False:
            solver.factorize()
        else:
            solver.factorize(
                use_runtime=use_runtime,
                nodes=self.nodes,
                n_workers=self.n_workers,
                distribution=self.distribution,
                fusion=self.fusion,
                trace=self.trace,
                metrics=self.registry,
            )
        t2 = time.perf_counter()
        self.stats.factorize_seconds += t2 - t1
        self.stats.factor_seconds += t2 - t0
        if solver.compress_runtime is not None:
            self.stats.compress_tasks += solver.compress_runtime.num_tasks
        if solver.factorize_runtime is not None:
            self.stats.factor_tasks += solver.factorize_runtime.num_tasks
        self._cache[key] = solver
        self._stamps[key] = time.monotonic()
        self._evict_over_capacity()
        return solver

    @property
    def cached_keys(self) -> List[FactorKey]:
        with self._lock:
            return list(self._cache)

    # -- request queue -------------------------------------------------------
    def submit(
        self,
        b: np.ndarray,
        *,
        kernel: str,
        n: int,
        leaf_size: int = 256,
        max_rank: int = 100,
        format: str = "hss",
        **params: float,
    ) -> SolveTicket:
        """Queue one right-hand side (vector or ``(n, k)`` block) for solving.

        ``n`` is required (never inferred from ``b``): the cache key must name
        the intended problem, so a mis-sized right-hand side raises instead of
        silently factorizing -- and caching -- a wrong-size problem.
        ``format`` selects the structured representation (registry-driven).
        """
        key = FactorKey.make(
            kernel, n, leaf_size=leaf_size, max_rank=max_rank, format=format, **params
        )
        bm, single = validate_rhs(b, key.n)
        ticket = SolveTicket(key, bm, single)
        with self._queue_lock:
            self._queue.append(ticket)
            self.stats.requests += 1
            depth = len(self._queue)
        self.registry.gauge(*_QUEUE_DEPTH, mode="max").set_max(depth)
        return ticket

    @property
    def pending(self) -> int:
        """Queued tickets not yet flushed."""
        with self._queue_lock:
            return len(self._queue)

    def _revalidate(self, key: FactorKey, solver: StructuredSolver) -> StructuredSolver:
        """Re-validate one cached factorization against its key.

        Runs once per distinct key per :meth:`flush` -- *not* once per ticket
        -- so a large same-key batch pays the check a single time, and a
        cache hit never re-runs compression or factorization (zero graph
        tasks execute; see ``ServiceStats.compress_tasks`` /
        ``factor_tasks``).  A cached entry whose problem description no
        longer matches its key (a corrupted cache) fails loudly instead of
        serving wrong-size solutions.
        """
        if solver.n != key.n or solver.format != key.format:
            raise RuntimeError(
                f"cached solver for {key} describes a different problem "
                f"(n={solver.n}, format={solver.format!r}); the cache is corrupt"
            )
        if solver.factor is None:  # pragma: no cover - defensive
            raise RuntimeError(f"cached solver for {key} lost its factorization")
        return solver

    def flush(self) -> List[SolveTicket]:
        """Drain the queue: one batched task-graph solve per distinct key.

        Tickets sharing a factorization key are stacked column-wise into one
        block right-hand side and solved through a single recorded graph; the
        cached factorization is re-validated once per key (not per ticket)
        and the solution block is split back onto the tickets.  Returns the
        drained tickets in submission order, every one resolved exactly once:
        with its solution, or -- when its batch failed -- with the exception
        set as :attr:`SolveTicket.error` (reading ``.result`` re-raises it).
        A failed key never poisons the rest of the flush: tickets against
        *other* keys in the same drain still solve normally, and a failed
        ticket is never re-queued, so one bad request cannot head-of-line
        block the service by retrying forever.
        """
        self.purge_expired()
        with self._lock:
            with self._queue_lock:
                queue, self._queue = self._queue, []
            # Pin the keys being served: eviction must not drop a
            # factorization mid-batch (see _evict_over_capacity).
            for ticket in queue:
                self._inflight[ticket.key] = self._inflight.get(ticket.key, 0) + 1
        taken_at = time.perf_counter()
        for ticket in queue:
            self._queue_wait.observe(taken_at - ticket.submitted_at)
        by_key: "OrderedDict[FactorKey, List[SolveTicket]]" = OrderedDict()
        for ticket in queue:
            by_key.setdefault(ticket.key, []).append(ticket)
        use_runtime = _BACKEND_TO_RUNTIME[self.backend]
        solve_kwargs: Dict[str, object] = {"use_runtime": use_runtime, "refine": self.refine}
        if use_runtime is not False:
            # Task-graph-only knobs; the reference path rejects them.
            solve_kwargs.update(
                nodes=self.nodes,
                n_workers=self.n_workers,
                distribution=self.distribution,
                panel_size=self.panel_size,
                fusion=self.fusion,
                trace=self.trace,
                metrics=self.registry,
            )
        try:
            for key, tickets in by_key.items():
                try:
                    solver = self._revalidate(key, self.solver_for(key))
                    batch = np.concatenate([t._b for t in tickets], axis=1)
                    t0 = time.perf_counter()
                    x = solver.solve(batch, **solve_kwargs)
                    elapsed = time.perf_counter() - t0
                except Exception as exc:
                    # Resolve this key's tickets with the error and move on:
                    # the other keys in the drain must still be served.
                    with self._lock:
                        for ticket in tickets:
                            ticket._fail(exc)
                        self.stats.errors += len(tickets)
                    continue
                with self._lock:
                    self.stats.solve_seconds += elapsed
                    self.stats.observe_latency(key.label, elapsed)
                    self.stats.batches += 1
                    self.stats.solves += batch.shape[1]
                    self.registry.histogram(
                        *_BATCH_RHS, buckets=COUNT_BUCKETS
                    ).observe(batch.shape[1])
                    if self.trace and solver.solve_runtime is not None:
                        self.last_solve_trace = solver.solve_runtime.last_trace
                    start = 0
                    for ticket in tickets:
                        ticket._resolve(x[:, start : start + ticket.nrhs])
                        start += ticket.nrhs
        finally:
            with self._lock:
                for ticket in queue:
                    left = self._inflight.get(ticket.key, 0) - 1
                    if left > 0:
                        self._inflight[ticket.key] = left
                    else:
                        self._inflight.pop(ticket.key, None)
                # Only a BaseException escaping the loop (KeyboardInterrupt,
                # executor teardown) leaves tickets unresolved; re-queue them
                # so a later flush can still serve them.
                unresolved = [t for t in queue if not t.done]
                if unresolved:
                    with self._queue_lock:
                        self._queue = unresolved + self._queue
                # Pins may have held the cache over capacity; restore it now.
                self._evict_over_capacity()
        return queue

    def solve(
        self,
        b: np.ndarray,
        *,
        kernel: str,
        n: int,
        leaf_size: int = 256,
        max_rank: int = 100,
        format: str = "hss",
        **params: float,
    ) -> np.ndarray:
        """Convenience: submit one request, flush, return its solution."""
        ticket = self.submit(
            b, kernel=kernel, n=n, leaf_size=leaf_size, max_rank=max_rank,
            format=format, **params
        )
        self.flush()
        return ticket.result

    def metrics(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the service's runtime metrics.

        Fields: the backend configuration (``backend`` / ``n_workers`` /
        ``nodes`` / ``panel_size``), cache state (``cached`` / ``pending`` /
        ``cache_hits`` / ``cache_misses`` / ``evictions``), request counters
        (``requests`` / ``solves`` / ``batches`` / ``solves_per_sec``), the
        stage timers (``compress_seconds`` / ``factorize_seconds`` /
        ``factor_seconds`` / ``solve_seconds``), how many batched solves
        recorded a new task graph versus replayed a recorded one
        (``solve_plan_records`` / ``solve_plan_replays``: the replay hit rate
        is what explains a change in batch latency), the submit-to-flush
        wait of every ticket under ``queue_wait`` (a histogram summary: high
        with full batches means load, high with small batches means slow
        flushes), per-key batch latency histogram summaries under
        ``latency``, and -- when the service was
        created with ``trace=True`` -- the most recent solve trace's
        breakdown summary under ``last_solve_trace``.

        Every number here is read from the same :attr:`registry` series the
        Prometheus exposition renders (:meth:`render_prometheus`); there is
        no parallel bookkeeping path.
        """
        stats = self.stats
        solve_backend = ExecutionPolicy.resolve(_BACKEND_TO_RUNTIME[self.backend]).backend
        snapshot: Dict[str, Any] = {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "nodes": self.nodes,
            "panel_size": self.panel_size,
            "cached": len(self._cache),
            "pending": self.pending,
            "requests": stats.requests,
            "solves": stats.solves,
            "batches": stats.batches,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "evictions": stats.evictions,
            "expired": stats.expirations,
            "errors": stats.errors,
            "ttl_seconds": self.ttl_seconds,
            "compress_seconds": stats.compress_seconds,
            "factorize_seconds": stats.factorize_seconds,
            "factor_seconds": stats.factor_seconds,
            "solve_seconds": stats.solve_seconds,
            "solves_per_sec": stats.solves_per_sec,
            "compress_tasks": stats.compress_tasks,
            "factor_tasks": stats.factor_tasks,
            "solve_plan_records": int(self.registry.value(
                "repro_solve_plan_records_total", backend=solve_backend)),
            "solve_plan_replays": int(self.registry.value(
                "repro_solve_plan_replays_total", backend=solve_backend)),
            "queue_wait": self._queue_wait.summary(),
            "latency": {label: hist.summary() for label, hist in stats.latency.items()},
        }
        if self.last_solve_trace is not None:
            snapshot["last_solve_trace"] = self.last_solve_trace.summary()
        return snapshot

    # -- persistence ---------------------------------------------------------
    def save_cache(self, path: Any) -> int:
        """Write every cached factorization to ``path``; returns the count.

        See :func:`repro.service.persistence.save_cache` for the format; a
        restarted service calls :meth:`load_cache` on the same path to serve
        cache hits without refactorizing anything.
        """
        from repro.service import persistence

        return persistence.save_cache(self, path)

    def load_cache(self, path: Any) -> int:
        """Install factorizations previously saved with :meth:`save_cache`.

        Returns the number of entries loaded; raises ``ValueError`` on a
        corrupt or truncated file.
        """
        from repro.service import persistence

        return persistence.load_cache(self, path)

    def render_prometheus(self) -> str:
        """The service's :attr:`registry` in Prometheus text exposition format.

        Includes the ``repro_service_*`` serving metrics backing
        :meth:`metrics` and the ``repro_*`` runtime task/comm/memory metrics
        of every task-graph execution the service ran.
        """
        return self.registry.render_prometheus()

    def __repr__(self) -> str:
        return (
            f"SolverService(backend={self.backend!r}, cached={len(self._cache)}, "
            f"pending={self.pending}, solves={self.stats.solves})"
        )

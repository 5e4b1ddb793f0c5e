"""Distributed-memory execution backend for recorded DTD task graphs.

The real multi-process counterpart of both the thread-pool executor
(:mod:`repro.runtime.executor`) and the discrete-event simulator
(:mod:`repro.runtime.simulator`): task graphs recorded by
:class:`~repro.runtime.dtd.DTDRuntime` execute across ``nodes`` forked worker
processes with owner-computes placement from a
:class:`~repro.distribution.strategies.DistributionStrategy`, explicit
serialized data transfers on cross-process dependency edges, and full
communication accounting.

Modules
-------
:mod:`~repro.runtime.distributed.backend`
    :func:`execute_graph_distributed` -- the per-rank event loops,
    owner resolution and result gathering; :class:`DistributedReport`.
:mod:`~repro.runtime.distributed.comm`
    :class:`CommLedger` / :class:`CommEvent` measurement records, plus the
    static transfer plan (:func:`plan_transfers`) and the analytic message /
    byte counts (:func:`expected_comm`) implied by a distribution strategy.
:mod:`~repro.runtime.distributed.protocol`
    The queue message types exchanged between workers and the parent.

Entry points: :meth:`repro.runtime.dtd.DTDRuntime.run_distributed`,
``ExecutionPolicy(backend="distributed", nodes=N)`` (or ``backend="process",
n_workers=N``: one rank per worker) on any graph builder,
``StructuredSolver.factorize(use_runtime="distributed")`` and
``python -m repro solve --runtime distributed --nodes N``.
"""

from repro.runtime.distributed.backend import (
    DistributedReport,
    execute_graph_distributed,
    measured_vs_planned_comm,
    resolve_owners,
)
from repro.runtime.distributed.comm import (
    CommEvent,
    CommLedger,
    Transfer,
    expected_comm,
    plan_transfers,
)
from repro.runtime.distributed.protocol import DataMessage, RemoteTaskError, WorkerResult

__all__ = [
    "DistributedReport",
    "execute_graph_distributed",
    "measured_vs_planned_comm",
    "resolve_owners",
    "CommEvent",
    "CommLedger",
    "Transfer",
    "expected_comm",
    "plan_transfers",
    "DataMessage",
    "RemoteTaskError",
    "WorkerResult",
]

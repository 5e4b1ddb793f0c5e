"""Task-based runtime system substrate (the PaRSEC analogue of the paper).

The paper drives the HSS-ULV factorization with the PaRSEC runtime system's
Dynamic Task Discovery (DTD) interface.  This package provides the equivalent
programming model in pure Python:

* :class:`~repro.runtime.data.DataHandle` -- a named piece of matrix data with
  an owning process.
* :class:`~repro.runtime.dtd.DTDRuntime` -- ``insert_task`` with READ/WRITE
  access modes; dependencies are inferred from data accesses exactly like
  PaRSEC DTD (every process discovers the whole graph and trims non-local
  tasks, which is the source of the runtime overhead analysed in Sec. 5.3.3).
* :class:`~repro.runtime.dag.TaskGraph` -- the resulting DAG.
* :class:`~repro.runtime.machine.MachineConfig` -- a distributed machine model
  (Fugaku-like preset available).
* :func:`~repro.runtime.simulator.simulate` -- discrete-event simulation of a
  task graph on the machine model under either *asynchronous* (PaRSEC-style)
  or *fork-join* (ScaLAPACK/STRUMPACK-style) scheduling, producing the
  compute/overhead/MPI breakdowns of Fig. 10.
* :func:`~repro.runtime.executor.execute_graph` -- real shared-memory parallel
  execution of a recorded task graph: event-driven worker threads dispatch
  ready tasks highest-critical-path-first and cancel queued work
  deterministically when a task body raises.
* :mod:`~repro.runtime.distributed` -- real *distributed-memory* execution:
  :func:`~repro.runtime.distributed.execute_graph_distributed` runs the graph
  across forked worker processes with owner-computes placement from a
  :class:`~repro.distribution.strategies.DistributionStrategy`, explicit
  serialized data transfers on cross-process dependency edges, and a
  :class:`~repro.runtime.distributed.CommLedger` accounting every message, so
  measured communication can be cross-validated against the simulator's model.

Execution modes
---------------
A :class:`~repro.runtime.dtd.DTDRuntime` runs task bodies in one of three
modes, all producing bit-identical results:

``immediate``
    Bodies run at ``insert_task`` time (sequential, deterministic) while the
    graph is still recorded.  Best for debugging and as a reference.
``deferred``
    Bodies are recorded and run later: sequentially via
    :meth:`~repro.runtime.dtd.DTDRuntime.run`, out-of-order on a thread
    pool via :meth:`~repro.runtime.dtd.DTDRuntime.run_parallel`, or across
    worker processes via :meth:`~repro.runtime.dtd.DTDRuntime.run_distributed`.
``symbolic``
    Bodies are never run; only the graph (block sizes, flops, bytes) is
    recorded.  Used to generate paper-scale DAGs for the machine simulator.

The graph builders of :mod:`repro.pipeline` select among these through an
:class:`~repro.pipeline.policy.ExecutionPolicy` backend
(``"immediate" | "deferred" | "parallel" | "process" | "distributed"``), and
the :class:`~repro.api.StructuredSolver` facade as
``use_runtime="off" | "immediate" | "deferred" | "parallel" | "process" |
"distributed"``.
"""

from repro.runtime.data import DataHandle
from repro.runtime.task import AccessMode, Task, TaskAccess
from repro.runtime.dag import TaskGraph
from repro.runtime.dtd import DTDRuntime
from repro.runtime.machine import MachineConfig, fugaku_like, laptop_like
from repro.runtime.trace import SimulationResult, WorkerBreakdown
from repro.runtime.tracing import CommSpan, ExecutionTrace, SpanAggregate, TaskSpan
from repro.runtime.simulator import simulate
from repro.runtime.executor import execute_graph
from repro.runtime.distributed import (
    CommLedger,
    DistributedReport,
    execute_graph_distributed,
)

__all__ = [
    "DataHandle",
    "AccessMode",
    "Task",
    "TaskAccess",
    "TaskGraph",
    "DTDRuntime",
    "MachineConfig",
    "fugaku_like",
    "laptop_like",
    "SimulationResult",
    "WorkerBreakdown",
    "ExecutionTrace",
    "TaskSpan",
    "CommSpan",
    "SpanAggregate",
    "simulate",
    "execute_graph",
    "CommLedger",
    "DistributedReport",
    "execute_graph_distributed",
]

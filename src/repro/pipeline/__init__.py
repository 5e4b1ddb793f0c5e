"""The format-agnostic ULV pipeline layer.

The paper's DTD task-insertion model is format-agnostic by design: the same
insert-task/execute machinery serves any structured format.  This package is
where that promise is kept:

* :mod:`~repro.pipeline.policy` -- :class:`ExecutionPolicy`, the single
  description of *how* a graph executes (backend, workers, nodes,
  distribution, RHS panels) and the single backend-dispatch implementation
  (:meth:`ExecutionPolicy.execute`).
* :mod:`~repro.pipeline.builder` -- the :class:`GraphBuilder` /
  :class:`SolveGraphBuilder` scaffolds (phase recording, distribution
  assignment, distributed fragment collect/merge, comm-plan verification,
  RHS panel chaining) every format's graphs are built on.
* :mod:`~repro.pipeline.factorize` / :mod:`~repro.pipeline.solve` -- the
  one ULV factorize builder and the one solve builder, for every format:
  HSS, HODLR through its truncated HSS form, and BLR2 as a one-level tree.
* :mod:`~repro.pipeline.registry` -- :class:`FormatSpec` entries mapping a
  format name to (compressor, factorizer, solver); registering a spec gives
  the format every backend, the CLI ``--format`` flag and service caching
  for free.

This is the one front door to the task graphs: a format's
``get_format(name).factorize_dtd / solve_dtd / compress_graph(...,
policy=ExecutionPolicy(...))``, or a builder constructed directly under a
policy (``Builder(..., policy=ExecutionPolicy(backend="deferred")).record()``
gives a recorded graph that has not run yet).  Every builder records into the
runtime its policy makes, except that the HSS-ULV factorize builder given an
:class:`~repro.formats.hss.HSSStructure` records the same graph symbolically
for the simulator.  The registry imports ``repro.pipeline.factorize`` /
``repro.pipeline.solve`` on first use.
"""

from repro.pipeline.panels import apply_operator, column_panels, refine_once
from repro.pipeline.policy import BACKENDS, RUNTIME_BACKENDS, ExecutionPolicy
from repro.pipeline.builder import GraphBuilder, SolveGraphBuilder
from repro.pipeline.registry import (
    FormatSpec,
    available_formats,
    format_titles,
    get_format,
    register_format,
)

__all__ = [
    "BACKENDS",
    "RUNTIME_BACKENDS",
    "ExecutionPolicy",
    "GraphBuilder",
    "SolveGraphBuilder",
    "FormatSpec",
    "register_format",
    "get_format",
    "available_formats",
    "format_titles",
    "apply_operator",
    "column_panels",
    "refine_once",
]

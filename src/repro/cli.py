"""Command-line interface for regenerating the paper's tables and figures.

Usage::

    python -m repro table1
    python -m repro table2 --n 4096
    python -m repro fig9  --kernel yukawa --max-nodes 128
    python -m repro fig10
    python -m repro fig11 --nodes 64
    python -m repro fig12 --n 65536
    python -m repro solve --n 2048 --runtime parallel --workers 4
    python -m repro solve --n 2048 --nrhs 16 --runtime parallel --refine
    python -m repro solve --n 2048 --runtime distributed --nodes 4 --distribution row
    python -m repro solve --format hodlr --runtime parallel --workers 4
    python -m repro solve --n 2048 --runtime parallel --compress-runtime parallel
    python -m repro speedup --backend process --workers 4
    python -m repro weakscale --base-n 512 --max-nodes 4
    python -m repro servebench --n 1024 --requests 32 --batch 1 --batch 8
    python -m repro compresscale --n 2048 --workers 4 --nodes 2
    python -m repro trace --phase factorize --runtime parallel --chrome-json trace.json
    python -m repro metrics --phase factorize --runtime process
    python -m repro metrics --phase solve --runtime distributed --nodes 2 --json
    python -m repro benchreport --html report.html
    python -m repro serve --port 8080 --backend parallel --workers 4
    python -m repro serve --auth-file tenants.json --cache-file factors.bin --ttl 600

Each experiment sub-command runs the corresponding driver
(:mod:`repro.experiments`) and prints the same rows/series the paper reports.
The defaults are reduced sizes; ``--full`` switches to paper-scale settings
where feasible.

``solve`` runs one end-to-end compress/factorize/solve through the
:class:`~repro.api.StructuredSolver` facade; ``--format`` selects the
compressed representation from the pipeline's format registry (HSS, BLR2,
HODLR, ...), and ``--runtime`` selects the execution path of both the
factorization and the solve (``off``: sequential reference, ``immediate``:
DTD tasks executed at insertion time, ``deferred``: recorded graph run
sequentially, ``parallel``: recorded task graph executed out-of-order on a
``--workers``-thread pool, ``distributed``: recorded task graph executed
across ``--nodes`` worker processes under the ``--distribution`` placement)
and the reported errors demonstrate that all modes agree.  ``--nrhs`` solves
a blocked multi-RHS system; ``--refine`` adds one iterative-refinement step.
``--compress-runtime`` additionally runs the *construction* phase through the
task-graph compression subsystem (:mod:`repro.compress`) on the chosen
backend -- bit-identical to the sequential build, completing the
compress/factorize/solve pipeline on the runtime.

``compresscale`` measures the compression phase directly: task-graph
construction vs the sequential build for every registered format, with
speedups, task counts and (distributed) communication volume.

The argparse choices for ``--format``, ``--runtime`` and ``--distribution``
are derived from the format registry, :data:`repro.pipeline.policy.BACKENDS`
and the distribution-strategy registry -- registering a new format or
strategy updates every sub-command at once.

``servebench`` measures the serving throughput of the caching/batching
:class:`~repro.service.SolverService`: solves/sec vs batch size vs backend,
from one cached factorization per backend.

``weakscale`` runs the distributed weak-scaling experiment: the same recorded
task graph is executed on the real multi-process backend and replayed through
the machine simulator, reporting measured vs modelled makespan and per-strategy
communication volume.

``trace`` runs one phase (compress, factorize or solve) on one runtime
backend with measured task-level tracing enabled and prints the per-worker
compute/overhead/communication/idle breakdown plus per-kind and per-phase
aggregate tables; ``--chrome-json`` additionally writes the timeline as
Chrome trace-event JSON loadable in ``chrome://tracing`` or Perfetto.

``metrics`` runs one phase the same way with a
:class:`~repro.obs.metrics.MetricsRegistry` attached and emits the
accumulated task/comm/memory metrics in Prometheus text exposition format
(``--json``: the registry snapshot as JSON instead); every runtime backend
reports the same metric vocabulary (see README "Observability").

``benchreport`` renders the benchmark artifact ``BENCH_runtime.json`` into a
markdown report (``--html``: additionally a self-contained HTML file) with
per-row timing sparklines and regression deltas against a baseline artifact.

``serve`` runs the always-on HTTP front end
(:class:`~repro.service.http_server.SolverHTTPServer`): ``POST /v1/solve``
(blocking; flushed on arrival, batched under load), ``POST /v1/submit`` + ``GET /v1/tickets/<id>`` (async),
``GET /metrics`` (Prometheus), ``GET /healthz`` and ``GET /v1/stats`` -- with
per-tenant API keys and token-bucket rate limits (``--auth-file`` /
``--rate-limit``), queue-depth backpressure (``--max-pending``) and a
disk-persisted factorization cache (``--cache-file``) so restarts serve
cache hits instead of refactorizing (see README "Serving").
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional, Sequence

from repro.distribution.strategies import available_distributions
from repro.pipeline.policy import BACKENDS
from repro.pipeline.registry import available_formats
from repro.experiments import (
    format_compress_scaling,
    format_distributed_weak_scaling,
    format_fig9,
    format_fig10,
    format_fig11,
    format_fig12,
    format_parallel_speedup,
    format_table1,
    format_table2,
    format_solve_throughput,
    run_compress_scaling,
    run_distributed_weak_scaling,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_parallel_speedup,
    run_solve_throughput,
    run_table1,
    run_table2,
)

__all__ = ["build_parser", "main"]

#: The backend argparse choices (fixed by the ExecutionPolicy contract).
RUNTIME_CHOICES = BACKENDS


def _positive_int(value: str) -> int:
    ivalue = int(value)
    if ivalue <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return ivalue


#: Maps the ``--fusion`` tri-state onto the ``ExecutionPolicy.fusion`` field.
_FUSION_MODES = {"auto": None, "on": True, "off": False}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` experiment CLI.

    The ``--format`` and ``--distribution`` choices are read from the format
    and distribution registries *at parser-build time*, so formats or
    strategies registered before :func:`main` runs appear in every
    sub-command automatically.
    """
    format_choices = available_formats()
    distribution_choices = available_distributions()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the HATRIX-DTD paper (ICPP 2023).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="measured compute/communication complexity survey")
    p.add_argument("--full", action="store_true", help="use larger problem sizes")

    p = sub.add_parser("table2", help="rank / leaf size vs construction and solve error")
    p.add_argument("--n", type=int, default=2048, help="problem size (paper: 65536)")
    p.add_argument("--kernel", action="append", dest="kernels", help="kernel name (repeatable)")

    p = sub.add_parser("fig9", help="weak scaling of factorization time")
    p.add_argument("--kernel", action="append", dest="kernels", help="kernel name (repeatable)")
    p.add_argument("--max-nodes", type=int, default=128)
    p.add_argument("--full", action="store_true", help="extend LORAPO to 512 nodes")

    p = sub.add_parser("fig10", help="per-worker compute vs overhead/MPI breakdown")
    p.add_argument("--max-nodes", type=int, default=128)
    p.add_argument("--full", action="store_true")

    p = sub.add_parser("fig11", help="problem-size sweep at constant node count")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--full", action="store_true", help="include N=262144")

    p = sub.add_parser("fig12", help="leaf-size sweep at constant problem size")
    p.add_argument("--n", type=int, default=65536)
    p.add_argument("--nodes", type=int, default=128)

    p = sub.add_parser(
        "solve", help="end-to-end kernel solve through the StructuredSolver facade"
    )
    p.add_argument("--n", type=int, default=2048, help="problem size")
    p.add_argument("--kernel", default="yukawa", help="kernel name")
    p.add_argument(
        "--format",
        choices=format_choices,
        default="hss",
        help="structured matrix format (from the pipeline format registry)",
    )
    p.add_argument("--leaf-size", type=int, default=256, help="leaf cluster size")
    p.add_argument("--max-rank", type=int, default=60, help="skeleton rank cap")
    p.add_argument(
        "--runtime",
        choices=RUNTIME_CHOICES,
        default="off",
        help="execution path: off = sequential reference, immediate = DTD tasks "
        "run at insertion time, deferred = recorded graph run sequentially, "
        "parallel = task graph executed out-of-order on a thread pool, "
        "process = fused task graph executed on a pool of forked worker "
        "processes (GIL-free), "
        "distributed = task graph executed across --nodes worker processes "
        "with owner-computes placement",
    )
    p.add_argument(
        "--compress-runtime",
        choices=RUNTIME_CHOICES,
        default="off",
        help="execution path of the construction phase: off = sequential "
        "formats.build_* reference, any runtime backend compresses through "
        "the task-graph construction subsystem (bit-identical output)",
    )
    p.add_argument(
        "--fusion",
        choices=("auto", "on", "off"),
        default="auto",
        help="record-time task fusion/batching: auto = fused exactly where "
        "required (the process backend), on/off = force for any task-graph "
        "runtime (never changes results, only the task census)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="thread count for --runtime parallel, process count for --runtime process",
    )
    p.add_argument(
        "--nodes",
        type=int,
        default=1,
        help="processes for the data distribution (worker processes for --runtime distributed)",
    )
    p.add_argument(
        "--distribution",
        choices=distribution_choices,
        default="row",
        help="data-distribution strategy for the runtime paths",
    )
    p.add_argument(
        "--data-plane",
        choices=("shm", "pickle"),
        default=None,
        help="wire representation of cross-process edges for --runtime "
        "distributed: shm = zero-copy shared-memory segments (default), "
        "pickle = full pickled payloads (bit-identical, more bytes moved)",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for the right-hand side")
    p.add_argument(
        "--nrhs",
        type=_positive_int,
        default=1,
        help="number of right-hand sides solved as one block",
    )
    p.add_argument(
        "--refine",
        action="store_true",
        help="add one iterative-refinement step against the exact kernel operator",
    )

    p = sub.add_parser(
        "speedup", help="sequential vs parallel execution of the recorded ULV task graphs"
    )
    p.add_argument("--n", type=int, default=2048, help="problem size")
    p.add_argument("--kernel", default="yukawa", help="kernel name")
    p.add_argument("--leaf-size", type=int, default=256, help="leaf cluster size")
    p.add_argument("--max-rank", type=int, default=60, help="skeleton rank cap")
    p.add_argument("--workers", type=int, default=4, help="thread/process count for the parallel run")
    p.add_argument(
        "--backend",
        choices=("thread", "process", "distributed"),
        default="thread",
        help="parallel substrate: thread = shared-memory thread pool, "
        "process = fused task graphs on a forked process pool (GIL-free), "
        "distributed = owner-computes multi-process backend",
    )
    p.add_argument(
        "--fusion",
        choices=("auto", "on", "off"),
        default="auto",
        help="record-time task fusion/batching of the timed graphs",
    )
    p.add_argument(
        "--repeats",
        type=_positive_int,
        default=3,
        help="best-of-N warmed timing repeats per side",
    )

    p = sub.add_parser(
        "weakscale",
        help="distributed weak scaling: measured (multi-process) vs simulated makespan and comm volume",
    )
    p.add_argument("--base-n", type=int, default=512, help="problem size per node")
    p.add_argument("--max-nodes", type=int, default=4, help="largest node count (doubling from 1)")
    p.add_argument("--kernel", default="yukawa", help="kernel name")
    p.add_argument("--leaf-size", type=int, default=64, help="leaf cluster size")
    p.add_argument("--max-rank", type=int, default=24, help="skeleton rank cap")
    p.add_argument(
        "--distribution",
        action="append",
        dest="distributions",
        choices=distribution_choices,
        help="distribution strategy (repeatable; default: row and block)",
    )
    p.add_argument(
        "--data-plane",
        action="append",
        dest="data_planes",
        choices=("shm", "pickle"),
        help="data plane to measure (repeatable; default: shm and pickle, "
        "so the report shows the zero-copy byte savings)",
    )

    p = sub.add_parser(
        "servebench",
        help="SolverService throughput: solves/sec vs batch size vs backend",
    )
    p.add_argument("--n", type=int, default=1024, help="problem size")
    p.add_argument("--kernel", default="yukawa", help="kernel name")
    p.add_argument(
        "--format",
        choices=format_choices,
        default="hss",
        help="structured matrix format served by the service",
    )
    p.add_argument("--leaf-size", type=int, default=128, help="leaf cluster size")
    p.add_argument("--max-rank", type=int, default=30, help="skeleton rank cap")
    p.add_argument(
        "--requests",
        type=_positive_int,
        default=32,
        help="right-hand sides streamed per sweep",
    )
    p.add_argument(
        "--batch",
        action="append",
        dest="batch_sizes",
        type=_positive_int,
        help="batch size (repeatable; default: 1, 4, 16)",
    )
    p.add_argument(
        "--backend",
        action="append",
        dest="backends",
        choices=("reference", "immediate", "sequential", "parallel", "process", "distributed"),
        help="service backend (repeatable; default: reference, sequential, parallel)",
    )
    p.add_argument("--workers", type=int, default=4, help="thread count for the parallel backend")
    p.add_argument(
        "--nodes", type=int, default=2, help="worker processes for the distributed backend"
    )
    p.add_argument(
        "--panel-size",
        type=_positive_int,
        default=None,
        help="RHS-panel width of the task-graph backends (default: one panel)",
    )
    p.add_argument(
        "--distribution",
        choices=distribution_choices,
        default=None,
        help="placement strategy for the task-graph backends",
    )
    p.add_argument(
        "--compress-runtime",
        choices=RUNTIME_CHOICES,
        default="off",
        help="execution path of the construction phase on factorization-cache "
        "misses (off = sequential build)",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for the right-hand sides")

    p = sub.add_parser(
        "compresscale",
        help="compression-phase scaling: task-graph construction vs the sequential build per format",
    )
    p.add_argument("--n", type=int, default=2048, help="problem size")
    p.add_argument("--kernel", default="yukawa", help="kernel name")
    p.add_argument("--leaf-size", type=int, default=128, help="leaf cluster size")
    p.add_argument("--max-rank", type=int, default=30, help="skeleton rank cap")
    p.add_argument(
        "--format",
        action="append",
        dest="formats",
        choices=format_choices,
        help="structured format (repeatable; default: every registered format)",
    )
    p.add_argument(
        "--backend",
        action="append",
        dest="backends",
        choices=tuple(b for b in RUNTIME_CHOICES if b != "off"),
        help="runtime backend (repeatable; default: deferred, parallel, distributed)",
    )
    p.add_argument("--workers", type=int, default=4, help="thread count for the parallel backend")
    p.add_argument(
        "--nodes", type=int, default=2, help="worker processes for the distributed backend"
    )
    p.add_argument(
        "--fusion",
        choices=("auto", "on", "off"),
        default="auto",
        help="record-time task fusion/batching of the construction graphs",
    )
    p.add_argument(
        "--repeats",
        type=_positive_int,
        default=3,
        help="best-of-N warmed timing repeats per cell",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for the construction")

    p = sub.add_parser(
        "trace",
        help="measured task-level trace of one phase on one runtime backend",
    )
    p.add_argument("--n", type=int, default=512, help="problem size")
    p.add_argument("--kernel", default="yukawa", help="kernel name")
    p.add_argument(
        "--format",
        choices=format_choices,
        default="hss",
        help="structured matrix format",
    )
    p.add_argument("--leaf-size", type=int, default=128, help="leaf cluster size")
    p.add_argument("--max-rank", type=int, default=30, help="skeleton rank cap")
    p.add_argument(
        "--phase",
        choices=("compress", "factorize", "solve"),
        default="factorize",
        help="pipeline phase to trace",
    )
    p.add_argument(
        "--runtime",
        choices=tuple(b for b in RUNTIME_CHOICES if b != "off"),
        default="parallel",
        help="execution backend of the traced phase",
    )
    p.add_argument("--workers", type=int, default=4, help="thread/process count")
    p.add_argument(
        "--nodes", type=int, default=2, help="worker processes for the distributed backend"
    )
    p.add_argument(
        "--distribution",
        choices=distribution_choices,
        default="row",
        help="placement strategy for the distributed backend",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for the right-hand side")
    p.add_argument(
        "--chrome-json",
        default=None,
        metavar="PATH",
        help="write the timeline as Chrome trace-event JSON to PATH",
    )

    p = sub.add_parser(
        "metrics",
        help="runtime metrics of one phase on one backend, in Prometheus text format",
    )
    p.add_argument("--n", type=int, default=512, help="problem size")
    p.add_argument("--kernel", default="yukawa", help="kernel name")
    p.add_argument(
        "--format",
        choices=format_choices,
        default="hss",
        help="structured matrix format",
    )
    p.add_argument("--leaf-size", type=int, default=128, help="leaf cluster size")
    p.add_argument("--max-rank", type=int, default=30, help="skeleton rank cap")
    p.add_argument(
        "--phase",
        choices=("compress", "factorize", "solve"),
        default="factorize",
        help="pipeline phase to meter",
    )
    p.add_argument(
        "--runtime",
        choices=tuple(b for b in RUNTIME_CHOICES if b != "off"),
        default="parallel",
        help="execution backend of the metered phase",
    )
    p.add_argument("--workers", type=int, default=4, help="thread/process count")
    p.add_argument(
        "--nodes", type=int, default=2, help="worker processes for the distributed backend"
    )
    p.add_argument(
        "--distribution",
        choices=distribution_choices,
        default="row",
        help="placement strategy for the distributed backend",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for the right-hand side")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the registry snapshot as JSON instead of Prometheus text",
    )
    p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the exposition to PATH instead of stdout",
    )

    p = sub.add_parser(
        "serve",
        help="run the always-on HTTP solver server (see README 'Serving')",
        description="Run the always-on HTTP solver server.  A request is flushed "
        "to the solver as soon as it is idle (there is no batching window to "
        "tune); requests arriving while a solve runs are batched into the next "
        "one, and --max-pending bounds how many may queue behind it.",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8080, help="bind port (0: pick a free one)")
    p.add_argument(
        "--backend",
        choices=("reference", "immediate", "sequential", "parallel", "process", "distributed"),
        default="parallel",
        help="SolverService execution backend for the batched solves",
    )
    p.add_argument("--workers", type=int, default=4, help="thread/process count")
    p.add_argument(
        "--nodes", type=int, default=1, help="worker processes for the distributed backend"
    )
    p.add_argument(
        "--distribution",
        choices=distribution_choices,
        default=None,
        help="placement strategy for the task-graph backends",
    )
    p.add_argument(
        "--panel-size",
        type=_positive_int,
        default=None,
        help="RHS-panel width of the batched solves (1: per-request solves, "
        "bit-identical to single-RHS reference solves)",
    )
    p.add_argument(
        "--max-cached",
        type=_positive_int,
        default=8,
        help="factorizations kept in the LRU cache",
    )
    p.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="factorization time-to-live (idle entries expire; default: never)",
    )
    p.add_argument(
        "--max-pending",
        type=_positive_int,
        default=256,
        help="tickets queued behind the running flush before solve/submit "
        "get 503 backpressure",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="blocking /v1/solve wait before 504 (the ticket still resolves)",
    )
    p.add_argument(
        "--ticket-ttl",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="seconds a resolved ticket stays claimable via /v1/tickets/<id>",
    )
    p.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="factorization-cache snapshot: loaded on start if present, "
        "written on shutdown (restart = cache hits, zero refactorization)",
    )
    p.add_argument(
        "--auth-file",
        default=None,
        metavar="PATH",
        help="JSON tenant config ({\"tenants\": [{name, api_key, rate, burst}]}); "
        "omitted: open anonymous mode",
    )
    p.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="PER_SEC",
        help="default sustained requests/second per tenant (anonymous included)",
    )
    p.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="N",
        help="token-bucket burst capacity (default: max(1, rate))",
    )

    p = sub.add_parser(
        "benchreport",
        help="render BENCH_runtime.json into a markdown/HTML trajectory report",
    )
    p.add_argument(
        "artifact",
        nargs="?",
        default=None,
        metavar="PATH",
        help="benchmark artifact to render (default: the committed one)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline artifact for regression deltas (default: the committed "
        "artifact when rendering another one)",
    )
    p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the markdown to PATH instead of stdout",
    )
    p.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="additionally write a self-contained HTML report to PATH",
    )

    return parser


def _run_solve(args: argparse.Namespace) -> str:
    """Run one compress/factorize/solve cycle and format a small report."""
    import numpy as np

    from repro.api import StructuredSolver

    distribution = args.distribution if args.runtime == "distributed" else None
    compress_distribution = (
        args.distribution if args.compress_runtime == "distributed" else None
    )
    # --fusion applies wherever a graph is recorded; runtimes that execute
    # bodies at insertion time (off/immediate) have no graph to coarsen, so
    # the flag falls back to auto for them instead of being rejected.
    fusion = _FUSION_MODES[args.fusion]
    exec_fusion = fusion if args.runtime not in ("off", "immediate") else None
    compress_fusion = (
        fusion if args.compress_runtime not in ("off", "immediate") else None
    )
    t0 = time.perf_counter()
    solver = StructuredSolver.from_kernel(
        args.kernel, n=args.n, format=args.format,
        leaf_size=args.leaf_size, max_rank=args.max_rank,
        compress_runtime=args.compress_runtime,
        compress_nodes=args.nodes,
        compress_workers=args.workers,
        compress_distribution=compress_distribution,
        compress_fusion=compress_fusion,
    )
    t_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    solver.factorize(
        use_runtime=args.runtime,
        nodes=args.nodes,
        n_workers=args.workers,
        distribution=distribution,
        fusion=exec_fusion,
        data_plane=args.data_plane,
    )
    t_factor = time.perf_counter() - t0

    rng = np.random.default_rng(args.seed)
    b = rng.standard_normal(args.n if args.nrhs == 1 else (args.n, args.nrhs))
    t0 = time.perf_counter()
    x = solver.solve(
        b,
        use_runtime=args.runtime,
        refine=args.refine,
        nodes=args.nodes,
        n_workers=args.workers,
        distribution=distribution,
        fusion=exec_fusion,
        data_plane=args.data_plane,
    )
    t_solve = time.perf_counter() - t0
    residual = np.linalg.norm(solver.matvec(x) - b) / np.linalg.norm(b)
    exact_residual = None
    if args.refine:
        # Refinement corrects toward the exact kernel operator, so the
        # meaningful residual is against it (the compressed-operator residual
        # grows back to the construction error by design).
        from repro.analysis.errors import relative_residual

        exact_residual = relative_residual(solver.kernel_matrix, x, b)

    runtime_detail = ""
    if args.runtime in ("parallel", "process"):
        runtime_detail = f" workers={args.workers}"
    elif args.runtime == "distributed":
        runtime_detail = f" nodes={args.nodes} distribution={args.distribution}"
        if args.data_plane:
            runtime_detail += f" data_plane={args.data_plane}"
    if args.fusion != "auto":
        runtime_detail += f" fusion={args.fusion}"
    if args.refine:
        runtime_detail += " refine=1"
    compress_detail = ""
    if args.compress_runtime != "off":
        compress_detail = (
            f"  (compress-runtime={args.compress_runtime}, "
            f"{solver.compress_runtime.num_tasks} tasks)"
        )
    lines = [
        f"StructuredSolver solve: format={args.format} kernel={args.kernel} "
        f"n={args.n} nrhs={args.nrhs} "
        f"leaf_size={args.leaf_size} max_rank={args.max_rank}",
        f"runtime={args.runtime}" + runtime_detail,
        f"construct {t_build:8.3f} s" + compress_detail,
        f"factorize {t_factor:8.3f} s",
        f"solve     {t_solve:8.3f} s  ({args.nrhs / max(t_solve, 1e-12):.1f} solves/s)",
        f"construction error {solver.construction_error():.3e}",
        f"solve error        {solver.solve_error(nrhs=args.nrhs):.3e}",
        f"residual           {residual:.3e}",
    ]
    if exact_residual is not None:
        lines.append(f"exact residual     {exact_residual:.3e}")
    return "\n".join(lines)


def _run_trace(args: argparse.Namespace) -> str:
    """Trace one pipeline phase on one runtime backend and format the report."""
    import numpy as np

    from repro.api import StructuredSolver

    distribution = args.distribution if args.runtime == "distributed" else None
    compress = args.phase == "compress"
    solver = StructuredSolver.from_kernel(
        args.kernel,
        n=args.n,
        format=args.format,
        leaf_size=args.leaf_size,
        max_rank=args.max_rank,
        compress_runtime=args.runtime if compress else "off",
        compress_nodes=args.nodes,
        compress_workers=args.workers,
        compress_distribution=distribution if compress else None,
        compress_trace=compress,
    )
    if args.phase == "factorize":
        solver.factorize(
            use_runtime=args.runtime,
            nodes=args.nodes,
            n_workers=args.workers,
            distribution=distribution,
            trace=True,
        )
    elif args.phase == "solve":
        # The factorization is the sequential cached reference; only the
        # solve runs (traced) through the requested backend.
        solver.factorize()
        b = np.random.default_rng(args.seed).standard_normal(args.n)
        solver.solve(
            b,
            use_runtime=args.runtime,
            nodes=args.nodes,
            n_workers=args.workers,
            distribution=distribution,
            trace=True,
        )
    trace = solver.last_traces().get(args.phase)
    if trace is None:
        raise SystemExit(
            f"phase {args.phase!r} produced no trace on runtime {args.runtime!r}"
        )
    lines = [
        f"Measured trace: phase={args.phase} runtime={args.runtime} "
        f"format={args.format} kernel={args.kernel} n={args.n}",
        repr(trace),
        "",
        trace.format_breakdown(),
        "",
        trace.format_aggregates(),
    ]
    if args.chrome_json:
        lines.append("")
        lines.append(f"chrome trace written to {trace.to_chrome_json(args.chrome_json)}")
    return "\n".join(lines)


def _run_metrics(args: argparse.Namespace) -> str:
    """Meter one pipeline phase on one runtime backend; emit the registry."""
    import json

    import numpy as np

    from repro.api import StructuredSolver
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    distribution = args.distribution if args.runtime == "distributed" else None
    compress = args.phase == "compress"
    solver = StructuredSolver.from_kernel(
        args.kernel,
        n=args.n,
        format=args.format,
        leaf_size=args.leaf_size,
        max_rank=args.max_rank,
        compress_runtime=args.runtime if compress else "off",
        compress_nodes=args.nodes,
        compress_workers=args.workers,
        compress_distribution=distribution if compress else None,
        compress_metrics=registry if compress else None,
    )
    if args.phase == "factorize":
        solver.factorize(
            use_runtime=args.runtime,
            nodes=args.nodes,
            n_workers=args.workers,
            distribution=distribution,
            metrics=registry,
        )
    elif args.phase == "solve":
        # The factorization is the sequential cached reference; only the
        # solve runs (metered) through the requested backend.
        solver.factorize()
        b = np.random.default_rng(args.seed).standard_normal(args.n)
        solver.solve(
            b,
            use_runtime=args.runtime,
            nodes=args.nodes,
            n_workers=args.workers,
            distribution=distribution,
            metrics=registry,
        )
    if args.json:
        out = json.dumps(registry.as_dict(), indent=2, sort_keys=True)
    else:
        out = registry.render_prometheus().rstrip("\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
        return (
            f"metrics: phase={args.phase} runtime={args.runtime} "
            f"format={args.format} n={args.n} -> {args.output} "
            f"({len(registry.families())} families)"
        )
    return out


def _run_serve(args: argparse.Namespace) -> str:
    """Boot the HTTP solver server and block until interrupted."""
    from repro.service import Authenticator, SolverHTTPServer, SolverService

    service = SolverService(
        backend=args.backend,
        n_workers=args.workers,
        nodes=args.nodes,
        distribution=args.distribution,
        panel_size=args.panel_size,
        max_cached=args.max_cached,
        ttl_seconds=args.ttl,
    )
    if args.auth_file:
        auth = Authenticator.from_file(
            args.auth_file, default_rate=args.rate_limit, default_burst=args.burst
        )
    else:
        auth = Authenticator(default_rate=args.rate_limit, default_burst=args.burst)
    server = SolverHTTPServer(
        service,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        ticket_ttl=args.ticket_ttl,
        auth=auth,
        cache_path=args.cache_file,
    )
    host, port = server.start_in_thread()
    mode = "open" if auth.open else f"{len(auth.tenants)} tenant(s)"
    print(
        f"repro-solver listening on http://{host}:{port} "
        f"(backend={args.backend}, auth={mode})",
        flush=True,
    )
    try:
        server.join()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
        server.shutdown()
        server.join(10)
    return f"repro-solver stopped ({service.stats.solves} solves served)"


def _run_benchreport(args: argparse.Namespace) -> str:
    """Render the benchmark artifact into markdown (and optionally HTML)."""
    from pathlib import Path

    from repro.obs import benchreport

    artifact = Path(args.artifact) if args.artifact else benchreport._default_artifact()
    current = benchreport.load_artifact(artifact)
    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is None and artifact.resolve() != benchreport._default_artifact():
        baseline_path = benchreport._default_artifact()
    baseline = (
        benchreport.load_artifact(baseline_path)
        if baseline_path is not None and baseline_path.exists()
        else None
    )
    markdown = benchreport.render_markdown(current, baseline)
    if args.html:
        Path(args.html).write_text(
            benchreport.render_html(current, baseline), encoding="utf-8"
        )
    if args.output:
        Path(args.output).write_text(markdown, encoding="utf-8")
        return f"benchreport: {artifact} -> {args.output}"
    return markdown.rstrip("\n")


def main(argv: Optional[Sequence[str]] = None) -> str:
    """Run one experiment and return (and print) its formatted table."""
    args = build_parser().parse_args(argv)

    if args.command == "table1":
        sizes = (4096, 8192, 16384, 32768) if args.full else (2048, 4096, 8192)
        out = format_table1(run_table1(sizes=sizes))
    elif args.command == "table2":
        kernels = tuple(args.kernels) if args.kernels else ("laplace2d", "yukawa", "matern")
        out = format_table2(run_table2(n=args.n, kernels=kernels))
    elif args.command == "fig9":
        kernels = tuple(args.kernels) if args.kernels else ("laplace2d", "yukawa", "matern")
        out = format_fig9(
            run_fig9(
                kernels=kernels,
                max_nodes=args.max_nodes,
                lorapo_max_nodes=512 if args.full else min(args.max_nodes, 128),
            )
        )
    elif args.command == "fig10":
        out = format_fig10(
            run_fig10(max_nodes=args.max_nodes, lorapo_max_nodes=512 if args.full else 128)
        )
    elif args.command == "fig11":
        sizes: List[int] = [8192, 16384, 32768, 65536, 131072]
        if args.full:
            sizes.append(262144)
        out = format_fig11(run_fig11(nodes=args.nodes, sizes=sizes))
    elif args.command == "fig12":
        out = format_fig12(run_fig12(n=args.n, nodes=args.nodes))
    elif args.command == "solve":
        out = _run_solve(args)
    elif args.command == "speedup":
        out = format_parallel_speedup(
            run_parallel_speedup(
                n=args.n,
                kernel=args.kernel,
                leaf_size=args.leaf_size,
                max_rank=args.max_rank,
                n_workers=args.workers,
                backend=args.backend,
                fusion=_FUSION_MODES[args.fusion],
                repeats=args.repeats,
            )
        )
    elif args.command == "weakscale":
        node_counts = []
        nodes = 1
        while nodes <= args.max_nodes:
            node_counts.append(nodes)
            nodes *= 2
        out = format_distributed_weak_scaling(
            run_distributed_weak_scaling(
                base_n=args.base_n,
                node_counts=node_counts,
                kernel=args.kernel,
                leaf_size=args.leaf_size,
                max_rank=args.max_rank,
                distributions=tuple(args.distributions) if args.distributions else ("row", "block"),
                data_planes=tuple(args.data_planes) if args.data_planes else ("shm", "pickle"),
            )
        )
    elif args.command == "servebench":
        out = format_solve_throughput(
            run_solve_throughput(
                n=args.n,
                kernel=args.kernel,
                leaf_size=args.leaf_size,
                max_rank=args.max_rank,
                requests=args.requests,
                batch_sizes=tuple(args.batch_sizes) if args.batch_sizes else (1, 4, 16),
                backends=tuple(args.backends)
                if args.backends
                else ("reference", "sequential", "parallel"),
                n_workers=args.workers,
                nodes=args.nodes,
                distribution=args.distribution,
                panel_size=args.panel_size,
                format_name=args.format,
                compress_runtime=args.compress_runtime,
                seed=args.seed,
            )
        )
    elif args.command == "compresscale":
        out = format_compress_scaling(
            run_compress_scaling(
                n=args.n,
                kernel=args.kernel,
                leaf_size=args.leaf_size,
                max_rank=args.max_rank,
                formats=tuple(args.formats) if args.formats else None,
                backends=tuple(args.backends)
                if args.backends
                else ("deferred", "parallel", "distributed"),
                n_workers=args.workers,
                nodes=args.nodes,
                fusion=_FUSION_MODES[args.fusion],
                repeats=args.repeats,
                seed=args.seed,
            )
        )
    elif args.command == "trace":
        out = _run_trace(args)
    elif args.command == "metrics":
        out = _run_metrics(args)
    elif args.command == "serve":
        out = _run_serve(args)
    elif args.command == "benchreport":
        out = _run_benchreport(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")

    print(out)
    return out

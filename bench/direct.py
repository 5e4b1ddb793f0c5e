"""The three ``direct_*`` workloads: compress -> factorize -> solve in-process.

One *iteration* builds a fresh :class:`~repro.api.StructuredSolver`,
factorizes it and solves a 16-column block (``direct_formats`` does
that for two formats in turn and sums the phases).  A *round* is one
iteration followed by single-vector *warm solves* against the factorization
it just built -- the factorize-once / solve-many use the paper and the
serving layer are built around -- which gives these workloads the same
latency/throughput metrics the ``serve_*`` workloads report for HTTP
requests.  How rounds turn into reported numbers: README, "Rounds".
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from common import (
    ALPHA, KERNEL, NRHS, RESIDUAL_LIMIT, RESIDUAL_ROWS, Round, Tally,
    best_phases, best_round, digits, median, parallelism, vm_hwm_mb,
)
from spans import SpanRecorder

#: Backend of all three phases, per workload.
BACKENDS = {
    "direct_seq": "off",
    "direct_graph": "parallel",
    "direct_formats": "parallel",
}


#: Untimed single-vector solves at the start of each round.
WARM_SKIP = 2


def phase_kwargs(backend: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(from_kernel kwargs, factorize/solve kwargs)`` for one backend."""
    if backend == "off":
        return {}, {}
    p = parallelism()
    return (
        {"compress_runtime": backend, "compress_workers": p},
        {"use_runtime": backend, "n_workers": p},
    )


def sampled_residual(kernel_matrix: Any, x: np.ndarray, b: np.ndarray, seed: int) -> float:
    """max over columns of ``||A x - b|| / ||b||`` on sampled rows of the exact operator."""
    n = kernel_matrix.n
    x = x.reshape(n, -1)
    b = b.reshape(n, -1)
    rows = np.arange(n)
    if n > RESIDUAL_ROWS:
        rows = np.sort(np.random.default_rng(seed).choice(n, size=RESIDUAL_ROWS, replace=False))
    resid = kernel_matrix.block(rows, slice(None)) @ x - b[rows]
    return float(np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(b[rows], axis=0)))


class Problem:
    """One (format, n) member of a workload with its seeded inputs."""

    def __init__(self, fmt: str, n: int, rng: np.random.Generator, warm: int) -> None:
        self.fmt = fmt
        self.n = n
        self.rhs = rng.standard_normal((n, NRHS))
        self.warm_rhs = rng.standard_normal((n, warm)) if warm else None
        self.compress_seed = int(rng.integers(1, 2**31 - 1))


def build_problems(workload: str, size: Dict[str, Any], seed: int) -> List[Problem]:
    rng = np.random.default_rng(seed)
    members = size.get("formats") or [["hss", size["n"]]]
    # Only the first member serves the warm solves.
    warm = size["rounds"] * size["warm_per_round"]
    return [Problem(fmt, n, rng, warm if i == 0 else 0) for i, (fmt, n) in enumerate(members)]


def one_pass(problem: Problem, backend: str, size: Dict[str, Any], rec: SpanRecorder):
    """compress -> factorize -> solve once; returns ``(solver, X, phase seconds)``."""
    from repro.api import StructuredSolver

    build_kw, run_kw = phase_kwargs(backend)
    t0 = time.perf_counter()
    with rec.span("op.compress", "op"):
        solver = StructuredSolver.from_kernel(
            KERNEL, n=problem.n, format=problem.fmt, leaf_size=size["leaf_size"],
            max_rank=size["max_rank"], seed=problem.compress_seed, alpha=ALPHA,
            **build_kw,
        )
    t1 = time.perf_counter()
    with rec.span("op.factorize", "op"):
        solver.factorize(**run_kw)
    t2 = time.perf_counter()
    with rec.span("op.solve", "op"):
        x = solver.solve(problem.rhs, **run_kw)
    t3 = time.perf_counter()
    return solver, x, (t3 - t0, t1 - t0, t2 - t1)


def iteration(problems: List[Problem], backend: str, size: Dict[str, Any], rec: SpanRecorder):
    """One operation: every member once.  Returns solvers, solutions, phase sums."""
    solvers, xs, phases = [], [], np.zeros(3)
    with rec.span("op.iteration", "op", new_op=True):
        for problem in problems:
            solver, x, times = one_pass(problem, backend, size, rec)
            solvers.append(solver)
            xs.append(x)
            phases += times
    return solvers, xs, phases


def run(workload: str, seed: int, size: Dict[str, Any], *, t_spawn: float,
        setup_only: bool) -> Dict[str, Any]:
    """The untraced pass: every end-to-end metric of one ``direct_*`` workload."""
    backend = BACKENDS[workload]
    rec = SpanRecorder()  # stays disabled: the untraced pass records nothing
    tally = Tally()
    problems = build_problems(workload, size, seed)
    lead = problems[0]
    _, run_kw = phase_kwargs(backend)

    # Set-up ends with one untimed warm-up iteration (lazy imports, page
    # faults, allocator growth).
    _, first_xs, _ = iteration(problems, backend, size, rec)
    setup_s = time.time() - t_spawn
    if setup_only:
        return {"setup_s": setup_s}

    # A round: one iteration, then warm single-vector solves against the
    # factorization that iteration just built.
    per_round = size["warm_per_round"]
    rounds: List[Round] = []
    warm_x = np.full_like(lead.warm_rhs, np.nan)
    solvers = []
    for it in range(size["rounds"]):
        try:
            solvers, xs, phases = iteration(problems, backend, size, rec)
        except Exception as exc:  # an operation that raised is a failed operation
            tally.check(False, f"iteration {it}: {exc!r}")
            continue
        same = all(np.array_equal(x, x0) for x, x0 in zip(xs, first_xs))
        tally.check(same, f"iteration {it}: solution differs from the first iteration")
        latencies = []
        try:
            # The first solves after a factorization find its factors out of
            # cache (9.4 ms against 7.0 ms); "warm" means past that.
            for _ in range(WARM_SKIP):
                solvers[0].solve(lead.warm_rhs[:, it * per_round], **run_kw)
        except Exception as exc:
            tally.check(False, f"round {it} untimed solve: {exc!r}")
        t_loop = time.perf_counter()
        for j in range(it * per_round, (it + 1) * per_round):
            try:
                t0 = time.perf_counter()
                warm_x[:, j] = solvers[0].solve(lead.warm_rhs[:, j], **run_kw)
                latencies.append(time.perf_counter() - t0)
            except Exception as exc:
                tally.check(False, f"warm solve {j}: {exc!r}")
        rounds.append(Round(phases, latencies, time.perf_counter() - t_loop))
    if not rounds:
        raise RuntimeError(f"no iteration of {workload} completed: {tally.failures}")
    peak_rss = vm_hwm_mb()  # before the checks below allocate their own blocks

    # -- correctness, outside every timed region ---------------------------
    ref = solvers[0].factor.solve(lead.warm_rhs)
    for j in range(warm_x.shape[1]):
        if not np.isnan(warm_x[0, j]):
            tally.check(
                np.allclose(warm_x[:, j], ref[:, j], rtol=1e-9, atol=1e-12),
                f"warm solve {j}: differs from the blocked reference solve",
            )
    if backend != "off":
        # The repo's bit-identity invariant: every backend reproduces the
        # sequential reference exactly.
        _, seq_xs, _ = iteration(problems, "off", size, rec)
        for problem, x, x_seq in zip(problems, first_xs, seq_xs):
            tally.check(
                np.array_equal(x, x_seq),
                f"{problem.fmt} n={problem.n}: {backend} solution is not "
                "bit-identical to the sequential reference",
            )
    residual = 0.0
    for problem, slv, x in zip(problems, solvers, first_xs):
        r = sampled_residual(slv.kernel_matrix, x, problem.rhs, seed)
        tally.check(r <= RESIDUAL_LIMIT, f"{problem.fmt} n={problem.n}: residual {r:.3e}")
        residual = max(residual, r)

    total, compress, factorize = best_phases(rounds)
    warm = best_round(rounds)
    metrics = {
        "time_to_solution_s": total,
        "compress_s": compress,
        "factorize_s": factorize,
        "residual_digits": digits(residual),
        "peak_rss_mb": peak_rss,
        "latency_p50_ms": warm["latency_p50_ms"],
        "throughput_rps": warm["throughput_rps"],
    }
    return {
        "setup_s": setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": metrics,
        "info": {
            "rel_residual": residual,
            "rounds": len(rounds),
            "latency_samples": warm["samples"],
            "latency_p95_ms": warm["latency_p95_ms"],
            "latency_samples_beyond_p95": warm["beyond_p95"],
            "median_time_to_solution_s": median([r.phases[0] for r in rounds]),
            "backend": backend,
            "members": [[p.fmt, p.n] for p in problems],
        },
    }


def run_traced(workload: str, seed: int, size: Dict[str, Any], rec: SpanRecorder,
               trace_path: str) -> Dict[str, Any]:
    """The traced pass: alternate untraced and traced operations, keep the spans.

    Returns the in-situ per-layer numbers of this workload; the fixed-input
    probes are run separately (:mod:`probes`).
    """
    from spans import install

    backend = BACKENDS[workload]
    tally = Tally()
    problems = build_problems(workload, size, seed)
    install(rec)
    rec.enabled = False
    _, first_xs, _ = iteration(problems, backend, size, rec)  # warm-up

    pairs = max(2, size["rounds"] // 4)
    plain, traced = [], []
    solvers = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for it in range(2 * pairs):
        rec.enabled = bool(it % 2)
        t0 = time.perf_counter()
        solvers, xs, _ = iteration(problems, backend, size, rec)
        (traced if rec.enabled else plain).append(time.perf_counter() - t0)
        same = all(np.array_equal(x, x0) for x, x0 in zip(xs, first_xs))
        tally.check(same, f"traced-pass iteration {it}: solution differs")
    ops = pairs

    lead, solver = problems[0], solvers[0]
    _, run_kw = phase_kwargs(backend)
    warm = min(lead.warm_rhs.shape[1], 40)
    rec.enabled = True
    for j in range(warm):
        with rec.span("op.warm_solve", "op", new_op=True):
            solver.solve(lead.warm_rhs[:, j], **run_kw)
    rec.enabled = False
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    closure = rec.operation_closure()
    gap = max((abs(total - dur) / dur for dur, total in closure if dur > 0), default=0.0)
    tally.check(gap <= 0.05, f"trace self times miss the operation time by {gap:.1%}")
    rec.write_chrome_json(trace_path)

    # Per-layer self time of one iteration, in ms: spans of the iterations
    # only (warm-solve operations are excluded by their operation ids).
    iteration_ops = {s.op for s in rec.spans if s.name == "op.iteration"}
    selfs = rec.self_times()
    layer_ms: Dict[str, float] = {}
    for span in rec.spans:
        if span.op in iteration_ops or (span.op is None and span.layer != "op"):
            layer_ms[span.layer] = layer_ms.get(span.layer, 0.0) + selfs[span.sid] * 1e3 / ops
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "layer_self_ms": layer_ms,
        "span_overhead_fraction": min(traced) / min(plain) - 1.0,
        "trace_closure_gap": gap,
        "cpu_share": cpu_share,
        "spans": len(rec.spans),
    }

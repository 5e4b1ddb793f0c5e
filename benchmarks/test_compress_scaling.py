"""Benchmark: compression-phase speedup and comm volume of the task graphs.

The construction phase was the last serial phase of the pipeline; this
benchmark runs it through the DTD runtime for every registered format
(sequential reference vs deferred/parallel/distributed task graphs, plus the
fused parallel and forked process configurations) and prints the wall
times, speedups, task counts and distributed communication volume.  Both
sides of every speedup use best-of-N warmed timings.

Absolute speedups depend on the machine (python-level task bodies at bench
sizes mostly measure runtime overhead), so only the correctness contracts
are asserted: bit-identity with the sequential ``formats.build_*`` output on
every backend, a distributed comm ledger that matches the static transfer
plan exactly, and a task census that fusion only ever shrinks.  Compression
wall time is gated by the repository benchmark (``bench/``'s ``compress_s``
on the ``direct_graph`` and ``direct_formats`` workloads), not here.
"""

from bench_utils import full_scale, print_table

from repro.experiments.compress_scaling import (
    format_compress_scaling,
    run_compress_scaling,
)

N = 4096 if full_scale() else 1024
BACKENDS = ("deferred", "parallel", "distributed")
#: Swept a second time with fusion on.
FUSED_BACKENDS = ("parallel", "process")
REPEATS = 2


def _run():
    result = run_compress_scaling(
        n=N,
        leaf_size=256,
        max_rank=30,
        backends=BACKENDS,
        n_workers=4,
        nodes=2,
        repeats=REPEATS,
    )
    # The fused sweep runs single-worker: on this container the fusion win is
    # the batched/stacked kernel path beating the per-block reference, and
    # extra pool threads only add contention on top of it.
    fused = run_compress_scaling(
        n=N,
        leaf_size=256,
        max_rank=30,
        backends=FUSED_BACKENDS,
        n_workers=1,
        nodes=2,
        fusion=True,
        repeats=REPEATS,
    )
    result["rows"] = list(result["rows"]) + list(fused["rows"])
    return result


def test_compress_scaling(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_table(
        f"Task-graph compression scaling (N={N}, best of {REPEATS})",
        format_compress_scaling(result),
    )

    rows = result["rows"]
    assert {r.backend for r in rows} == set(BACKENDS) | set(FUSED_BACKENDS)
    formats = {r.format for r in rows}
    assert {"hss", "blr2", "hodlr"} <= formats
    for row in rows:
        assert row.wall_seconds > 0 and row.sequential_seconds > 0
        assert row.tasks > 0
        assert row.repeats == REPEATS
        # rows carry the concurrency they actually used
        if row.backend in ("parallel", "process"):
            assert row.n_workers == (1 if row.fusion else 4) and row.nodes == 1
        elif row.backend == "distributed":
            assert row.n_workers == 1 and row.nodes == 2
        else:
            assert row.n_workers == 1 and row.nodes == 1
        # the correctness contract: graph-built compression is bit-identical
        assert row.bit_identical, (row.format, row.backend)
        # distributed comm must match the static transfer plan exactly
        assert row.comm_matches_plan, (row.format, row.backend)
        if row.backend != "distributed":
            assert row.comm_messages == 0
    # fusion only ever shrinks the task census
    tasks = {(r.format, r.backend, r.fusion): r.tasks for r in rows}
    for fmt in ("hss", "blr2", "hodlr"):
        assert tasks[(fmt, "parallel", True)] <= tasks[(fmt, "parallel", False)]

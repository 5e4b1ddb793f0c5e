"""Benchmark regenerating Fig. 10: per-worker breakdown of the Yukawa weak scaling.

Paper reference (Fig. 10a/b/c):

* LORAPO -- runtime overhead far exceeds compute-task time and grows with the
  node count (its poor weak scaling is an overhead problem);
* STRUMPACK -- compute time per worker is roughly flat while MPI time grows
  with the node count;
* HATRIX-DTD -- compute-task time per worker is almost flat (perfect weak
  scaling of the work) while the DTD runtime overhead grows with the total
  task count.
"""

from bench_utils import full_scale, print_table

from repro.experiments.fig10_breakdown import (
    format_fig10,
    format_fig10_measured,
    run_fig10,
    run_fig10_measured,
)


def _run():
    return run_fig10(max_nodes=128, lorapo_max_nodes=512 if full_scale() else 128)


def test_fig10_performance_breakdown(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_table("Fig. 10 (simulated): per-worker compute vs overhead/MPI breakdown", format_fig10(rows))

    hatrix = sorted((r for r in rows if r.code == "HATRIX-DTD"), key=lambda r: r.nodes)
    strumpack = sorted((r for r in rows if r.code == "STRUMPACK"), key=lambda r: r.nodes)
    lorapo = sorted((r for r in rows if r.code == "LORAPO"), key=lambda r: r.nodes)

    # Fig. 10c: HATRIX-DTD compute per worker is nearly flat, overhead grows.
    assert hatrix[-1].compute_time < hatrix[0].compute_time * 4
    assert hatrix[-1].overhead_time > hatrix[0].overhead_time * 4

    # Fig. 10b: STRUMPACK MPI time grows with the node count.
    assert strumpack[-1].overhead_time > strumpack[0].overhead_time

    # Fig. 10a: LORAPO overhead exceeds its compute-task time at scale.
    assert lorapo[-1].overhead_time > lorapo[-1].compute_time


def test_fig10_measured_breakdown(benchmark):
    """Measured per-worker breakdowns from real traced executions.

    Every backend's point appears twice -- the measured trace-derived
    breakdown and the simulator's prediction for the same recorded graph --
    so the printed pairs cross-validate the model against reality.
    """
    n = 1024 if full_scale() else 512
    rows = benchmark.pedantic(
        lambda: run_fig10_measured(n=n, leaf_size=128, max_rank=30, n_workers=4, nodes=2),
        rounds=1,
        iterations=1,
    )
    print_table(
        f"Fig. 10 (measured vs simulated, n={n}): per-worker breakdowns "
        "of real traced executions",
        format_fig10_measured(rows),
    )

    backends = {"deferred", "parallel", "process", "distributed"}
    assert {r.backend for r in rows} == backends
    # every backend contributes one measured and one simulated row
    assert {(r.backend, r.source) for r in rows} == {
        (b, s) for b in backends for s in ("measured", "simulated")
    }
    for r in rows:
        assert r.num_tasks > 0 and r.n_workers >= 1
        assert r.makespan > 0 and r.compute_time > 0
        if r.source == "measured":
            # the four components reconcile with the wall time: idle is the
            # clamped per-worker remainder, so the sum can only exceed the
            # makespan by measurement jitter
            total = r.compute_time + r.overhead_time + r.comm_time + r.idle_time
            assert total >= 0.9 * r.makespan
            assert total <= 1.5 * r.makespan + 1e-3
        if r.backend != "distributed" and r.source == "measured":
            assert r.comm_time == 0.0 or r.backend == "process"

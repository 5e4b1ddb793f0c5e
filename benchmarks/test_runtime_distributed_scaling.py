"""Benchmark: distributed weak scaling, measured vs simulated on the same graph.

The headline claim of the paper is *distributed-memory* ULV factorization
driven by a task runtime.  This benchmark runs the weak-scaling sweep of
:mod:`repro.experiments.distributed_weak_scaling`: for each node count the
same recorded task graph executes on the real multi-process backend (forked
workers, owner-computes placement, explicit transfers) and is replayed
through the discrete-event machine simulator, under both the row-cyclic and
the block-cyclic distribution, and under both distributed data planes
(zero-copy ``"shm"`` vs legacy ``"pickle"``).

Wall times depend on the host, so they are only printed; the assertions
cover the accounting, which is deterministic: measured *logical*
communication volume must equal the static model of the graph on every
plane, the shm plane's *physical* (wire) bytes must stay at least
:data:`MIN_COMM_SAVINGS` times below the pickle plane's, and at the default
size they may not grow past :data:`SHM_BYTES_SLACK` times the pinned
:data:`SHM_WIRE_BYTES`.
"""

import os

import pytest

from bench_utils import full_scale, print_table

from repro.experiments.distributed_weak_scaling import (
    comm_plane_savings,
    format_distributed_weak_scaling,
    run_distributed_weak_scaling,
)

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)

BASE_N = 1024 if full_scale() else 256
NODE_COUNTS = (1, 2, 4)
DATA_PLANES = ("shm", "pickle")

#: Wire-byte advantage the zero-copy plane must keep over the pickle plane.
MIN_COMM_SAVINGS = 10.0

#: shm-plane wire bytes per multi-node (distribution, nodes) at BASE_N = 256:
#: descriptors of a fixed transfer plan, so every run reproduces them.
SHM_WIRE_BYTES = {("row", 2): 1104, ("row", 4): 3472, ("block", 2): 1104, ("block", 4): 2368}
#: Growth allowed over :data:`SHM_WIRE_BYTES` before the ceiling fails.
SHM_BYTES_SLACK = 1.1


def _run():
    return run_distributed_weak_scaling(
        base_n=BASE_N,
        node_counts=NODE_COUNTS,
        leaf_size=64,
        max_rank=24,
        distributions=("row", "block"),
        data_planes=DATA_PLANES,
    )


def test_distributed_weak_scaling(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_table(
        f"Distributed weak scaling, measured vs simulated (base N={BASE_N})",
        format_distributed_weak_scaling(rows),
    )

    assert len(rows) == 2 * len(NODE_COUNTS) * len(DATA_PLANES)
    for row in rows:
        assert row.measured_seconds > 0
        assert row.simulated_makespan > 0
        # the measured *logical* transfers must match the graph's static
        # communication model on every data plane
        assert row.comm_bytes_match
        if row.nodes == 1:
            assert row.measured_messages == 0
    # more processes must not reduce the communication volume to zero
    multi = [r for r in rows if r.nodes > 1]
    assert any(r.measured_bytes > 0 for r in multi)
    # the zero-copy plane keeps array bytes off the wire: shm segments carry
    # them instead, so its wire bytes are descriptors only
    for row in multi:
        if row.data_plane == "shm":
            assert row.mapped_bytes > 0
            assert row.physical_bytes < row.measured_bytes
            if not full_scale():
                ceiling = SHM_BYTES_SLACK * SHM_WIRE_BYTES[(row.distribution, row.nodes)]
                assert row.physical_bytes <= ceiling, (
                    f"({row.distribution}, {row.nodes} nodes): shm wire bytes "
                    f"{row.physical_bytes} above {ceiling:.0f}"
                )
    savings = comm_plane_savings(rows)
    assert set(savings) == {
        (r.distribution, r.nodes) for r in multi
    }
    for key, factor in savings.items():
        assert factor >= MIN_COMM_SAVINGS, (
            f"{key}: zero-copy wire savings {factor:.1f}x below "
            f"{MIN_COMM_SAVINGS}x"
        )
"""Tests for the compression-scaling and distributed weak-scaling drivers.

Covers the paired timing helper, the accounting of both sweeps at small
sizes, and the deterministic checks of the distributed sweep: logical
transfer bytes equal the static plan on every data plane, the shm plane's
wire bytes stay within :data:`SHM_BYTES_SLACK` of pinned descriptor counts,
and the shm plane saves at least :data:`MIN_COMM_SAVINGS` times over the
pickle plane.  Wall times are never asserted.
"""

import os
import types

import pytest

from repro.cli import build_parser
from repro.experiments import (
    CompressScalingRow,
    DistributedWeakScalingRow,
    comm_plane_savings,
    format_compress_scaling,
    format_distributed_weak_scaling,
    run_compress_scaling,
    run_distributed_weak_scaling,
)
from repro.experiments import timing
from repro.experiments.timing import best_of_pair

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)

#: Wire-byte advantage the zero-copy plane must keep over the pickle plane.
MIN_COMM_SAVINGS = 10.0
#: shm-plane wire bytes at base n = 256, leaf 64, rank 24, two nodes.
SHM_WIRE_BYTES = {"row": 1104, "block": 1104}
SHM_BYTES_SLACK = 1.1


def _weak_row(distribution="row", nodes=2, plane="shm", physical=100, measured=5000, modeled=5000.0):
    return DistributedWeakScalingRow(
        distribution=distribution,
        nodes=nodes,
        n=256 * nodes,
        num_tasks=10,
        measured_seconds=0.5,
        simulated_makespan=1e-3,
        measured_messages=4,
        measured_bytes=measured,
        modeled_bytes=modeled,
        data_plane=plane,
        physical_bytes=physical,
        mapped_bytes=measured if plane == "shm" else 0,
    )


class TestBestOfPair:
    @staticmethod
    def _fake_clock(monkeypatch, stamps):
        ticks = iter(stamps)
        monkeypatch.setattr(
            timing, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks))
        )

    def test_returns_best_times_and_last_results(self, monkeypatch):
        # run 1: baseline 3 s, candidate 2 s; run 2: baseline 1 s, candidate 4 s
        self._fake_clock(monkeypatch, [0, 3, 10, 12, 20, 21, 30, 34])
        base_calls, cand_calls = iter(["b1", "b2"]), iter(["c1", "c2"])
        result = best_of_pair(lambda: next(base_calls), lambda: next(cand_calls), repeats=2)
        assert result == (1, "b2", 2, "c2")

    def test_interleaves_baseline_and_candidate(self):
        calls = []
        best_of_pair(lambda: calls.append("base"), lambda: calls.append("cand"), repeats=3)
        assert calls == ["base", "cand"] * 3

    def test_single_repeat_times_each_side_once(self):
        calls = []
        t_base, _, t_cand, _ = best_of_pair(
            lambda: calls.append("base"), lambda: calls.append("cand"), repeats=1
        )
        assert calls == ["base", "cand"]
        assert t_base >= 0 and t_cand >= 0

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_rejects_nonpositive_repeats(self, repeats):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            best_of_pair(lambda: None, lambda: None, repeats=repeats)


class TestCommPlaneSavings:
    def test_ratio_per_configuration(self):
        rows = [
            _weak_row("row", 2, "shm", physical=100),
            _weak_row("row", 2, "pickle", physical=3000),
            _weak_row("block", 4, "shm", physical=200),
            _weak_row("block", 4, "pickle", physical=1000),
        ]
        assert comm_plane_savings(rows) == {("row", 2): 30.0, ("block", 4): 5.0}

    def test_single_node_rows_skipped(self):
        rows = [_weak_row(nodes=1, plane="shm", physical=0), _weak_row(nodes=1, plane="pickle", physical=0)]
        assert comm_plane_savings(rows) == {}

    def test_missing_pickle_counterpart_skipped(self):
        rows = [_weak_row("row", 2, "shm"), _weak_row("block", 2, "pickle")]
        assert comm_plane_savings(rows) == {}

    def test_zero_shm_bytes_counts_as_one(self):
        rows = [_weak_row(plane="shm", physical=0), _weak_row(plane="pickle", physical=700)]
        assert comm_plane_savings(rows) == {("row", 2): 700.0}

    @pytest.mark.parametrize("modeled,match", [(5000.0, True), (5000.4, True), (5001.0, False)])
    def test_comm_bytes_match(self, modeled, match):
        assert _weak_row(measured=5000, modeled=modeled).comm_bytes_match is match


class TestFormatDistributedWeakScaling:
    def test_empty_rows(self):
        assert format_distributed_weak_scaling([]).startswith("no weak-scaling configurations ran")

    def test_table_lists_rows_and_savings(self):
        rows = [_weak_row(plane="shm", physical=100), _weak_row(plane="pickle", physical=3000)]
        lines = format_distributed_weak_scaling(rows).splitlines()
        assert lines[0].split() == [
            "dist", "nodes", "N", "plane", "tasks", "measured", "[s]", "simulated",
            "[s]", "msgs", "comm", "[B]", "wire", "[B]", "shm", "[B]",
        ]
        assert lines[1].split()[:4] == ["row", "2", "512", "shm"]
        assert lines[2].split()[:4] == ["row", "2", "512", "pickle"]
        assert lines[3] == "communication volume: measured == static model (all planes)"
        assert lines[4].startswith("zero-copy wire savings row/2 nodes: 30.0x")

    def test_mismatch_warns(self):
        out = format_distributed_weak_scaling([_weak_row(modeled=1.0)])
        assert "WARNING: 1 row(s) disagree with the static comm model" in out


@needs_fork
class TestDistributedWeakScalingRun:
    @pytest.mark.parametrize("distribution", ["row", "block"])
    def test_two_node_accounting(self, distribution):
        rows = run_distributed_weak_scaling(
            base_n=256, node_counts=(2,), leaf_size=64, max_rank=24,
            distributions=(distribution,), data_planes=("shm", "pickle"),
        )
        assert [(r.distribution, r.nodes, r.n, r.data_plane) for r in rows] == [
            (distribution, 2, 512, "shm"), (distribution, 2, 512, "pickle"),
        ]
        shm, pickle = rows
        for row in rows:
            assert row.comm_bytes_match
            assert row.measured_messages > 0 and row.measured_bytes > 0
            assert row.simulated_makespan > 0
        # the plane changes the wire representation, never the logical volume
        assert shm.measured_bytes == pickle.measured_bytes
        assert shm.num_tasks == pickle.num_tasks
        assert shm.mapped_bytes > 0 and pickle.mapped_bytes == 0
        ceiling = SHM_BYTES_SLACK * SHM_WIRE_BYTES[distribution]
        assert 0 < shm.physical_bytes <= ceiling
        assert comm_plane_savings(rows)[(distribution, 2)] >= MIN_COMM_SAVINGS


def _compress(**kwargs):
    opts = dict(n=512, leaf_size=128, max_rank=30, formats=("hss",), n_workers=2, nodes=2, repeats=1)
    opts.update(kwargs)
    return run_compress_scaling(**opts)


class TestCompressScaling:
    def test_deferred_row(self):
        result = _compress(backends=("deferred",), repeats=2)
        assert {k: result[k] for k in ("n", "leaf_size", "max_rank", "repeats")} == {
            "n": 512, "leaf_size": 128, "max_rank": 30, "repeats": 2,
        }
        (row,) = result["rows"]
        assert (row.format, row.backend, row.nodes, row.n_workers) == ("hss", "deferred", 1, 1)
        assert row.repeats == 2 and not row.fusion
        assert row.tasks > 0 and row.bit_identical
        assert row.comm_messages == 0 and row.comm_matches_plan
        assert row.speedup == pytest.approx(row.sequential_seconds / row.wall_seconds)

    def test_parallel_row_records_workers(self):
        (row,) = _compress(backends=("parallel",))["rows"]
        assert (row.nodes, row.n_workers) == (1, 2)
        assert row.bit_identical

    @needs_fork
    def test_distributed_comm_matches_plan(self):
        (row,) = _compress(backends=("distributed",))["rows"]
        assert (row.nodes, row.n_workers) == (2, 1)
        assert row.bit_identical and row.comm_matches_plan
        assert row.comm_messages > 0 and row.comm_bytes > 0

    def test_fusion_only_shrinks_task_census(self):
        (plain,) = _compress(backends=("parallel",))["rows"]
        (fused,) = _compress(backends=("parallel",), fusion=True)["rows"]
        assert fused.fusion and fused.bit_identical
        assert fused.tasks <= plain.tasks

    def test_format_table(self):
        row = CompressScalingRow(
            format="hss", backend="parallel", nodes=1, n_workers=4,
            wall_seconds=0.05, sequential_seconds=0.1, speedup=2.0, tasks=31,
            bit_identical=True, repeats=3,
        )
        out = format_compress_scaling({
            "n": 1024, "kernel": "yukawa", "leaf_size": 128, "max_rank": 30,
            "n_workers": 4, "nodes": 2, "repeats": 3, "rows": [row],
        })
        lines = out.splitlines()
        assert lines[0] == (
            "Compression scaling: kernel=yukawa n=1024 leaf_size=128 max_rank=30 "
            "workers=4 nodes=2 repeats=3"
        )
        assert lines[3].split() == [
            "format", "backend", "tasks", "fused", "seq", "[s]", "wall", "[s]",
            "speedup", "msgs", "comm", "MB", "identical",
        ]
        assert lines[4].split() == [
            "hss", "parallel", "31", "no", "0.1000", "0.0500", "2.00", "0", "0.000", "yes",
        ]

    def test_cli_repeats_flag(self):
        parser = build_parser()
        assert parser.parse_args(["compresscale"]).repeats == 3
        assert parser.parse_args(["compresscale", "--repeats", "2"]).repeats == 2
        with pytest.raises(SystemExit):
            parser.parse_args(["compresscale", "--repeats", "0"])

"""Tests for the runtime metrics subsystem (repro.obs).

Covers the PR 8 acceptance criteria: registry merge semantics (associative,
commutative, lossless against a single registry), histogram reconciliation
against the ExecutionTrace spans built from the same stamps, metrics on the
error/cancellation paths, logical-vs-physical comm bytes reconciling with the
distributed CommLedger, the SolverService's two metric surfaces agreeing,
strict Prometheus exposition round-trips, the benchmark-trajectory gate, and
the benchreport renderer.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path

import pytest

from repro.formats.hss import build_hss
from repro.obs import (
    ExpositionError,
    MetricsRegistry,
    log_buckets,
    merge_snapshots,
    parse_prometheus,
)
from repro.obs.benchreport import render_html, render_markdown, sparkline
from repro.obs.trajectory import check_refresh, check_trajectory, sample_spreads
from repro.pipeline.factorize import HSSULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy
from repro.runtime.dtd import DTDRuntime
from repro.runtime.executor import execute_graph
from repro.runtime.task import AccessMode

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)


@pytest.fixture(scope="module")
def hss(kmat_small):
    return build_hss(kmat_small, leaf_size=32, max_rank=20)


# ---------------------------------------------------------------------------
# registry primitives
# ---------------------------------------------------------------------------
class TestRegistryBasics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things", backend="x")
        c.inc()
        c.inc(3)
        assert reg.value("repro_things_total", backend="x") == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_series_identity_is_name_plus_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_things_total", backend="a")
        b = reg.counter("repro_things_total", backend="b")
        assert a is not b
        assert reg.counter("repro_things_total", backend="a") is a

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_mixed")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("repro_mixed")

    def test_gauge_mode_conflict_raises(self):
        reg = MetricsRegistry()
        reg.gauge("repro_high_water", mode="max")
        with pytest.raises(ValueError, match="merge mode"):
            reg.gauge("repro_high_water", mode="sum")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("repro_sizes", buckets=(1.0, 2.0, 4.0))
        with pytest.raises(ValueError, match="different buckets"):
            reg.histogram("repro_sizes", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("0starts_with_digit")
        with pytest.raises(ValueError):
            reg.counter("repro_ok_total", **{"bad-label": 1})

    def test_log_buckets_cover_range(self):
        buckets = log_buckets(1e-6, 100.0, per_decade=2)
        assert buckets[0] == pytest.approx(1e-6)
        assert buckets[-1] == pytest.approx(100.0)
        assert list(buckets) == sorted(buckets)

    def test_histogram_quantile_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_sizes", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.counts[-1] == 1  # 500 lands in the +Inf overflow bucket
        assert h.quantile(0.25) == 1.0
        assert h.quantile(1.0) == 500.0


# ---------------------------------------------------------------------------
# merge semantics
# ---------------------------------------------------------------------------
def _recorded(hss, backend: str = "deferred", **policy) -> DTDRuntime:
    """The runtime of a recorded, not yet executed, HSS factorization graph."""
    builder = HSSULVFactorizeBuilder(hss, policy=ExecutionPolicy(backend=backend, **policy))
    return builder.record().runtime


def _populated(seed: int) -> MetricsRegistry:
    """A registry with deterministic, seed-dependent content of every kind."""
    reg = MetricsRegistry()
    reg.counter("repro_tasks_executed_total", "t", backend="parallel").inc(seed * 3 + 1)
    reg.counter("repro_comm_messages_total", "m", backend="process").inc(seed)
    reg.gauge("repro_peak_rss_bytes", "r", mode="max", rank=str(seed % 2)).set_max(
        1000 * (seed + 1)
    )
    reg.gauge("repro_bound_values", "b", mode="sum").add(seed + 0.5)
    h = reg.histogram("repro_task_seconds", "s", buckets=(0.01, 0.1, 1.0), kind="potrf")
    for k in range(seed + 2):
        # dyadic values sum exactly in any order, so merge-order comparisons
        # are bitwise rather than approximate
        h.observe(0.0078125 * (k + 1) * (seed + 1))
    return reg


def _canon(snapshot):
    """Snapshot with series sorted by labels (merge order permutes them)."""
    return {
        name: {
            **fam,
            "series": sorted(fam["series"], key=lambda e: e["labels"]),
        }
        for name, fam in snapshot.items()
    }


class TestMergeSemantics:
    def test_merge_into_empty_reconstructs_child(self):
        child = _populated(3)
        parent = MetricsRegistry().merge(child.snapshot())
        assert parent.snapshot() == child.snapshot()

    def test_merge_is_commutative_and_associative(self):
        snaps = [_populated(s).snapshot() for s in (0, 1, 2)]
        results = []
        for order in itertools.permutations(range(3)):
            reg = MetricsRegistry()
            for i in order:
                reg.merge(snaps[i])
            results.append(_canon(reg.snapshot()))
        # every merge order yields the identical aggregate
        assert all(r == results[0] for r in results[1:])
        # ... and nesting does not matter either: (A+B)+C == A+(B+C)
        ab_c = MetricsRegistry().merge(
            MetricsRegistry().merge(snaps[0]).merge(snaps[1]).snapshot()
        ).merge(snaps[2])
        a_bc = MetricsRegistry().merge(snaps[0]).merge(
            MetricsRegistry().merge(snaps[1]).merge(snaps[2]).snapshot()
        )
        assert _canon(ab_c.snapshot()) == _canon(a_bc.snapshot())

    def test_counters_add_and_max_gauges_take_max(self):
        merged = MetricsRegistry()
        merged.merge(_populated(1).snapshot()).merge(_populated(4).snapshot())
        assert merged.value("repro_tasks_executed_total", backend="parallel") == 4 + 13
        # seeds 1 and 4 share rank label "1" and "0" respectively -> separate
        # series; same-rank merging keeps the max
        again = MetricsRegistry()
        again.merge(_populated(1).snapshot()).merge(_populated(3).snapshot())
        assert again.value("repro_peak_rss_bytes", rank="1") == 4000.0
        # sum gauges add
        assert again.value("repro_bound_values") == pytest.approx(1.5 + 3.5)

    def test_histogram_merge_reconciles_counts_sums_minmax(self):
        a, b = _populated(1), _populated(5)
        ha = a.get("repro_task_seconds", kind="potrf")
        hb = b.get("repro_task_seconds", kind="potrf")
        merged = MetricsRegistry().merge(a.snapshot()).merge(b.snapshot())
        hm = merged.get("repro_task_seconds", kind="potrf")
        assert hm.count == ha.count + hb.count
        assert hm.sum == pytest.approx(ha.sum + hb.sum)
        assert hm.counts == [x + y for x, y in zip(ha.counts, hb.counts)]
        assert hm.min == min(ha.min, hb.min)
        assert hm.max == max(ha.max, hb.max)

    def test_empty_histogram_merges_losslessly(self):
        reg = MetricsRegistry()
        reg.histogram("repro_task_seconds", buckets=(0.1, 1.0))  # never observed
        snap = reg.snapshot()
        assert snap["repro_task_seconds"]["series"][0]["min"] is None
        merged = MetricsRegistry().merge(snap)
        h = merged.get("repro_task_seconds")
        assert h.count == 0 and h.min == math.inf

    def test_bucket_layout_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("repro_task_seconds", buckets=(0.1, 1.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("repro_task_seconds", buckets=(0.1, 1.0, 10.0)).observe(0.5)
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_merge_snapshots_helper(self):
        out = merge_snapshots(_populated(0).snapshot(), _populated(2).snapshot())
        reg = MetricsRegistry().merge(out)
        assert reg.value("repro_tasks_executed_total", backend="parallel") == 1 + 7

    def test_snapshot_is_json_serializable(self):
        snap = _populated(2).snapshot()
        assert json.loads(json.dumps(snap)) == snap


# ---------------------------------------------------------------------------
# reconciliation with the trace (same stamps, two surfaces)
# ---------------------------------------------------------------------------
class TestTraceReconciliation:
    def test_thread_histograms_match_spans(self, hss):
        rt = _recorded(hss)
        rt.trace = True
        rt.metrics = MetricsRegistry()
        rt.run_parallel(n_workers=2)
        trace = rt.last_trace
        reg = rt.metrics
        assert trace is not None
        assert reg.value(
            "repro_tasks_executed_total", backend="parallel"
        ) == rt.num_tasks
        # the per-kind latency histograms were built from the same stamps the
        # trace spans were: totals reconcile exactly
        by_kind = {}
        for span in trace.spans:
            by_kind.setdefault(span.kind, []).append(span.duration)
        for kind, durations in by_kind.items():
            h = reg.get("repro_task_seconds", backend="parallel", kind=kind)
            assert h is not None and h.count == len(durations)
            assert h.sum == pytest.approx(sum(durations))
        total = sum(
            reg.get("repro_task_seconds", backend="parallel", kind=k).count
            for k in by_kind
        )
        assert total == len(trace.spans) == rt.num_tasks
        assert reg.value("repro_queue_depth", backend="parallel") >= 1

    def test_metrics_without_trace_leaves_trace_unattached(self, hss):
        rt = _recorded(hss)
        rt.metrics = MetricsRegistry()
        rt.run_parallel(n_workers=2)
        assert rt.last_trace is None
        assert rt.metrics.value(
            "repro_tasks_executed_total", backend="parallel"
        ) == rt.num_tasks

    def test_sequential_run_records(self, hss):
        rt = _recorded(hss)
        rt.metrics = MetricsRegistry()
        rt.run()
        reg = rt.metrics
        assert reg.value("repro_executions_total", backend="deferred") == 1
        assert reg.value(
            "repro_tasks_executed_total", backend="deferred"
        ) == rt.num_tasks
        exec_h = reg.get("repro_execution_seconds", backend="deferred")
        assert exec_h.count == 1 and exec_h.sum > 0
        # memory gauges populated from the handle table
        assert reg.value("repro_handle_bytes", backend="deferred", view="logical") > 0

    def test_repeated_runs_do_not_double_count(self, hss):
        """Calling run() again must not re-record already-recorded spans."""
        rt = _recorded(hss)
        rt.metrics = MetricsRegistry()
        rt.run()
        first = rt.metrics.value("repro_tasks_executed_total", backend="deferred")
        rt.run()  # no new tasks inserted: nothing new to record
        assert rt.metrics.value(
            "repro_tasks_executed_total", backend="deferred"
        ) == first


# ---------------------------------------------------------------------------
# error and cancellation paths
# ---------------------------------------------------------------------------
class TestErrorPaths:
    def _failing_graph(self):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")

        def ok():
            pass

        def boom():
            raise RuntimeError("mid-graph failure")

        rt.insert_task(ok, [(h, AccessMode.RW)], name="t0")
        rt.insert_task(boom, [(h, AccessMode.RW)], name="t1")
        rt.insert_task(ok, [(h, AccessMode.RW)], name="t2")
        rt.insert_task(ok, [(h, AccessMode.RW)], name="t3")
        return rt

    def test_failure_still_counts_everything(self):
        rt = self._failing_graph()
        reg = MetricsRegistry()
        report = execute_graph(
            rt.graph, n_workers=2, raise_on_error=False, metrics=reg
        )
        assert not report.ok
        assert reg.value("repro_executions_total", backend="parallel") == 1
        assert reg.value("repro_tasks_executed_total", backend="parallel") == len(
            report.executed
        )
        assert reg.value("repro_tasks_failed_total", backend="parallel") == len(
            report.errors
        ) == 1
        assert reg.value("repro_tasks_cancelled_total", backend="parallel") == len(
            report.cancelled
        ) == 2
        # the partition invariant carries into the counters
        counted = (
            reg.value("repro_tasks_executed_total", backend="parallel")
            + reg.value("repro_tasks_failed_total", backend="parallel")
            + reg.value("repro_tasks_cancelled_total", backend="parallel")
        )
        assert counted == rt.num_tasks

    def test_raising_path_records_before_raising(self):
        rt = self._failing_graph()
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError, match="mid-graph failure"):
            execute_graph(rt.graph, n_workers=2, metrics=reg)
        assert reg.value("repro_tasks_failed_total", backend="parallel") == 1
        assert reg.value("repro_executions_total", backend="parallel") == 1


# ---------------------------------------------------------------------------
# distributed comm accounting
# ---------------------------------------------------------------------------
@needs_fork
class TestDistributedReconciliation:
    def test_comm_bytes_reconcile_with_ledger(self, hss):
        rt = _recorded(hss, "distributed", nodes=2)
        rt.metrics = MetricsRegistry()
        rt.run_distributed(nodes=2, timeout=120.0)
        ledger = rt.last_distributed_report.ledger
        reg = rt.metrics
        assert ledger.num_messages > 0
        assert reg.value(
            "repro_comm_messages_total", backend="distributed"
        ) == ledger.num_messages
        # logical bytes are the comm *model* (declared handle sizes)...
        assert reg.value(
            "repro_comm_logical_bytes_total", backend="distributed"
        ) == ledger.total_bytes
        # ... physical bytes are the measured wire payloads (descriptors
        # under the default zero-copy plane) ...
        assert reg.value(
            "repro_comm_physical_bytes_total", backend="distributed"
        ) == ledger.total_payload_bytes
        # ... and mapped bytes are what moved through shm segments instead
        assert ledger.total_mapped_bytes > 0
        assert reg.value(
            "repro_comm_mapped_bytes_total", backend="distributed"
        ) == ledger.total_mapped_bytes
        # per-edge transfer histogram totals match the ledger too
        pair_totals = ledger.by_pair()
        for (src, dst), (messages, _bytes) in pair_totals.items():
            h = reg.get(
                "repro_comm_transfer_bytes",
                backend="distributed", src=str(src), dst=str(dst),
            )
            assert h is not None and h.count == messages

    def test_rank_rss_and_executed_merge_from_workers(self, hss):
        rt = _recorded(hss, "distributed", nodes=2)
        rt.metrics = MetricsRegistry()
        rt.run_distributed(nodes=2, timeout=120.0)
        reg = rt.metrics
        # every rank shipped its snapshot back: per-rank RSS gauges exist
        for rank in (0, 1):
            assert reg.value(
                "repro_peak_rss_bytes", backend="distributed", rank=str(rank)
            ) > 0
        # the ranks' executed counters merged to exactly the task count
        assert reg.value(
            "repro_tasks_executed_total", backend="distributed"
        ) == rt.num_tasks


# ---------------------------------------------------------------------------
# SolverService: one source of truth, two surfaces
# ---------------------------------------------------------------------------
class TestServiceSurfaces:
    def test_stats_and_prometheus_agree(self):
        from repro.service import SolverService

        service = SolverService(backend="parallel", n_workers=2)
        import numpy as np

        rng = np.random.default_rng(0)
        for seed in range(3):
            service.submit(
                rng.standard_normal(256), kernel="yukawa", n=256,
                leaf_size=64, max_rank=20,
            )
        service.flush()
        stats = service.metrics()
        families = parse_prometheus(service.render_prometheus())
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for fam in families.values()
            for name, labels, value in fam["samples"]
        }
        assert samples[("repro_service_requests_total", ())] == stats["requests"] == 3
        assert samples[("repro_service_solves_total", ())] == stats["solves"] == 3
        assert samples[("repro_service_cache_misses_total", ())] == stats["cache_misses"]
        assert samples[
            ("repro_service_stage_seconds_total", (("stage", "solve"),))
        ] == pytest.approx(stats["solve_seconds"])
        # the per-key latency view is the same histogram the registry renders
        (label,) = stats["latency"]
        view = service.stats.latency[label]
        hist = service.registry.get(
            "repro_service_batch_seconds", key=label
        )
        assert view.count == hist.count and view.total == hist.sum

    def test_external_registry_is_used(self):
        from repro.service import SolverService

        reg = MetricsRegistry()
        service = SolverService(backend="reference", metrics=reg)
        assert service.registry is reg
        service.stats.requests += 2
        assert reg.value("repro_service_requests_total") == 2


# ---------------------------------------------------------------------------
# exposition round-trip
# ---------------------------------------------------------------------------
class TestExposition:
    def test_round_trip_preserves_values(self):
        reg = _populated(2)
        families = parse_prometheus(reg.render_prometheus())
        assert set(families) == set(reg.families())
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for fam in families.values()
            for name, labels, value in fam["samples"]
        }
        assert samples[
            ("repro_tasks_executed_total", (("backend", "parallel"),))
        ] == 7
        h = reg.get("repro_task_seconds", kind="potrf")
        assert samples[
            ("repro_task_seconds_count", (("kind", "potrf"),))
        ] == h.count
        assert samples[
            ("repro_task_seconds_sum", (("kind", "potrf"),))
        ] == pytest.approx(h.sum)
        inf_key = ("repro_task_seconds_bucket", (("kind", "potrf"), ("le", "+Inf")))
        assert samples[inf_key] == h.count

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("repro_weird_total", 'has "quotes"', key='a\\b"c\nd').inc(5)
        families = parse_prometheus(reg.render_prometheus())
        ((_, labels, value),) = families["repro_weird_total"]["samples"]
        assert labels == {"key": 'a\\b"c\nd'} and value == 5

    def test_strict_parser_rejects_malformed_text(self):
        with pytest.raises(ExpositionError):
            parse_prometheus("repro_orphan_total 3\n")  # sample before TYPE
        with pytest.raises(ExpositionError):
            parse_prometheus(
                "# TYPE repro_x_total counter\nrepro_x_total{bad= } 1\n"
            )
        # non-cumulative histogram buckets
        with pytest.raises(ExpositionError):
            parse_prometheus(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                'repro_h_bucket{le="+Inf"} 3\n'
                "repro_h_sum 1\nrepro_h_count 3\n"
            )


# ---------------------------------------------------------------------------
# trajectory gate
# ---------------------------------------------------------------------------
def _artifact(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _speedup_section(speedup, n=1024, cpu_count=None, backend="parallel"):
    section = {
        "n": n,
        "rows": [{
            "format": "hss", "backend": backend, "fusion": False,
            "speedup": speedup,
        }],
    }
    if cpu_count is not None:
        section["machine"] = {"cpu_count": cpu_count}
    return section


class TestTrajectoryGate:
    def test_within_tolerance_passes(self, tmp_path):
        cur = _artifact(tmp_path, "cur.json", {
            "parallel_speedup": _speedup_section(1.6),
        })
        base = _artifact(tmp_path, "base.json", {
            "parallel_speedup": _speedup_section(2.0),
        })
        result = check_trajectory(cur, base)
        assert result.ok and result.compared == 1

    def test_regression_fails(self, tmp_path):
        cur = _artifact(tmp_path, "cur.json", {
            "parallel_speedup": _speedup_section(0.8),
        })
        base = _artifact(tmp_path, "base.json", {
            "parallel_speedup": _speedup_section(2.0),
        })
        result = check_trajectory(cur, base)
        assert not result.ok and result.exit_code == 1
        assert "REGRESSED" in "\n".join(result.lines)

    def test_cross_cpu_count_uses_lenient_tolerance(self, tmp_path):
        # 0.8 vs stored 2.0 fails at the same-machine tolerance (floor 1.0)
        # but passes the cross tolerance (floor 0.5) when the stamps show
        # different core counts
        cur = _artifact(tmp_path, "cur.json", {
            "parallel_speedup": _speedup_section(0.8, cpu_count=1),
        })
        base = _artifact(tmp_path, "base.json", {
            "parallel_speedup": _speedup_section(2.0, cpu_count=8),
        })
        assert check_trajectory(cur, base).ok
        # unknown stamps (pre-stamp artifacts) stay strict
        cur2 = _artifact(tmp_path, "cur2.json", {
            "parallel_speedup": _speedup_section(0.8),
        })
        base2 = _artifact(tmp_path, "base2.json", {
            "parallel_speedup": _speedup_section(2.0),
        })
        assert not check_trajectory(cur2, base2).ok

    def test_ungated_backend_ignored(self, tmp_path):
        cur = _artifact(tmp_path, "cur.json", {
            "parallel_speedup": _speedup_section(0.1, backend="distributed"),
        })
        base = _artifact(tmp_path, "base.json", {
            "parallel_speedup": _speedup_section(2.0, backend="distributed"),
        })
        result = check_trajectory(cur, base)
        assert result.ok and result.compared == 0

    def test_overhead_fields_both_gated(self, tmp_path):
        cur = _artifact(tmp_path, "cur.json", {
            "trace_overhead": {
                "n": 2048, "repeats": 5,
                "untraced_best": 1.0, "traced_best": 1.01, "metered_best": 1.08,
                "overhead_fraction": 0.01,
                "metered_overhead_fraction": 0.08,
            },
        })
        base = _artifact(tmp_path, "base.json", {})
        result = check_trajectory(cur, base, max_trace_overhead=0.03)
        assert not result.ok
        assert any("traced+metered" in f for f in result.failures)
        assert not any(
            "traced]" in f or "[traced]" in f for f in result.failures
        )
        # raising the limit clears it
        assert check_trajectory(cur, base, max_trace_overhead=0.10).ok

    def test_missing_baseline_never_fails(self, tmp_path):
        cur = _artifact(tmp_path, "cur.json", {
            "parallel_speedup": _speedup_section(0.1),
        })
        result = check_trajectory(cur, tmp_path / "nope.json")
        assert result.ok and result.compared == 0

    # -- baseline health: a disturbed run committed as the trajectory must
    #    fail every subsequent gate run, not silently lower the floors

    def test_noisy_baseline_overhead_fails_even_with_clean_current(
        self, tmp_path
    ):
        clean = {
            "n": 2048, "repeats": 5,
            "untraced_best": 1.0, "traced_best": 1.01, "metered_best": 1.01,
            "overhead_fraction": 0.01, "metered_overhead_fraction": 0.01,
        }
        cur = _artifact(tmp_path, "cur.json", {"trace_overhead": dict(clean)})
        base = _artifact(tmp_path, "base.json", {
            "trace_overhead": {**clean, "metered_overhead_fraction": 0.0377},
        })
        result = check_trajectory(cur, base, max_trace_overhead=0.03)
        assert not result.ok
        assert any(
            f.startswith("baseline trace_overhead") for f in result.failures
        )

    @staticmethod
    def _noisy_speedup_section(samples):
        section = _speedup_section(1.0)
        section["rows"][0]["seq_samples"] = list(samples)
        return section

    def test_noisy_baseline_samples_fail(self, tmp_path):
        cur = _artifact(tmp_path, "cur.json", {
            "parallel_speedup": _speedup_section(1.0),
        })
        base = _artifact(tmp_path, "base.json", {
            "parallel_speedup": self._noisy_speedup_section(
                [0.435, 0.382, 0.136]  # 3.2x spread: a disturbed run
            ),
        })
        result = check_trajectory(cur, base)
        assert not result.ok
        assert any("sample spread" in f and "baseline" in f
                   for f in result.failures)
        # a tight spread passes
        base2 = _artifact(tmp_path, "base2.json", {
            "parallel_speedup": self._noisy_speedup_section([0.40, 0.42, 0.41]),
        })
        assert check_trajectory(cur, base2).ok

    def test_noisy_current_samples_warn_only(self, tmp_path):
        cur = _artifact(tmp_path, "cur.json", {
            "parallel_speedup": self._noisy_speedup_section(
                [0.435, 0.382, 0.136]
            ),
        })
        base = _artifact(tmp_path, "base.json", {
            "parallel_speedup": _speedup_section(1.0),
        })
        result = check_trajectory(cur, base)
        assert result.ok
        assert any("NOISY" in line for line in result.lines)

    # -- refresh validation: replacing the baseline requires a clean run at
    #    parity or better, so refreshes cannot ratchet the floors looser

    def test_refresh_parity_ok_and_regression_fails(self, tmp_path):
        committed = _artifact(tmp_path, "committed.json", {
            "parallel_speedup": _speedup_section(1.0),
        })
        at_parity = _artifact(tmp_path, "parity.json", {
            "parallel_speedup": _speedup_section(0.95),
        })
        assert check_refresh(at_parity, committed).ok
        slower = _artifact(tmp_path, "slower.json", {
            "parallel_speedup": _speedup_section(0.8),
        })
        result = check_refresh(slower, committed)
        assert not result.ok
        # the same 0.8 run would pass the ordinary (0.5-tolerance) gate
        assert check_trajectory(slower, committed).ok

    def test_refresh_rejects_noisy_candidate(self, tmp_path):
        committed = _artifact(tmp_path, "committed.json", {
            "parallel_speedup": _speedup_section(1.0),
        })
        noisy = _artifact(tmp_path, "noisy.json", {
            "parallel_speedup": self._noisy_speedup_section(
                [0.435, 0.382, 0.136]
            ),
        })
        result = check_refresh(noisy, committed)
        assert not result.ok
        assert any("sample spread" in f for f in result.failures)

    def test_committed_baseline_is_clean(self):
        # The artifact every regression floor is derived from must itself
        # satisfy the baseline health checks (overhead within the limit,
        # sample spreads within the sanity bound) -- this makes a disturbed
        # re-record uncommittable at the plain-pytest tier, not only in the
        # gate jobs.
        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "BENCH_runtime.json"
        )
        result = check_trajectory(path, path)
        assert result.ok, result.summary()

    def test_sample_spreads_iterator_skips_short_and_nonpositive(self):
        spreads = list(sample_spreads({
            "trace_overhead": {
                "untraced_samples": [1.0, 2.0],
                "one_samples": [1.0],          # too short
                "zero_samples": [0.0, 1.0],    # non-positive
                "text_samples": ["a", "b"],    # non-numeric
            },
        }))
        assert spreads == [
            ("trace_overhead", "<section>", "untraced_samples", 2.0),
        ]

    @staticmethod
    def _throughput_section(solves_per_sec, backend="parallel", n=1024):
        return {
            "n": n,
            "rows": [{
                "format": "hss", "backend": backend,
                "n_workers": 4, "batch_size": 4,
                "solves_per_sec": solves_per_sec,
            }],
        }

    def test_solve_throughput_gated(self, tmp_path):
        # a >50% throughput drop on a concurrent backend fails the gate
        cur = _artifact(tmp_path, "cur.json", {
            "solve_throughput": self._throughput_section(101.0),
        })
        base = _artifact(tmp_path, "base.json", {
            "solve_throughput": self._throughput_section(230.0),
        })
        result = check_trajectory(cur, base)
        assert not result.ok and result.compared == 1
        assert any("solve_throughput" in f for f in result.failures)
        # within tolerance passes
        cur2 = _artifact(tmp_path, "cur2.json", {
            "solve_throughput": self._throughput_section(200.0),
        })
        assert check_trajectory(cur2, base).ok

    def test_solve_throughput_serial_backends_ungated(self, tmp_path):
        # reference/sequential rows never gate: absolute single-thread
        # throughput is not part of the concurrency trajectory
        cur = _artifact(tmp_path, "cur.json", {
            "solve_throughput": self._throughput_section(10.0, backend="reference"),
        })
        base = _artifact(tmp_path, "base.json", {
            "solve_throughput": self._throughput_section(230.0, backend="reference"),
        })
        result = check_trajectory(cur, base)
        assert result.ok and result.compared == 0

    @staticmethod
    def _serve_section(solves_per_sec, backend="sequential", n=256, clients=4):
        return {
            "n": n,
            "rows": [{
                "format": "hss", "backend": backend,
                "clients": clients,
                "solves_per_sec": solves_per_sec,
            }],
        }

    def test_serve_load_gated(self, tmp_path):
        # a >50% end-to-end serving throughput drop fails the gate
        cur = _artifact(tmp_path, "cur.json", {
            "serve_load": self._serve_section(90.0),
        })
        base = _artifact(tmp_path, "base.json", {
            "serve_load": self._serve_section(200.0),
        })
        result = check_trajectory(cur, base)
        assert not result.ok and result.compared == 1
        assert any("serve_load" in f for f in result.failures)
        # within tolerance passes
        cur2 = _artifact(tmp_path, "cur2.json", {
            "serve_load": self._serve_section(180.0),
        })
        assert check_trajectory(cur2, base).ok

    def test_serve_load_gates_sequential_backends_too(self, tmp_path):
        # unlike solve_throughput, serving throughput gates every backend:
        # the HTTP/batching overhead being measured exists regardless of the
        # executor behind the service, so a sequential-backend regression is
        # just as real
        cur = _artifact(tmp_path, "cur.json", {
            "serve_load": self._serve_section(10.0, backend="sequential"),
        })
        base = _artifact(tmp_path, "base.json", {
            "serve_load": self._serve_section(230.0, backend="sequential"),
        })
        result = check_trajectory(cur, base)
        assert not result.ok and result.compared == 1
        # rows match on the client count: a different concurrency level is a
        # different row, not a regression
        cur2 = _artifact(tmp_path, "cur2.json", {
            "serve_load": self._serve_section(10.0, clients=8),
        })
        assert check_trajectory(cur2, base).compared == 0

    @staticmethod
    def _comm_section(shm_bytes, pickle_bytes, nodes=2, n=512):
        return {
            "base_n": n // nodes,
            "rows": [
                {
                    "distribution": "row", "nodes": nodes, "n": n,
                    "data_plane": "shm", "physical_bytes": shm_bytes,
                    "mapped_bytes": 10 * shm_bytes,
                },
                {
                    "distribution": "row", "nodes": nodes, "n": n,
                    "data_plane": "pickle", "physical_bytes": pickle_bytes,
                    "mapped_bytes": 0,
                },
            ],
        }

    def test_comm_savings_floor_gated(self, tmp_path):
        # 30x savings clears the default 10x floor ...
        cur = _artifact(tmp_path, "cur.json", {
            "distributed_weak_scaling": self._comm_section(1000, 30000),
        })
        result = check_trajectory(cur, tmp_path / "nope.json")
        assert result.ok and result.compared == 1
        # ... 2x does not (array payloads leaked back onto the wire)
        cur2 = _artifact(tmp_path, "cur2.json", {
            "distributed_weak_scaling": self._comm_section(15000, 30000),
        })
        result2 = check_trajectory(cur2, tmp_path / "nope.json")
        assert not result2.ok
        assert any("zero-copy savings" in f for f in result2.failures)
        # a raised floor fails the 30x artifact too
        assert not check_trajectory(
            cur, tmp_path / "nope.json", min_comm_savings=50.0
        ).ok

    def test_comm_shm_bytes_regression_gated(self, tmp_path):
        base = _artifact(tmp_path, "base.json", {
            "distributed_weak_scaling": self._comm_section(1000, 30000),
        })
        # same wire bytes at the same n: both checks pass
        cur_ok = _artifact(tmp_path, "cur_ok.json", {
            "distributed_weak_scaling": self._comm_section(1000, 30000),
        })
        result = check_trajectory(cur_ok, base)
        assert result.ok and result.compared == 2
        # descriptor bloat past the slack fails even when savings still clear
        cur_bad = _artifact(tmp_path, "cur_bad.json", {
            "distributed_weak_scaling": self._comm_section(2000, 30000),
        })
        result2 = check_trajectory(cur_bad, base)
        assert not result2.ok
        assert any("shm wire bytes grew" in f for f in result2.failures)

    def test_comm_gate_skips_preplane_artifacts(self, tmp_path):
        # rows recorded before the zero-copy plane carry no data_plane /
        # physical_bytes fields: the gate must skip them, not crash or fail
        cur = _artifact(tmp_path, "cur.json", {
            "distributed_weak_scaling": {
                "base_n": 256,
                "rows": [{"distribution": "row", "nodes": 2, "n": 512,
                          "measured_bytes": 32256}],
            },
        })
        result = check_trajectory(cur, tmp_path / "nope.json")
        assert result.ok and result.compared == 0

    def test_comm_gate_ignores_single_node_rows(self, tmp_path):
        # one node means no transfers: 0B/0B rows never gate
        cur = _artifact(tmp_path, "cur.json", {
            "distributed_weak_scaling": self._comm_section(0, 0, nodes=1),
        })
        result = check_trajectory(cur, tmp_path / "nope.json")
        assert result.ok and result.compared == 0


# ---------------------------------------------------------------------------
# benchreport renderer
# ---------------------------------------------------------------------------
class TestBenchreport:
    def test_sparkline(self):
        assert sparkline([1, 2, 3]) == "▁▄█"
        assert sparkline([5, 5]) == "▁▁"
        assert sparkline([]) == ""
        assert sparkline(["junk"]) == ""

    def test_render_markdown_synthetic_artifact(self):
        current = {
            "parallel_speedup": {
                "n": 2048,
                "machine": {"git_sha": "abc1234", "cpu_count": 4},
                "rows": [{
                    "format": "hss", "backend": "thread", "fusion": False,
                    "seq_seconds": 0.2, "par_seconds": 0.1, "speedup": 2.0,
                    "par_samples": [0.1, 0.11, 0.1],
                }],
            },
            "trace_overhead": {
                "n": 2048, "repeats": 5,
                "untraced_best": 1.0, "traced_best": 1.01, "metered_best": 1.02,
                "overhead_fraction": 0.01, "metered_overhead_fraction": 0.02,
                "untraced_samples": [1.0, 1.1], "traced_samples": [1.01, 1.2],
                "metered_samples": [1.02, 1.1],
            },
        }
        baseline = {
            "parallel_speedup": {
                "n": 2048,
                "rows": [{
                    "format": "hss", "backend": "thread", "fusion": False,
                    "speedup": 1.6,
                }],
            },
        }
        md = render_markdown(current, baseline)
        assert "2.00x" in md and "+25%" in md  # delta vs the 1.6x baseline
        assert "traced+metered" in md and "+2.00%" in md
        assert "git `abc1234`" in md and "4 cpu(s)" in md
        html = render_html(current, baseline)
        assert "<table>" in html and "2.00x" in html

    def test_render_committed_artifact(self):
        from repro.obs.trajectory import load_artifact
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_runtime.json"
        md = render_markdown(load_artifact(path))
        assert md.startswith("# Benchmark trajectory report")
        assert "## Observability overhead" in md
        assert "traced+metered" in md  # the committed artifact has the new arm

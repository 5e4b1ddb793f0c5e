"""Span invariants of the measured tracing layer across all backends.

The tracing layer (:mod:`repro.runtime.tracing`) claims a precise contract:
exactly one :class:`TaskSpan` per executed task, ordered stamps on one
clock-aligned timeline, worker ids within bounds, fused tasks mapping onto
executed head spans, and per-worker breakdown components that reconcile with
the execution wall time.  These tests assert that contract on the randomized
executor stress graphs (thread backend) and on small handle graphs for the
sequential, process and distributed backends, plus the Chrome
trace-event export schema.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.pipeline.policy import ExecutionPolicy
from repro.runtime.dtd import DTDRuntime
from repro.runtime.executor import execute_graph
from repro.runtime.task import AccessMode

from test_runtime_executor_stress import _random_dag

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires fork (POSIX)"
)


def _assert_span_invariants(trace, executed, n_workers):
    """Exactly one span per executed task, ordered stamps, bounded workers."""
    assert sorted(s.tid for s in trace.spans) == sorted(executed)
    for span in trace.spans:
        assert span.queue_t <= span.start_t <= span.end_t
        assert span.duration >= 0.0
        assert span.queue_delay >= 0.0
        assert 0 <= span.worker < n_workers
    for comm in trace.comm:
        assert comm.end_t >= comm.start_t
        assert comm.nbytes >= 0


def _assert_breakdown_reconciles(trace, rel_tol=0.15, abs_tol=5e-3):
    """Per worker, compute + overhead + comm + idle must match wall_time."""
    breakdowns = trace.worker_breakdowns()
    assert set(range(trace.n_workers)) <= set(breakdowns)
    for worker, b in breakdowns.items():
        assert min(b.compute, b.overhead, b.communication, b.idle) >= 0.0
        total = b.compute + b.overhead + b.communication + b.idle
        assert abs(total - trace.wall_time) <= rel_tol * trace.wall_time + abs_tol, (
            worker,
            total,
            trace.wall_time,
        )
    # and so does the all-workers sum (the satellite invariant)
    totals = trace.totals()
    grand = totals.compute + totals.overhead + totals.communication + totals.idle
    wall_budget = trace.wall_time * trace.n_workers
    assert abs(grand - wall_budget) <= rel_tol * wall_budget + abs_tol * trace.n_workers


class TestThreadBackend:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n_workers", [1, 2, 8])
    def test_random_dag_span_invariants(self, seed, n_workers):
        rng = np.random.default_rng(seed)
        graph, values, _ = _random_dag(rng, n_tasks=120, max_fanin=4)
        report = execute_graph(graph, n_workers=n_workers, trace=True)
        assert report.ok
        trace = report.trace
        assert trace is not None
        assert trace.backend == "parallel"
        assert trace.n_workers == report.num_workers
        assert trace.wall_time == report.wall_time
        _assert_span_invariants(trace, report.executed, report.num_workers)
        _assert_breakdown_reconciles(trace)

    @pytest.mark.parametrize("seed", [2])
    def test_spans_never_overlap_on_one_worker(self, seed):
        rng = np.random.default_rng(seed)
        graph, _, _ = _random_dag(rng, n_tasks=150, max_fanin=5)
        report = execute_graph(graph, n_workers=4, trace=True)
        assert report.ok
        last_end: dict[int, float] = {}
        for span in sorted(report.trace.spans, key=lambda s: s.start_t):
            if span.worker in last_end:
                # one thread runs its bodies strictly back to back
                assert span.start_t >= last_end[span.worker]
            last_end[span.worker] = span.end_t

    def test_untraced_run_has_no_trace(self):
        rng = np.random.default_rng(3)
        graph, _, _ = _random_dag(rng, n_tasks=40, max_fanin=3)
        report = execute_graph(graph, n_workers=2)
        assert report.ok
        assert report.trace is None

    def test_aggregates_cover_every_span(self):
        rng = np.random.default_rng(4)
        graph, _, _ = _random_dag(rng, n_tasks=60, max_fanin=3)
        report = execute_graph(graph, n_workers=2, trace=True)
        trace = report.trace
        for aggregates in (trace.by_kind(), trace.by_phase()):
            assert sum(a.count for a in aggregates) == len(trace.spans)
            assert sum(a.total for a in aggregates) == pytest.approx(
                sum(s.duration for s in trace.spans)
            )
            for a in aggregates:
                assert a.mean == pytest.approx(a.total / a.count)
                assert 0.0 <= a.p95 <= max(s.duration for s in trace.spans)
            # sorted by descending total
            assert [a.total for a in aggregates] == sorted(
                (a.total for a in aggregates), reverse=True
            )

    def test_error_path_traces_executed_tasks_only(self):
        rng = np.random.default_rng(7)
        graph, values, _ = _random_dag(rng, n_tasks=80, max_fanin=3)
        fail_tid = 40
        graph.task(fail_tid).func = lambda: (_ for _ in ()).throw(RuntimeError("inject"))
        report = execute_graph(graph, n_workers=4, raise_on_error=False, trace=True)
        assert not report.ok
        trace = report.trace
        assert trace is not None
        # the failed and cancelled tasks never produced spans
        _assert_span_invariants(trace, report.executed, report.num_workers)
        assert fail_tid not in {s.tid for s in trace.spans}


class TestChromeExport:
    def test_chrome_events_schema_and_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        graph, _, _ = _random_dag(rng, n_tasks=50, max_fanin=3)
        report = execute_graph(graph, n_workers=2, trace=True)
        trace = report.trace

        path = trace.to_chrome_json(str(tmp_path / "trace.json"))
        with open(path, "r", encoding="utf-8") as fh:
            events = json.load(fh)
        assert isinstance(events, list) and events
        assert events == trace.to_chrome_events()

        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["ph"] for e in events} == {"X", "M"}
        # one complete event per span (plus one per comm action, none here)
        assert len(complete) == len(trace.spans) + len(trace.comm)
        for event in complete:
            assert isinstance(event["name"], str) and event["name"]
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        names = {e["name"] for e in metadata}
        assert "process_name" in names and "thread_name" in names


class TestSequentialDTD:
    def test_deferred_run_traces_sequential_execution(self):
        rt = DTDRuntime(execution="deferred", trace=True)
        h = rt.new_handle("acc", nbytes=8)
        state = {"v": 0}
        for i in range(6):
            rt.insert_task(
                lambda: state.__setitem__("v", state["v"] + 1),
                [(h, AccessMode.RW)],
                name=f"inc{i}",
                kind="INC",
            )
        assert state["v"] == 0
        rt.run()
        assert state["v"] == 6
        trace = rt.last_trace
        assert trace is not None and trace.backend == "deferred"
        assert trace.n_workers == 1
        _assert_span_invariants(trace, list(range(6)), 1)
        assert trace.wall_time >= max(s.end_t for s in trace.spans) - 1e-12
        # insertion order is the execution order
        assert [s.tid for s in sorted(trace.spans, key=lambda s: s.start_t)] == list(range(6))

    def test_fused_spans_map_originals_to_heads(self):
        rt = DTDRuntime(execution="deferred", trace=True)
        h = rt.new_handle("acc", nbytes=8)
        state = {"v": 0}
        for i in range(8):
            rt.insert_task(
                lambda: state.__setitem__("v", state["v"] + 1),
                [(h, AccessMode.RW)],
                name=f"inc{i}",
                kind="INC",
            )
        stats = rt.fuse(slots=4)
        assert rt.num_tasks < 8  # the linear chain actually coarsened
        report = rt.run_parallel(n_workers=2)
        assert report.ok and state["v"] == 8
        trace = rt.last_trace
        assert trace is not None
        span_tids = {s.tid for s in trace.spans}
        # every original task id maps to a head whose span was recorded
        assert set(trace.head_of) == set(range(8))
        for tid in range(8):
            assert trace.head_of[tid] in span_tids
        # heads map to themselves
        for head in span_tids:
            assert trace.head_of[head] == head


def _bound_chain_runtime(n_tasks=6):
    """A deferred chain over bound handles, runnable on every fork backend."""
    rt = DTDRuntime(execution="deferred", trace=True)
    store = {"x0": 1.0}
    handles = []
    for i in range(n_tasks):
        h = rt.new_handle(f"x{i}", nbytes=8, owner=i % 2).bind_item(store, f"x{i}")
        handles.append(h)

    def body(i):
        store[f"x{i}"] = store.get(f"x{i-1}", 1.0) + 1.0

    for i in range(1, n_tasks):
        rt.insert_task(
            lambda i=i: body(i),
            [(handles[i - 1], AccessMode.READ), (handles[i], AccessMode.WRITE)],
            name=f"step{i}",
            kind="STEP",
        )
    return rt, store


@needs_fork
class TestProcessBackend:
    def test_process_trace_spans_and_comm(self):
        rt, store = _bound_chain_runtime()
        report = ExecutionPolicy(backend="process", n_workers=2, trace=True).execute(rt)
        assert report.ok and report is rt.last_distributed_report
        trace = rt.last_trace
        # process is the distributed rank loop with one rank per worker
        assert trace is not None and trace.backend == "distributed"
        assert trace.n_workers == report.nodes == 2
        _assert_span_invariants(trace, report.executed, trace.n_workers)
        _assert_breakdown_reconciles(trace, rel_tol=0.5, abs_tol=0.05)
        # cross-rank handle transfers are accounted as communication
        assert {c.action for c in trace.comm} == {"send", "recv"}


@needs_fork
class TestDistributedBackend:
    def test_distributed_trace_merges_rank_timelines(self, tmp_path):
        rt, store = _bound_chain_runtime()
        report = rt.run_distributed(nodes=2)
        assert report.ok
        trace = rt.last_trace
        assert trace is not None and trace.backend == "distributed"
        assert trace.n_workers == 2
        _assert_span_invariants(trace, report.executed, 2)
        _assert_breakdown_reconciles(trace, rel_tol=0.5, abs_tol=0.05)
        # the alternating-owner chain forces real cross-rank transfers, and
        # both actions of every transfer are stamped on the shared clock
        actions = {c.action for c in trace.comm}
        assert actions == {"send", "recv"}
        for comm in trace.comm:
            assert comm.worker in (0, 1)
        # rank lanes land in the Chrome export as distinct pids
        events = trace.to_chrome_events()
        assert {e["pid"] for e in events if e["ph"] == "X"} == {0, 1}
        path = trace.to_chrome_json(str(tmp_path / "dist.json"))
        with open(path, "r", encoding="utf-8") as fh:
            assert json.load(fh) == events


class TestReportRepr:
    def test_execution_report_repr_surfaces_failure_counts(self):
        rng = np.random.default_rng(7)
        graph, _, _ = _random_dag(rng, n_tasks=30, max_fanin=3)
        graph.task(10).func = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        report = execute_graph(graph, n_workers=2, raise_on_error=False)
        text = repr(report)
        assert "errors=1" in text
        assert "cancelled=" in text
        assert "timed_out=" in text

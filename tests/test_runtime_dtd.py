"""Tests for the DTD runtime: data handles, access modes, dependency inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.policy import ExecutionPolicy
from repro.runtime.data import DataHandle
from repro.runtime.dtd import DTDRuntime
from repro.runtime.task import AccessMode, Task, TaskAccess


class TestDataHandle:
    def test_unique_ids(self):
        a, b = DataHandle("a"), DataHandle("b")
        assert a.hid != b.hid

    def test_hashable(self):
        a = DataHandle("a")
        assert a in {a}

    def test_repr_includes_owner(self):
        h = DataHandle("x", nbytes=8, owner=3)
        assert "owner=3" in repr(h)


class TestAccessMode:
    def test_read_write_flags(self):
        assert AccessMode.READ.reads and not AccessMode.READ.writes
        assert AccessMode.WRITE.writes and not AccessMode.WRITE.reads
        assert AccessMode.RW.reads and AccessMode.RW.writes


class TestTask:
    def test_primary_write_and_owner(self):
        h1 = DataHandle("a", owner=2)
        h2 = DataHandle("b", owner=5)
        t = Task(
            tid=0,
            name="t",
            kind="X",
            accesses=[TaskAccess(h1, AccessMode.READ), TaskAccess(h2, AccessMode.RW)],
        )
        assert t.primary_write() is h2
        assert t.owner_process() == 5

    def test_pinned_process_wins(self):
        h = DataHandle("a", owner=2)
        t = Task(tid=0, name="t", kind="X", process=7, accesses=[TaskAccess(h, AccessMode.RW)])
        assert t.owner_process() == 7

    def test_read_only_task_falls_back_to_read_owner(self):
        h = DataHandle("a", owner=4)
        t = Task(tid=0, name="t", kind="X", accesses=[TaskAccess(h, AccessMode.READ)])
        assert t.owner_process() == 4

    def test_run_executes_func(self):
        out = []
        t = Task(tid=0, name="t", kind="X", func=lambda v: out.append(v), args=(42,))
        t.run()
        assert out == [42]

    def test_run_noop_without_func(self):
        t = Task(tid=0, name="t", kind="X")
        assert t.run() is None


class TestDTDRuntime:
    def test_handle_registration(self):
        rt = DTDRuntime()
        h = rt.new_handle("block", nbytes=64, level=2, row=1)
        assert rt.handle("block") is h
        assert h.meta["level"] == 2
        with pytest.raises(ValueError):
            rt.new_handle("block")

    def test_read_after_write_dependency(self):
        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("a")
        t1 = rt.insert_task(None, [(h, AccessMode.WRITE)], name="w")
        t2 = rt.insert_task(None, [(h, AccessMode.READ)], name="r")
        assert (t1.tid, t2.tid) in rt.graph.edges

    def test_write_after_read_dependency(self):
        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("a")
        t1 = rt.insert_task(None, [(h, AccessMode.WRITE)], name="w1")
        t2 = rt.insert_task(None, [(h, AccessMode.READ)], name="r")
        t3 = rt.insert_task(None, [(h, AccessMode.WRITE)], name="w2")
        assert (t2.tid, t3.tid) in rt.graph.edges
        assert (t1.tid, t3.tid) in rt.graph.edges

    def test_independent_tasks_have_no_edges(self):
        rt = DTDRuntime(execution="symbolic")
        a, b = rt.new_handle("a"), rt.new_handle("b")
        rt.insert_task(None, [(a, AccessMode.RW)])
        rt.insert_task(None, [(b, AccessMode.RW)])
        assert rt.graph.num_edges == 0

    def test_reads_do_not_depend_on_each_other(self):
        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("a")
        rt.insert_task(None, [(h, AccessMode.WRITE)])
        r1 = rt.insert_task(None, [(h, AccessMode.READ)])
        r2 = rt.insert_task(None, [(h, AccessMode.READ)])
        assert (r1.tid, r2.tid) not in rt.graph.edges

    def test_deferred_execution_runs_on_run(self):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("a")
        store = {"x": 0}
        rt.insert_task(lambda: store.__setitem__("x", store["x"] + 1), [(h, AccessMode.RW)])
        assert store["x"] == 0
        rt.run()
        assert store["x"] == 1
        rt.run()  # idempotent
        assert store["x"] == 1

    def test_symbolic_never_runs(self):
        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("a")
        rt.insert_task(lambda: (_ for _ in ()).throw(ValueError), [(h, AccessMode.RW)])
        for run in (rt.run, rt.run_parallel, rt.run_distributed):
            with pytest.raises(RuntimeError, match="symbolic"):
                run()
        with pytest.raises(RuntimeError, match="symbolic"):
            ExecutionPolicy(backend="deferred").execute(rt)

    def test_invalid_mode(self):
        assert DTDRuntime().execution == "deferred"
        for mode in ("bogus", "immediate"):
            with pytest.raises(ValueError):
                DTDRuntime(execution=mode)

    def test_validate_passes_for_wellformed_graph(self):
        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("a")
        for _ in range(5):
            rt.insert_task(None, [(h, AccessMode.RW)])
        rt.validate()

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(list(AccessMode))), min_size=1, max_size=40
        )
    )
    def test_property_graph_always_acyclic_and_ordered(self, ops):
        """Whatever the access pattern, the inferred DAG is acyclic and respects insertion order."""
        rt = DTDRuntime(execution="symbolic")
        handles = [rt.new_handle(f"h{i}") for i in range(4)]
        for idx, mode in ops:
            rt.insert_task(None, [(handles[idx], mode)])
        rt.validate()
        assert rt.graph.is_acyclic()

    @settings(max_examples=20, deadline=None)
    @given(n_chain=st.integers(1, 30))
    def test_property_rw_chain_is_linear(self, n_chain):
        """A chain of RW tasks on the same handle forms a path of n-1 edges."""
        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("a")
        for _ in range(n_chain):
            rt.insert_task(None, [(h, AccessMode.RW)])
        assert rt.graph.num_edges == n_chain - 1

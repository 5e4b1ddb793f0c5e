"""Tests for the shared-memory parallel graph executor."""

import threading

import numpy as np
import pytest

from repro.runtime.dtd import DTDRuntime
from repro.runtime.executor import execute_graph
from repro.runtime.task import AccessMode


def _build_chain_runtime(n, log):
    rt = DTDRuntime(execution="deferred")
    h = rt.new_handle("shared")

    def body(i):
        log.append(i)

    for i in range(n):
        rt.insert_task(body, [(h, AccessMode.RW)], args=(i,), name=f"t{i}")
    return rt


class TestExecutor:
    def test_empty_graph(self):
        rt = DTDRuntime(execution="deferred")
        report = execute_graph(rt.graph, n_workers=2)
        assert report.ok

    def test_chain_executes_in_order(self):
        log = []
        rt = _build_chain_runtime(20, log)
        report = execute_graph(rt.graph, n_workers=4)
        assert report.ok
        assert log == list(range(20))

    def test_independent_tasks_all_execute(self):
        rt = DTDRuntime(execution="deferred")
        counter = {"n": 0}
        lock = threading.Lock()

        def body():
            with lock:
                counter["n"] += 1

        for i in range(30):
            h = rt.new_handle(f"h{i}")
            rt.insert_task(body, [(h, AccessMode.RW)])
        report = execute_graph(rt.graph, n_workers=8)
        assert report.ok
        assert counter["n"] == 30

    def test_dependencies_respected(self):
        """Each consumer must observe its producer's side effect."""
        rt = DTDRuntime(execution="deferred")
        values = {}
        handles = [rt.new_handle(f"h{i}") for i in range(8)]

        def produce(i):
            values[i] = i * 10

        def consume(i):
            assert values[i] == i * 10
            values[f"c{i}"] = True

        for i in range(8):
            rt.insert_task(produce, [(handles[i], AccessMode.WRITE)], args=(i,))
        for i in range(8):
            rt.insert_task(consume, [(handles[i], AccessMode.READ)], args=(i,))
        report = execute_graph(rt.graph, n_workers=4)
        assert report.ok
        assert all(values[f"c{i}"] for i in range(8))

    def test_error_propagates(self):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")

        def boom():
            raise RuntimeError("task failure")

        rt.insert_task(boom, [(h, AccessMode.RW)])
        with pytest.raises(RuntimeError, match="task failure"):
            execute_graph(rt.graph, n_workers=2)

    def test_symbolic_tasks_are_noops(self):
        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("h")
        for _ in range(5):
            rt.insert_task(None, [(h, AccessMode.RW)])
        report = execute_graph(rt.graph, n_workers=2)
        assert report.ok

    def test_wall_time_recorded(self, rng):
        log = []
        rt = _build_chain_runtime(5, log)
        report = execute_graph(rt.graph, n_workers=2)
        assert report.wall_time > 0.0

    def test_numerical_result_matches_sequential(self, rng):
        """A small task-parallel matrix pipeline gives the sequential answer."""
        a = rng.standard_normal((40, 40))
        a = a @ a.T + 40 * np.eye(40)
        results = {}

        rt = DTDRuntime(execution="deferred")
        h_a = rt.new_handle("A")
        h_l = rt.new_handle("L")

        def chol():
            results["L"] = np.linalg.cholesky(a)

        def check():
            results["err"] = np.linalg.norm(results["L"] @ results["L"].T - a)

        rt.insert_task(chol, [(h_a, AccessMode.READ), (h_l, AccessMode.WRITE)])
        rt.insert_task(check, [(h_l, AccessMode.READ)])
        report = execute_graph(rt.graph, n_workers=2)
        assert report.ok
        assert results["err"] < 1e-10


class TestErrorPath:
    """Regression tests for deterministic cancellation on task failure."""

    def test_queued_successors_are_cancelled_not_run(self):
        """A mid-graph failure must prevent every not-yet-started task from
        running, and the report must account for all tasks exactly once."""
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")
        log = []

        def ok(i):
            log.append(i)

        def boom(i):
            raise RuntimeError("mid-graph failure")

        rt.insert_task(ok, [(h, AccessMode.RW)], args=(0,), name="t0")
        rt.insert_task(boom, [(h, AccessMode.RW)], args=(1,), name="t1")
        rt.insert_task(ok, [(h, AccessMode.RW)], args=(2,), name="t2")
        rt.insert_task(ok, [(h, AccessMode.RW)], args=(3,), name="t3")

        report = execute_graph(rt.graph, n_workers=4, raise_on_error=False)
        assert not report.ok
        assert log == [0]
        assert report.executed == [0]
        assert set(report.errors) == {1}
        assert sorted(report.cancelled) == [2, 3]

    def test_no_new_submissions_after_error(self):
        """With many independent ready tasks queued behind a failing one, none
        of the queued tasks may start once the failure is observed."""
        rt = DTDRuntime(execution="deferred")
        lock = threading.Lock()
        ran = []

        h_fail = rt.new_handle("fail")

        def boom():
            raise ValueError("early failure")

        def body(i):
            with lock:
                ran.append(i)

        rt.insert_task(boom, [(h_fail, AccessMode.RW)], name="boom")
        for i in range(50):
            h = rt.new_handle(f"h{i}")
            rt.insert_task(body, [(h, AccessMode.RW)], args=(i,), name=f"t{i}")

        report = execute_graph(rt.graph, n_workers=1, raise_on_error=False)
        # Single worker: the failing task (inserted first, highest ready rank
        # only by tie-break) runs; nothing queued afterwards may start.
        assert set(report.errors) == {0}
        assert len(report.executed) == len(ran)
        assert len(report.executed) + len(report.cancelled) + len(report.errors) == rt.num_tasks
        # every cancelled task really never ran
        assert set(report.cancelled).isdisjoint(set(ran))

    def test_partition_invariant_under_concurrency(self):
        """executed/errors/cancelled always partition the task set."""
        rt = DTDRuntime(execution="deferred")
        lock = threading.Lock()
        ran = []

        def body(i):
            with lock:
                ran.append(i)

        def boom():
            raise RuntimeError("x")

        for i in range(20):
            h = rt.new_handle(f"a{i}")
            rt.insert_task(body, [(h, AccessMode.RW)], args=(i,))
        hb = rt.new_handle("b")
        rt.insert_task(boom, [(hb, AccessMode.RW)])
        for i in range(20):
            h = rt.new_handle(f"c{i}")
            rt.insert_task(body, [(h, AccessMode.RW)], args=(100 + i,))

        report = execute_graph(rt.graph, n_workers=4, raise_on_error=False)
        tids = {t.tid for t in rt.graph.tasks}
        seen = list(report.executed) + list(report.errors) + list(report.cancelled)
        assert sorted(seen) == sorted(tids)
        assert len(seen) == len(set(seen))
        assert len(ran) == len(report.executed)

    def test_raise_on_error_default(self):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")

        def boom():
            raise KeyError("kaboom")

        rt.insert_task(boom, [(h, AccessMode.RW)])
        with pytest.raises(KeyError):
            execute_graph(rt.graph, n_workers=2)

    def test_timeout_cancels_and_raises(self):
        import time

        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")

        def slow():
            time.sleep(0.5)

        def never():
            raise AssertionError("must not run")

        rt.insert_task(slow, [(h, AccessMode.RW)])
        rt.insert_task(never, [(h, AccessMode.RW)])
        with pytest.raises(TimeoutError) as excinfo:
            execute_graph(rt.graph, n_workers=2, timeout=0.05)
        # the partial report travels on the exception
        assert excinfo.value.execution_report.timed_out

    def test_timeout_report_inspectable_without_raise(self):
        import time

        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")

        def slow():
            time.sleep(0.3)

        rt.insert_task(slow, [(h, AccessMode.RW)])
        rt.insert_task(slow, [(h, AccessMode.RW)])
        report = execute_graph(rt.graph, n_workers=2, timeout=0.05, raise_on_error=False)
        assert report.timed_out
        assert not report.ok
        assert len(report.executed) + len(report.cancelled) + len(report.errors) == 2

    def test_error_report_attached_to_exception(self):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")

        def boom():
            raise RuntimeError("fail")

        rt.insert_task(boom, [(h, AccessMode.RW)])
        rt.insert_task(lambda: None, [(h, AccessMode.RW)])
        with pytest.raises(RuntimeError) as excinfo:
            execute_graph(rt.graph, n_workers=2)
        report = excinfo.value.execution_report
        assert set(report.errors) == {0}
        assert report.cancelled == [1]

    def test_run_parallel_failure_poisons_runtime(self):
        """After a parallel failure neither completed bodies may re-run nor
        may dependents of the failed task run on half-written data: run()
        must refuse outright."""
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")
        counts = {"a": 0}

        def bump():
            counts["a"] += 1

        def boom():
            raise ValueError("fail")

        rt.insert_task(bump, [(h, AccessMode.RW)], name="bump")
        rt.insert_task(boom, [(h, AccessMode.RW)], name="boom")
        rt.insert_task(bump, [(h, AccessMode.RW)], name="dependent")
        with pytest.raises(ValueError):
            rt.run_parallel(n_workers=2)
        assert counts["a"] == 1
        with pytest.raises(RuntimeError, match="failed execution"):
            rt.run()
        with pytest.raises(RuntimeError, match="failed execution"):
            rt.run_parallel(n_workers=2)
        assert counts["a"] == 1

    def test_run_parallel_timeout_allows_sequential_resume(self):
        """A pure timeout is not a failure: started tasks ran to completion,
        so finishing the rest with run() is safe and must be allowed."""
        import time

        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")
        log = []

        rt.insert_task(lambda: (time.sleep(0.3), log.append("slow")), [(h, AccessMode.RW)])
        rt.insert_task(lambda: log.append("rest"), [(h, AccessMode.RW)])
        with pytest.raises(TimeoutError):
            rt.run_parallel(n_workers=2, timeout=0.05)
        rt.run()  # resume sequentially: runs only the remaining task
        assert log == ["slow", "rest"]

    def test_run_parallel_poisoned_even_when_nothing_completed(self):
        """If the very first task fails (zero completions), a retry of
        run_parallel must still be refused — the failed body may have
        half-written shared state."""
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")
        state = {"touched": False}

        def boom():
            state["touched"] = True  # mutate, then die
            raise ValueError("fail after mutation")

        rt.insert_task(boom, [(h, AccessMode.RW)])
        with pytest.raises(ValueError):
            rt.run_parallel(n_workers=2)
        with pytest.raises(RuntimeError, match="failed execution"):
            rt.run_parallel(n_workers=2)


class TestPriorities:
    def test_critical_path_first_with_single_worker(self):
        """The head of the heavier chain must be picked before an independent
        cheap task when both are ready."""
        rt = DTDRuntime(execution="deferred")
        order = []

        def body(tag):
            order.append(tag)

        ha = rt.new_handle("a")
        hb = rt.new_handle("b")
        # Cheap independent task inserted FIRST (would win a FIFO queue).
        rt.insert_task(body, [(hb, AccessMode.RW)], args=("cheap",), flops=1.0)
        # Heavy three-task chain.
        for i in range(3):
            rt.insert_task(body, [(ha, AccessMode.RW)], args=(f"chain{i}",), flops=1e9)

        report = execute_graph(rt.graph, n_workers=1)
        assert report.ok
        assert order[0] == "chain0"
        assert order.index("cheap") > 0

    def test_explicit_priorities_override(self):
        rt = DTDRuntime(execution="deferred")
        order = []

        def body(tag):
            order.append(tag)

        for tag in ("x", "y", "z"):
            h = rt.new_handle(tag)
            rt.insert_task(body, [(h, AccessMode.RW)], args=(tag,))
        tids = [t.tid for t in rt.graph.tasks]
        prio = {tids[0]: 0.0, tids[1]: 5.0, tids[2]: 10.0}
        report = execute_graph(rt.graph, n_workers=1, priorities=prio)
        assert report.ok
        assert order == ["z", "y", "x"]


class TestCallerRuns:
    """The calling thread is worker 0; only n_workers - 1 threads are started."""

    def test_single_worker_runs_inline(self):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")
        seen = []

        def body():
            seen.append((threading.current_thread(), threading.active_count()))

        for _ in range(5):
            rt.insert_task(body, [(h, AccessMode.RW)])
        before = threading.active_count()
        report = execute_graph(rt.graph, n_workers=1, trace=True)
        assert report.ok
        assert threading.active_count() == before
        assert seen == [(threading.current_thread(), before)] * 5
        assert {span.worker for span in report.trace.spans} == {0}

    def test_caller_is_one_of_n_workers(self):
        n_workers = 3
        rt = DTDRuntime(execution="deferred")
        barrier = threading.Barrier(n_workers, timeout=30)
        ran_on = []
        counts = []

        def body():
            barrier.wait()  # every worker, the caller included, holds one task
            ran_on.append(threading.current_thread())
            counts.append(threading.active_count())

        for i in range(n_workers):
            rt.insert_task(body, [(rt.new_handle(f"h{i}"), AccessMode.RW)])
        before = threading.active_count()
        report = execute_graph(rt.graph, n_workers=n_workers, trace=True)
        assert report.ok
        assert threading.current_thread() in ran_on
        assert counts == [before + n_workers - 1] * n_workers
        assert threading.active_count() == before
        assert {span.worker for span in report.trace.spans} == set(range(n_workers))
        assert sorted(report.trace.worker_overhead) == list(range(n_workers))

    def test_deadline_is_checked_at_dispatch(self):
        """One worker, so nobody waits: the deadline is seen before the next task."""
        import time

        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")

        def never():
            raise AssertionError("must not run")

        rt.insert_task(lambda: time.sleep(0.1), [(h, AccessMode.RW)])
        rt.insert_task(never, [(h, AccessMode.RW)])
        report = execute_graph(rt.graph, n_workers=1, timeout=0.02, raise_on_error=False)
        assert report.timed_out and report.executed == [0] and report.cancelled == [1]
        with pytest.raises(TimeoutError) as excinfo:
            execute_graph(rt.graph, n_workers=1, timeout=0.0)
        assert excinfo.value.execution_report.executed == []

    def test_drained_graph_is_not_late(self):
        import time

        rt = DTDRuntime(execution="deferred")
        rt.insert_task(lambda: time.sleep(0.05), [(rt.new_handle("h"), AccessMode.RW)])
        assert execute_graph(rt.graph, n_workers=1, timeout=0.01).ok

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_first_error_on_the_caller_cancels_and_raises(self, n_workers):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")

        def boom():
            raise RuntimeError("fail on worker 0")

        rt.insert_task(boom, [(h, AccessMode.RW)])
        rt.insert_task(lambda: None, [(h, AccessMode.RW)])
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker 0") as excinfo:
            execute_graph(rt.graph, n_workers=n_workers)
        assert excinfo.value.execution_report.cancelled == [1]
        assert threading.active_count() == before

    @pytest.mark.parametrize("raise_on_error", [True, False])
    def test_keyboard_interrupt_in_a_body_always_propagates(self, raise_on_error):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("h")
        log = []

        def interrupted():
            raise KeyboardInterrupt

        rt.insert_task(lambda: log.append("first"), [(h, AccessMode.RW)])
        rt.insert_task(interrupted, [(h, AccessMode.RW)])
        rt.insert_task(lambda: log.append("never"), [(h, AccessMode.RW)])
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt) as excinfo:
            execute_graph(rt.graph, n_workers=2, raise_on_error=raise_on_error)
        report = excinfo.value.execution_report
        assert log == ["first"]
        assert report.executed == [0] and set(report.errors) == {1} and report.cancelled == [2]
        assert threading.active_count() == before  # workers were joined

    def test_interrupt_between_tasks_stops_the_other_workers(self, monkeypatch):
        """An exception out of worker 0's own loop still cancels and joins."""
        rt = DTDRuntime(execution="deferred")
        released = threading.Event()
        for i in range(2):
            # Whichever task the thread takes blocks until worker 0 has
            # dispatched the other one, so worker 0 always gets that far.
            rt.insert_task(
                lambda: released.wait(30), [(rt.new_handle(f"h{i}"), AccessMode.RW)]
            )
        real_task = rt.graph.task

        def task(tid):
            if threading.current_thread() is threading.main_thread():
                released.set()
                raise KeyboardInterrupt
            return real_task(tid)

        monkeypatch.setattr(rt.graph, "task", task)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            execute_graph(rt.graph, n_workers=2)
        assert threading.active_count() == before

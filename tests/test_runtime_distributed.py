"""Tests for the distributed (multi-process) execution backend.

Covers the acceptance criteria of the distributed subsystem: bit-identity of
the distributed factors against the sequential reference for HSS and BLR2
across nodes in {1, 2, 4}, and communication accounting -- the measured
per-strategy message/byte counts must equal the analytic counts implied by
the distribution strategy and the static graph model.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from harness import factorize_graph

from repro.core.blr2_ulv import blr2_ulv_factorize
from repro.core.hss_ulv import hss_ulv_factorize
from repro.distribution.strategies import (
    BlockCyclicDistribution,
    RowCyclicDistribution,
    strategy_by_name,
)
from repro.formats.blr2 import build_blr2
from repro.formats.hss import build_hss
from repro.runtime.data import DataHandle
from repro.runtime.distributed import (
    RemoteTaskError,
    execute_graph_distributed,
    expected_comm,
    plan_transfers,
    resolve_owners,
)
from repro.runtime.dtd import DTDRuntime
from repro.runtime.task import AccessMode

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)

TIMEOUT = 120.0  # generous safety net so a protocol bug cannot hang the suite


@pytest.fixture(scope="module")
def hss(kmat_small):
    return build_hss(kmat_small, leaf_size=32, max_rank=20)


@pytest.fixture(scope="module")
def blr2(kmat_small):
    return build_blr2(kmat_small, leaf_size=32, max_rank=20)


class TestBitIdentity:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_hss_matches_sequential_bitwise(self, hss, rng, nodes):
        seq = hss_ulv_factorize(hss)
        dist, rt = factorize_graph("hss", hss, "distributed", nodes=nodes)
        assert rt.last_distributed_report.ok
        # factor pieces, not just solves: every array must be bit-identical
        assert np.array_equal(dist.root_chol, seq.root_chol)
        assert set(dist.node_factors) == set(seq.node_factors)
        for key, nf in dist.node_factors.items():
            ref = seq.node_factors[key]
            assert np.array_equal(nf.V, ref.V)
            assert np.array_equal(nf.T, ref.T)
            assert np.array_equal(nf.R, ref.R)
            assert np.array_equal(nf.U, ref.U)
            assert np.array_equal(nf.partial.L_rr, ref.partial.L_rr)
            assert np.array_equal(nf.partial.L_sr, ref.partial.L_sr)
            assert np.array_equal(nf.partial.schur_ss, ref.partial.schur_ss)
        b = rng.standard_normal(hss.n)
        assert np.array_equal(dist.solve(b), seq.solve(b))

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_blr2_matches_sequential_bitwise(self, blr2, rng, nodes):
        seq = blr2_ulv_factorize(blr2)
        dist, rt = factorize_graph("blr2", blr2, "distributed", nodes=nodes)
        assert rt.last_distributed_report.ok
        assert np.array_equal(dist.merged_chol, seq.merged_chol)
        assert set(dist.bases) == set(seq.bases)
        for i in dist.bases:
            assert np.array_equal(dist.bases[i], seq.bases[i])
            assert np.array_equal(dist.partials[i].schur_ss, seq.partials[i].schur_ss)
        b = rng.standard_normal(blr2.n)
        assert np.array_equal(dist.solve(b), seq.solve(b))

    def test_block_cyclic_distribution_same_factors(self, hss, rng):
        seq = hss_ulv_factorize(hss)
        dist, rt = factorize_graph(
            "hss", hss, "distributed", nodes=4, distribution=BlockCyclicDistribution(4)
        )
        assert rt.last_distributed_report.ok
        b = rng.standard_normal(hss.n)
        assert np.array_equal(dist.solve(b), seq.solve(b))


class TestCommunicationAccounting:
    @pytest.mark.parametrize("strategy_name", ["row", "block"])
    @pytest.mark.parametrize("nodes", [2, 4])
    def test_measured_matches_analytic(self, hss, strategy_name, nodes):
        strategy = strategy_by_name(strategy_name, nodes, max_level=hss.max_level)
        _, rt = factorize_graph(
            "hss", hss, "distributed", nodes=nodes, distribution=strategy
        )
        report = rt.last_distributed_report
        proc_of = resolve_owners(rt.graph, nodes)
        exp_messages, exp_bytes = expected_comm(rt.graph, proc_of)
        assert report.ledger.num_messages == exp_messages
        assert report.ledger.total_bytes == exp_bytes
        # ... and with the graph's pre-existing communication model
        assert report.ledger.total_bytes == rt.graph.communication_bytes()

    def test_strategies_induce_different_volumes(self, hss):
        """Row- vs block-cyclic placement change the comm volume of one DAG."""
        volumes = {}
        for name in ("row", "block"):
            strategy = strategy_by_name(name, 4, max_level=hss.max_level)
            _, rt = factorize_graph(
                "hss", hss, "distributed", nodes=4, distribution=strategy
            )
            volumes[name] = rt.last_distributed_report.ledger.total_bytes
        assert volumes["row"] != volumes["block"]

    def test_single_node_is_communication_free(self, hss):
        _, rt = factorize_graph("hss", hss, "distributed", nodes=1)
        ledger = rt.last_distributed_report.ledger
        assert ledger.num_messages == 0
        assert ledger.total_bytes == 0

    def test_actual_payload_bytes_recorded_pickle_plane(self, hss):
        _, rt = factorize_graph("hss", hss, "distributed", nodes=2, data_plane="pickle")
        ledger = rt.last_distributed_report.ledger
        # real numerical payloads were serialized, so wire bytes are nonzero
        # and within a small factor of the model (pickle adds framing)
        assert ledger.total_payload_bytes > 0
        assert ledger.total_payload_bytes >= 0.5 * ledger.total_bytes
        # nothing moved through shared memory on the pickle plane
        assert ledger.total_mapped_bytes == 0

    def test_shm_plane_moves_bytes_out_of_the_wire(self, hss):
        _, rt = factorize_graph("hss", hss, "distributed", nodes=2, data_plane="shm")
        report = rt.last_distributed_report
        assert report.data_plane == "shm"
        ledger = report.ledger
        # every message still has a real (descriptor) wire payload ...
        assert ledger.total_payload_bytes > 0
        assert all(e.payload_nbytes > 0 for e in ledger.events)
        # ... but the array bytes moved through shared memory instead
        assert ledger.total_payload_bytes < ledger.total_bytes
        assert ledger.total_mapped_bytes >= 0.5 * ledger.total_bytes
        # a clean run leaves nothing for the parent's sweep
        assert report.segments_swept == 0

    def test_ledger_by_pair_totals(self, hss):
        _, rt = factorize_graph("hss", hss, "distributed", nodes=4)
        ledger = rt.last_distributed_report.ledger
        pair_totals = ledger.by_pair()
        assert sum(m for m, _ in pair_totals.values()) == ledger.num_messages
        assert sum(b for _, b in pair_totals.values()) == ledger.total_bytes
        assert all(src != dst for src, dst in pair_totals)


class TestTransferPlanning:
    def _two_rank_chain(self):
        rt = DTDRuntime(execution="deferred")
        store = {}
        a = rt.new_handle("a", nbytes=80, level=1, row=0, max_level=1).bind_item(store, "a")
        b = rt.new_handle("b", nbytes=40, level=1, row=1, max_level=1).bind_item(store, "b")
        rt.insert_task(lambda: store.__setitem__("a", 1.0), [(a, AccessMode.WRITE)], name="w0")
        rt.insert_task(
            lambda: store.__setitem__("b", store["a"] + 1.0),
            [(a, AccessMode.READ), (b, AccessMode.WRITE)],
            name="w1",
        )
        RowCyclicDistribution(2, max_level=1).assign(rt.handles)
        return rt, store

    def test_plan_counts_cross_edges_only(self):
        rt, _ = self._two_rank_chain()
        proc_of = resolve_owners(rt.graph, 2)
        assert proc_of == {0: 0, 1: 1}
        transfers = plan_transfers(rt.graph, proc_of)
        assert len(transfers) == 1
        assert transfers[0].src == 0 and transfers[0].dst == 1
        assert transfers[0].nbytes == 80  # handle `a` moves, not `b`
        assert expected_comm(rt.graph, proc_of) == (1, 80)

    def test_same_rank_plan_is_empty(self):
        rt, _ = self._two_rank_chain()
        proc_of = {0: 0, 1: 0}
        assert plan_transfers(rt.graph, proc_of) == []
        assert expected_comm(rt.graph, proc_of) == (0, 0)

    def test_execute_transfers_values(self):
        rt, store = self._two_rank_chain()
        report = rt.run_distributed(nodes=2, timeout=TIMEOUT, collect=lambda: dict(store))
        assert report.ok
        assert report.ledger.num_messages == 1
        merged = {}
        for frag in report.fragments:
            merged.update(frag)
        assert merged["b"] == 2.0


class TestGuardsAndErrors:
    def test_symbolic_graph_refused(self):
        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("x", nbytes=8, row=0)
        rt.insert_task(None, [(h, AccessMode.WRITE)])
        with pytest.raises(RuntimeError, match="symbolic"):
            rt.run_distributed(nodes=2, timeout=TIMEOUT)

    def test_partially_executed_graph_refused(self):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("x", nbytes=8, row=0)
        rt.insert_task(lambda: None, [(h, AccessMode.WRITE)])
        rt.run()
        rt.insert_task(lambda: None, [(h, AccessMode.RW)])
        with pytest.raises(RuntimeError, match="already executed"):
            rt.run_distributed(nodes=2, timeout=TIMEOUT)

    def test_task_error_propagates_and_poisons(self):
        rt = DTDRuntime(execution="deferred")
        a = rt.new_handle("a", nbytes=8, level=1, row=0, max_level=1)
        b = rt.new_handle("b", nbytes=8, level=1, row=1, max_level=1)

        def boom():
            raise ValueError("worker failure")

        rt.insert_task(boom, [(a, AccessMode.WRITE)], name="boom")
        rt.insert_task(lambda: None, [(a, AccessMode.READ), (b, AccessMode.WRITE)], name="dep")
        RowCyclicDistribution(2, max_level=1).assign(rt.handles)
        with pytest.raises(RemoteTaskError, match="boom"):
            rt.run_distributed(nodes=2, timeout=TIMEOUT)
        # a failed distributed run cannot be resumed: remote state is gone
        with pytest.raises(RuntimeError, match="failed execution"):
            rt.run_distributed(nodes=2, timeout=TIMEOUT)
        with pytest.raises(RuntimeError, match="failed execution"):
            rt.run()

    def test_error_report_names_task_and_rank(self):
        rt = DTDRuntime(execution="deferred")
        a = rt.new_handle("a", nbytes=8, row=0)

        def boom():
            raise RuntimeError("kaput")

        rt.insert_task(boom, [(a, AccessMode.WRITE)], name="exploder")
        with pytest.raises(RemoteTaskError) as excinfo:
            rt.run_distributed(nodes=1, timeout=TIMEOUT)
        err = excinfo.value
        assert err.task_name == "exploder"
        assert "kaput" in err.exc_repr
        report = err.execution_report
        assert report.errors and not report.ok
        assert 0 not in report.executed
        assert 0 not in report.cancelled  # errored, not cancelled (disjoint sets)

    def test_silently_dying_worker_detected(self):
        """A worker that exits without reporting must not hang the parent."""
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("x", nbytes=8, row=0)
        rt.insert_task(lambda: os._exit(3), [(h, AccessMode.WRITE)], name="vanish")
        with pytest.raises(RemoteTaskError, match="died without reporting"):
            rt.run_distributed(nodes=1, timeout=TIMEOUT)

    def test_empty_graph_is_ok(self):
        rt = DTDRuntime(execution="deferred")
        report = rt.run_distributed(nodes=2, timeout=TIMEOUT)
        assert report.ok
        assert report.executed == []

    def test_invalid_node_count(self):
        rt = DTDRuntime(execution="deferred")
        h = rt.new_handle("x", nbytes=8, row=0)
        rt.insert_task(lambda: None, [(h, AccessMode.WRITE)])
        with pytest.raises(ValueError, match="nodes"):
            execute_graph_distributed(rt.graph, nodes=0)


class TestDataHandleBinding:
    def test_bind_item_roundtrip(self):
        store = {}
        h = DataHandle("x", nbytes=8).bind_item(store, "x")
        assert h.bound
        assert h.get_value() is None
        h.set_value(3.0)
        assert store["x"] == 3.0
        assert h.get_value() == 3.0

    def test_unbound_handle_is_inert(self):
        h = DataHandle("x", nbytes=8)
        assert not h.bound
        assert h.get_value() is None
        h.set_value(1.0)  # no-op, must not raise


class TestSolverFacade:
    def test_distributed_factorize_matches_sequential(self, rng):
        from repro.api import StructuredSolver

        solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=32, max_rank=20)
        ref = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=32, max_rank=20)
        solver.factorize(use_runtime="distributed", nodes=2, distribution="row")
        ref.factorize()
        b = rng.standard_normal(256)
        assert np.array_equal(solver.solve(b), ref.solve(b))

    def test_unknown_distribution_rejected(self):
        from repro.api import StructuredSolver

        solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=32, max_rank=20)
        with pytest.raises(ValueError, match="unknown distribution"):
            solver.factorize(use_runtime="distributed", nodes=2, distribution="spiral")


def _shm_segments() -> set:
    """Names of the block store's shared-memory segments currently on the host."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("rps")}


class TestProcessBackend:
    """``process`` is the rank loop with one rank per worker: same failure paths."""

    @pytest.fixture(scope="class")
    def factor(self, hss):
        return hss_ulv_factorize(hss)

    def _solve_builder(self, factor, b):
        from repro.pipeline.policy import ExecutionPolicy
        from repro.pipeline.solve import HSSULVSolveBuilder

        policy = ExecutionPolicy(backend="process", n_workers=2)
        return HSSULVSolveBuilder(factor, b, policy=policy).record()

    def _assert_fresh_solve_exact(self, factor, rng):
        b = rng.standard_normal(factor.hss.n)
        builder = self._solve_builder(factor, b)
        builder.execute(timeout=TIMEOUT)
        assert builder.runtime.last_distributed_report.ok
        assert np.array_equal(builder.result()[:, 0], factor.solve(b))

    def test_runs_one_rank_per_worker_and_matches_plan(self, factor, rng):
        b = rng.standard_normal(factor.hss.n)
        builder = self._solve_builder(factor, b)
        report = builder.execute(timeout=TIMEOUT)
        assert report.ok and report.nodes == 2
        assert report.ledger.num_messages > 0  # the two ranks really exchanged data
        builder.verify_comm_plan()
        assert np.array_equal(builder.result()[:, 0], factor.solve(b))

    def test_task_error_raises_remote_task_error(self, factor, rng):
        before = _shm_segments()
        builder = self._solve_builder(factor, rng.standard_normal(factor.hss.n))
        tasks = builder.runtime.graph.tasks

        def boom():
            raise ValueError("injected failure")

        tasks[len(tasks) // 2].func = boom
        with pytest.raises(RemoteTaskError, match="injected failure"):
            builder.execute(timeout=TIMEOUT)
        assert _shm_segments() <= before
        self._assert_fresh_solve_exact(factor, rng)

    def test_dead_worker_is_an_error_not_a_hang(self, factor, rng):
        before = _shm_segments()
        builder = self._solve_builder(factor, rng.standard_normal(factor.hss.n))
        tasks = builder.runtime.graph.tasks
        tasks[len(tasks) // 2].func = lambda: os._exit(3)
        with pytest.raises(RemoteTaskError, match="died without reporting"):
            builder.execute(timeout=TIMEOUT)
        assert _shm_segments() <= before
        self._assert_fresh_solve_exact(factor, rng)


_ORPHAN_SCRIPT = """
import os, time
from repro.formats.hss import build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import Yukawa
from repro.pipeline.factorize import HSSULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy

hss = build_hss(KernelMatrix(Yukawa(), uniform_grid_2d(256)), leaf_size=32, max_rank=20)
builder = HSSULVFactorizeBuilder(
    hss, policy=ExecutionPolicy(backend="process", n_workers=2)
).record()

def stall():
    os.write(1, b"%d\\n" % os.getpid())  # one write: the ranks share the pipe
    time.sleep(600)

for task in builder.runtime.graph.tasks:
    task.func = stall
builder.execute()
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")  # a zombie has already exited


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux-only")
def test_ranks_die_with_a_killed_parent():
    """SIGKILL the process running a ``process`` factorize: no rank survives it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT], stdout=subprocess.PIPE, env=env, text=True
    )
    try:
        # every rank announces itself from its first (stalled) task
        pids = {int(proc.stdout.readline()) for _ in range(2)}
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
    finally:
        proc.kill()
        proc.wait(timeout=TIMEOUT)
        proc.stdout.close()
    deadline = time.monotonic() + 5.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if _alive(pid)]
    for pid in survivors:  # never leave a stray rank behind, even on failure
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"ranks {survivors} outlived their killed parent"

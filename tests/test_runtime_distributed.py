"""Tests for the distributed (multi-process) execution backend.

Covers the acceptance criteria of the distributed subsystem: bit-identity of
the distributed factors against the sequential reference for HSS and BLR2
across nodes in {1, 2, 4}, and communication accounting -- the measured
per-strategy message/byte counts must equal the analytic counts implied by
the distribution strategy and the static graph model.
"""

import os

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
        rt = DTDRuntime(execution="immediate")
        h = rt.new_handle("x", nbytes=8, row=0)
        rt.insert_task(lambda: None, [(h, AccessMode.WRITE)])
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

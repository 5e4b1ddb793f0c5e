"""Tests for the machine model and the discrete-event simulator."""

import numpy as np
import pytest

from repro.baselines.strumpack_like import build_strumpack_taskgraph
from repro.baselines.lorapo_like import build_blr_cholesky_taskgraph
from repro.formats.hss import HSSStructure
from repro.pipeline.factorize import build_hss_ulv_taskgraph
from repro.runtime.dtd import DTDRuntime
from repro.runtime.machine import MachineConfig, fugaku_like, laptop_like
from repro.runtime.simulator import simulate
from repro.runtime.task import AccessMode


class TestMachineConfig:
    def test_total_workers(self):
        m = MachineConfig(nodes=4, cores_per_node=12)
        assert m.total_workers == 48

    def test_task_time(self):
        m = MachineConfig(flops_per_core=1e9)
        assert m.task_time(2e9) == pytest.approx(2.0)

    def test_message_time_monotone_in_bytes(self):
        m = MachineConfig()
        assert m.message_time(1e6) > m.message_time(1e3) > 0

    def test_collective_time_grows_with_nodes(self):
        small = MachineConfig(nodes=2)
        big = MachineConfig(nodes=128)
        assert big.collective_time(1e4) > small.collective_time(1e4)

    def test_with_nodes(self):
        m = fugaku_like(2)
        m2 = m.with_nodes(64)
        assert m2.nodes == 64
        assert m2.flops_per_core == m.flops_per_core

    def test_presets(self):
        assert fugaku_like(8).cores_per_node == 48
        assert laptop_like().nodes == 1


def _chain_graph(n, flops=1e9, remote=False, nodes=2):
    rt = DTDRuntime(execution="symbolic")
    handles = [
        rt.new_handle(f"h{i}", nbytes=8 * 1024, owner=(i % nodes if remote else 0), level=0, row=i)
        for i in range(n)
    ]
    prev = None
    for i in range(n):
        acc = [(handles[i], AccessMode.RW)]
        if prev is not None:
            acc.append((handles[i - 1], AccessMode.READ))
        rt.insert_task(None, acc, name=f"t{i}", kind="X", flops=flops, phase=i)
        prev = i
    return rt.graph


class TestStrategyPlacement:
    """`simulate(distribution=...)`: unowned handles resolve through the strategy."""

    def _unowned_graph(self, n=8):
        rt = DTDRuntime(execution="symbolic")
        handles = [
            rt.new_handle(f"h{i}", nbytes=8 * 1024, level=3, row=i, max_level=3)
            for i in range(n)
        ]
        for i in range(n):
            rt.insert_task(None, [(handles[i], AccessMode.RW)], name=f"t{i}", flops=1e9)
        return rt.graph

    def test_strategy_fallback_matches_explicit_assignment(self):
        from repro.distribution.strategies import RowCyclicDistribution
        from repro.runtime.simulator import _task_process

        graph = self._unowned_graph()
        strategy = RowCyclicDistribution(2, max_level=3)
        fallback = [_task_process(t, 2, strategy) for t in graph.tasks]
        # assigning owners explicitly must give identical placement
        strategy.assign({a.handle for t in graph.tasks for a in t.accesses})
        explicit = [_task_process(t, 2) for t in graph.tasks]
        assert fallback == explicit

    def test_strategy_changes_simulated_makespan(self):
        """tid%nodes round-robin and row-cyclic placement disagree on this graph."""
        from repro.distribution.strategies import RowCyclicDistribution

        rt = DTDRuntime(execution="symbolic")
        # all rows map to process 0 under row-cyclic on 4 nodes at level 0,
        # but spread over all nodes under the legacy tid%nodes fallback
        handles = [
            rt.new_handle(f"h{i}", nbytes=8 * 1024, level=0, row=0, max_level=0, col=i)
            for i in range(8)
        ]
        for i in range(8):
            rt.insert_task(None, [(handles[i], AccessMode.RW)], name=f"t{i}", flops=1e9)
        m = fugaku_like(4, cores_per_node=1)
        legacy = simulate(rt.graph, m, policy="async")
        strategic = simulate(
            rt.graph, m, policy="async", distribution=RowCyclicDistribution(4, max_level=0)
        )
        # row-cyclic serializes everything on one rank -> strictly longer makespan
        assert strategic.makespan > legacy.makespan

    def test_pinned_process_wins_over_strategy(self):
        from repro.distribution.strategies import RowCyclicDistribution
        from repro.runtime.simulator import _task_process

        rt = DTDRuntime(execution="symbolic")
        h = rt.new_handle("h", nbytes=8, level=1, row=1, max_level=1)
        task = rt.insert_task(None, [(h, AccessMode.RW)], process=3)
        assert _task_process(task, 4, RowCyclicDistribution(4, max_level=1)) == 3


class TestSimulator:
    def test_empty_graph(self):
        from repro.runtime.dag import TaskGraph

        res = simulate(TaskGraph(), fugaku_like(2))
        assert res.makespan >= 0.0
        assert res.num_tasks == 0

    def test_chain_serializes(self):
        g = _chain_graph(10, flops=8e9)
        m = fugaku_like(2)
        res = simulate(g, m, policy="async")
        assert res.makespan >= 10 * m.task_time(8e9)

    def test_independent_tasks_parallelize(self):
        rt = DTDRuntime(execution="symbolic")
        for i in range(16):
            h = rt.new_handle(f"h{i}", nbytes=8, owner=i % 2, level=0, row=i)
            rt.insert_task(None, [(h, AccessMode.RW)], flops=8e9, kind="X")
        m = fugaku_like(2)
        res = simulate(rt.graph, m, policy="async")
        # 16 independent 1-second tasks over 96 cores: makespan ~ 1 task time.
        assert res.makespan < 3 * m.task_time(8e9)

    def test_remote_dependencies_cost_more(self):
        local = simulate(_chain_graph(20, remote=False), fugaku_like(2), policy="async")
        remote = simulate(_chain_graph(20, remote=True), fugaku_like(2), policy="async")
        assert remote.makespan > local.makespan
        assert remote.total_communication > 0

    def test_forkjoin_slower_than_async_on_level_graph(self):
        structure = HSSStructure.synthetic(8192, 256, 64)
        g_async = build_hss_ulv_taskgraph(structure, nodes=8).graph
        g_fj = build_strumpack_taskgraph(structure, nodes=8).graph
        m = fugaku_like(8)
        res_async = simulate(g_async, m, policy="async")
        res_fj = simulate(g_fj, m, policy="forkjoin")
        assert res_fj.total_mpi > 0
        assert res_async.total_runtime_overhead > 0

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            simulate(_chain_graph(2), fugaku_like(2), policy="bogus")

    def test_breakdown_fields(self):
        g = _chain_graph(5)
        res = simulate(g, fugaku_like(2), policy="async")
        b = res.breakdown()
        assert set(b) == {"makespan", "compute_task_time", "runtime_overhead", "mpi_time"}
        assert b["makespan"] > 0

    def test_record_workers(self):
        g = _chain_graph(5)
        res = simulate(g, fugaku_like(2), policy="async", record_workers=True)
        assert len(res.per_worker) >= 1

    def test_ptg_mode_has_lower_overhead_than_dtd(self):
        """PTG only instantiates local tasks, so its discovery overhead is smaller."""
        structure = HSSStructure.synthetic(32768, 512, 100)
        g = build_hss_ulv_taskgraph(structure, nodes=16).graph
        m = fugaku_like(16)
        dtd = simulate(g, m, policy="async", dtd_mode="dtd")
        ptg = simulate(g, m, policy="async", dtd_mode="ptg")
        assert ptg.total_runtime_overhead < dtd.total_runtime_overhead
        assert ptg.makespan <= dtd.makespan

    def test_invalid_dtd_mode(self):
        with pytest.raises(ValueError):
            simulate(_chain_graph(2), fugaku_like(2), dtd_mode="bogus")

    def test_dtd_overhead_grows_with_task_count(self):
        m = fugaku_like(4)
        small = simulate(_chain_graph(10, flops=0.0), m, policy="async")
        large = simulate(_chain_graph(200, flops=0.0), m, policy="async")
        assert large.total_runtime_overhead > small.total_runtime_overhead

    def test_more_nodes_reduce_compute_bound_makespan(self):
        structure = HSSStructure.synthetic(16384, 256, 64)
        g2 = build_hss_ulv_taskgraph(structure, nodes=2).graph
        g16 = build_hss_ulv_taskgraph(structure, nodes=16).graph
        t2 = simulate(g2, fugaku_like(2), policy="async").makespan
        t16 = simulate(g16, fugaku_like(16), policy="async").makespan
        assert t16 < t2


class TestPaperShapes:
    """Coarse qualitative checks of the paper's headline performance claims."""

    def test_hss_ulv_flops_linear_blr_quadratic_plus(self):
        hss_flops, blr_flops = [], []
        for n in (8192, 16384, 32768):
            hss_flops.append(
                build_hss_ulv_taskgraph(HSSStructure.synthetic(n, 256, 64), nodes=4).graph.total_flops()
            )
            blr_flops.append(build_blr_cholesky_taskgraph(n, 2048, 256, nodes=4).graph.total_flops())
        hss_ratio = hss_flops[-1] / hss_flops[0]
        blr_ratio = blr_flops[-1] / blr_flops[0]
        assert hss_ratio < 5  # ~linear over 4x N
        assert blr_ratio > 10  # super-quadratic growth over 4x N

    def test_hatrix_beats_lorapo_weak_scaling(self):
        """Claim 1: HSS-ULV beats BLR tile Cholesky under the same runtime."""
        nodes, n = 16, 32768
        m = fugaku_like(nodes)
        hatrix = simulate(
            build_hss_ulv_taskgraph(HSSStructure.synthetic(n, 512, 100), nodes=nodes).graph,
            m,
            policy="async",
        )
        lorapo = simulate(
            build_blr_cholesky_taskgraph(n, 2048, 256, nodes=nodes).graph, m, policy="async"
        )
        assert hatrix.makespan < lorapo.makespan

    def test_hatrix_beats_strumpack_at_scale(self):
        """Claim 2: asynchronous beats fork-join for the same HSS-ULV at scale."""
        nodes, n = 64, 131072
        m = fugaku_like(nodes)
        structure = HSSStructure.synthetic(n, 512, 100)
        hatrix = simulate(build_hss_ulv_taskgraph(structure, nodes=nodes).graph, m, policy="async")
        strumpack = simulate(build_strumpack_taskgraph(structure, nodes=nodes).graph, m, policy="forkjoin")
        assert hatrix.makespan < strumpack.makespan

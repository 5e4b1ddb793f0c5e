"""Tests for the DTD (task-based) HSS-ULV: HATRIX-DTD (Sec. 4.2)."""

import tracemalloc

import numpy as np
import pytest
from harness import factorize_graph, graph_census, recorded_factorize

from repro.api import StructuredSolver
from repro.core.hss_ulv import hss_ulv_factorize
from repro.distribution.strategies import (
    BlockCyclicDistribution,
    RowCyclicDistribution,
)
from repro.formats.hss import HSSStructure, build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import Yukawa


@pytest.fixture(scope="module")
def hss(kmat_small):
    return build_hss(kmat_small, leaf_size=32, max_rank=20)


class TestNumericalEquivalence:
    def test_matches_sequential_reference(self, hss, rng):
        seq = hss_ulv_factorize(hss)
        dtd, _ = factorize_graph("hss", hss, nodes=4)
        b = rng.standard_normal(hss.n)
        np.testing.assert_allclose(dtd.solve(b), seq.solve(b), atol=1e-10)

    def test_solve_recovers_rhs(self, hss, rng):
        factor, _ = factorize_graph("hss", hss, nodes=2)
        b = rng.standard_normal(hss.n)
        x = factor.solve(hss.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-10

    def test_logdet_matches(self, hss):
        seq = hss_ulv_factorize(hss)
        dtd, _ = factorize_graph("hss", hss)
        assert dtd.logdet() == pytest.approx(seq.logdet(), rel=1e-12)

    def test_deferred_execution_same_result(self, hss, rng):
        """Insert all tasks first, execute later -- identical numbers."""
        factor, rt = factorize_graph("hss", hss, "deferred", nodes=2)
        assert rt.execution == "deferred"
        seq = hss_ulv_factorize(hss)
        b = rng.standard_normal(hss.n)
        np.testing.assert_allclose(factor.solve(b), seq.solve(b), atol=1e-10)

    def test_threaded_execution_matches_sequential(self, hss, rng):
        """Deferred graph executed by the thread-pool executor gives the same factors."""
        from repro.runtime.executor import execute_graph

        builder = recorded_factorize(hss, nodes=2)
        report = execute_graph(builder.runtime.graph, n_workers=4)
        factor = builder.result()
        assert report.ok
        seq = hss_ulv_factorize(hss)
        b = rng.standard_normal(hss.n)
        np.testing.assert_allclose(factor.solve(b), seq.solve(b), atol=1e-10)

    def test_parallel_execution_mode(self, hss, rng):
        """Acceptance: execution="parallel" with n_workers >= 4 matches the
        sequential reference to <= 1e-10."""
        seq = hss_ulv_factorize(hss)
        par, rt = factorize_graph("hss", hss, "parallel", n_workers=4)
        b = rng.standard_normal(hss.n)
        assert np.max(np.abs(par.solve(b) - seq.solve(b))) <= 1e-10
        assert rt.execution == "deferred"  # parallel mode records a deferred graph

    def test_parallel_mode_various_worker_counts(self, hss, rng):
        seq = hss_ulv_factorize(hss)
        b = rng.standard_normal(hss.n)
        for n_workers in (1, 2, 8):
            par, _ = factorize_graph("hss", hss, "parallel", n_workers=n_workers)
            np.testing.assert_allclose(par.solve(b), seq.solve(b), atol=1e-10)

    def test_run_parallel_on_deferred_runtime(self, hss, rng):
        """The documented deferred -> run_parallel workflow."""
        builder = recorded_factorize(hss, nodes=2)
        factor, rt = builder.result(), builder.runtime
        report = rt.run_parallel(n_workers=4)
        assert report.ok
        assert report.wall_time > 0
        seq = hss_ulv_factorize(hss)
        b = rng.standard_normal(hss.n)
        np.testing.assert_allclose(factor.solve(b), seq.solve(b), atol=1e-10)


class TestTaskGraph:
    def test_graph_is_acyclic_and_ordered(self, hss):
        _, rt = factorize_graph("hss", hss, nodes=4)
        rt.validate()
        assert rt.graph.is_acyclic()

    def test_task_count(self, hss):
        """2 tasks per node per level + 1 merge per parent + root POTRF."""
        _, rt = factorize_graph("hss", hss)
        levels = hss.max_level
        expected = sum(2 * 2**level + 2 ** (level - 1) for level in range(1, levels + 1)) + 1
        assert rt.num_tasks == expected

    def test_kinds_present(self, hss):
        _, rt = factorize_graph("hss", hss)
        kinds = {t.kind for t in rt.graph.tasks}
        assert {"DIAG_PRODUCT", "PARTIAL_FACTOR", "MERGE", "POTRF"} <= kinds

    def test_merge_depends_on_both_children(self, hss):
        _, rt = factorize_graph("hss", hss)
        graph = rt.graph
        for task in graph.tasks:
            if task.kind == "MERGE":
                preds = graph.predecessors(task.tid)
                pred_kinds = {graph.task(p).kind for p in preds}
                assert "PARTIAL_FACTOR" in pred_kinds
                assert len(preds) >= 2

    def test_phases_increase_towards_root(self, hss):
        _, rt = factorize_graph("hss", hss)
        root = [t for t in rt.graph.tasks if t.kind == "POTRF"][0]
        leaf_tasks = [t for t in rt.graph.tasks if t.kind == "DIAG_PRODUCT" and "[{};".format(hss.max_level) in t.name]
        assert all(root.phase > t.phase for t in leaf_tasks)


@pytest.fixture(scope="module", params=[1024, 1001], ids=lambda n: f"n{n}")
def hss_sized(request):
    """n = 1024 has uniform leaves; n = 1001 is ragged (125 x 7 + 126)."""
    points = uniform_grid_2d(request.param)
    return build_hss(KernelMatrix(Yukawa(), points), leaf_size=128, max_rank=30)


class TestSymbolicGraph:
    @pytest.mark.parametrize("distribution", ["row", "block"])
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_matches_recorded_graph_exactly(self, hss_sized, nodes, distribution):
        """The simulator's graph is the recorded one, task by task and handle by handle."""
        numeric = recorded_factorize(hss_sized, nodes=nodes, distribution=distribution)
        symbolic = recorded_factorize(
            HSSStructure.from_matrix(hss_sized), nodes=nodes, distribution=distribution
        )
        assert symbolic.runtime.execution == "symbolic"
        assert graph_census(symbolic.runtime) == graph_census(numeric.runtime)
        assert symbolic.runtime.graph.num_edges == numeric.runtime.graph.num_edges

    def test_handle_sizes_follow_the_matrix(self, hss_sized):
        """Both recordings read HSSStructure, so tie it to the matrix's own nodes."""
        rt = recorded_factorize(hss_sized).runtime
        for level in range(hss_sized.max_level, -1, -1):
            for i in range(2**level):
                m = hss_sized.block_size(level, i)
                assert rt.handle(f"D[{level};{i}]").nbytes == 8 * m * m
                if level > 0:
                    r = hss_sized.node(level, i).rank
                    assert rt.handle(f"U[{level};{i}]").nbytes == 8 * m * r
                    assert rt.handle(f"SCHUR[{level};{i}]").nbytes == 8 * r * r

    def test_ragged_leaf_sizes_are_kept(self, hss_sized):
        structure = HSSStructure.from_matrix(hss_sized)
        leaves = [structure.block_size(structure.max_level, i) for i in range(2**structure.max_level)]
        assert leaves == [
            hss_sized.node(structure.max_level, i).size for i in range(2**structure.max_level)
        ]
        assert sum(leaves) == hss_sized.n

    def test_symbolic_has_no_payloads(self):
        """Paper scale records bodiless, with no factor stacks, and refuses to run."""
        builder = recorded_factorize(HSSStructure.synthetic(262144, 256, 64), nodes=128)
        rt = builder.runtime
        assert rt.num_tasks == 5116 and len(rt.handles) == 7162
        assert all(t.func is None for t in rt.graph.tasks)
        rt.validate()
        assert builder.factor is None and builder.matrix is None
        assert not builder._diag and not builder._schur
        with pytest.raises(RuntimeError, match="symbolic"):
            builder.execute()
        with pytest.raises(RuntimeError, match="symbolic"):
            builder.result()

    def test_flops_scale_linearly_with_n(self):
        flops = []
        for n in (2048, 4096, 8192):
            structure = HSSStructure.synthetic(n, 128, 30)
            flops.append(recorded_factorize(structure, nodes=4).runtime.graph.total_flops())
        ratio1 = flops[1] / flops[0]
        ratio2 = flops[2] / flops[1]
        assert 1.8 < ratio1 < 2.2
        assert 1.8 < ratio2 < 2.2

    def test_row_cyclic_vs_block_cyclic_ownership(self):
        structure = HSSStructure.synthetic(2048, 128, 30)
        rt_row = recorded_factorize(structure, nodes=4, distribution=RowCyclicDistribution(4)).runtime
        rt_blk = recorded_factorize(structure, nodes=4, distribution=BlockCyclicDistribution(4)).runtime
        owners_row = {h.name: h.owner for h in rt_row.handles}
        owners_blk = {h.name: h.owner for h in rt_blk.handles}
        assert owners_row != owners_blk
        assert set(owners_row.values()) <= {0, 1, 2, 3}


class TestScratchReleased:
    """A runtime-backed factorization keeps no D-block scratch alive.

    Each DIAG_PRODUCT's rotated block and each merged parent block is
    scratch; the runtime the solver keeps for tracing must not hold them.
    """

    @pytest.fixture(scope="class")
    def solver(self):
        return StructuredSolver.from_kernel("yukawa", n=2048, leaf_size=128, max_rank=40)

    @staticmethod
    def _retained(solver, **kwargs) -> int:
        """Bytes allocated by one factorize and still alive after it."""
        solver.factor = solver.factorize_runtime = None
        tracemalloc.start()
        try:
            solver.factorize(force=True, **kwargs)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_parallel_retains_what_off_retains(self, solver):
        off = self._retained(solver)
        parallel = self._retained(solver, use_runtime="parallel", n_workers=2)
        assert solver.factorize_runtime is not None
        assert parallel - off <= 1_000_000

    def test_refactorize_and_distributed_bit_identical(self, solver, rng):
        b = rng.standard_normal(solver.n)
        ref = solver.factorize(force=True).solve(b)
        for kwargs in (
            dict(use_runtime="parallel", n_workers=2),
            dict(use_runtime="parallel", n_workers=2),
            dict(use_runtime="distributed", nodes=2),
        ):
            factor = solver.factorize(force=True, **kwargs)
            np.testing.assert_array_equal(factor.solve(b), ref)

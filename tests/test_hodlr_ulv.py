"""Tests for the HODLR-ULV factorization: the exact HODLR -> HSS conversion,
the sequential reference, the recorded graph against the symbolic one, and
bit-identity of the task-graph backends."""

import os

import numpy as np
import pytest
from harness import factorize_graph, solve_graph

from repro.compress.hodlr import build_hodlr_dtd
from repro.core.hodlr_ulv import hodlr_to_hss, hodlr_ulv_factorize
from repro.formats.hodlr import HODLRMatrix, HODLRNode, build_hodlr
from repro.formats.hss import HSSStructure
from repro.geometry.cluster_tree import build_cluster_tree
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import Yukawa
from repro.lowrank.block import LowRankBlock
from repro.pipeline.factorize import build_hss_ulv_taskgraph
from repro.pipeline.registry import get_format

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)


@pytest.fixture(scope="module")
def hodlr(points_medium):
    kmat = KernelMatrix(Yukawa(), points_medium)
    return build_hodlr(kmat, leaf_size=128, max_rank=40)


@pytest.fixture(scope="module")
def hodlr_factor(hodlr):
    return hodlr_ulv_factorize(hodlr)


def _rhs(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n if k == 1 else (n, k))


def _yukawa_hodlr(n, **kwargs):
    return build_hodlr(KernelMatrix(Yukawa(), uniform_grid_2d(n)), **kwargs)


#: HODLR matrices whose conversion the rank tests check: uniform leaves,
#: saturated leaf ranks (3 ancestors x 24 > 64 rows), tol-driven ranks that
#: differ per node, and ragged leaves (n = 1000: 125 rows each).
RANK_CASES = {
    "uniform": dict(n=1024, leaf_size=128, max_rank=40),
    "saturated": dict(n=512, leaf_size=64, max_rank=24),
    "tol": dict(n=512, leaf_size=64, max_rank=None, tol=1e-6),
    "ragged": dict(n=1000, leaf_size=128, max_rank=40),
}


@pytest.fixture(scope="module", params=sorted(RANK_CASES))
def converted(request):
    hodlr = _yukawa_hodlr(**RANK_CASES[request.param])
    return hodlr, hodlr_to_hss(hodlr)


def _walk(node, level=0, index=0):
    """``(level, index, node)`` of every HODLR node, parents before children."""
    yield level, index, node
    if not node.is_leaf:
        yield from _walk(node.left, level + 1, 2 * index)
        yield from _walk(node.right, level + 1, 2 * index + 1)


def _ancestor_ranks(hodlr):
    """``(level, index) -> sum of the strict ancestors' block ranks``."""
    total = {(0, 0): 0}
    for level, index, node in _walk(hodlr.root):
        if not node.is_leaf:
            for child in (2 * index, 2 * index + 1):
                total[(level + 1, child)] = total[(level, index)] + node.upper.rank
    return total


def _leaf_blocks(hodlr):
    """Boolean mask of the leaf diagonal blocks."""
    mask = np.zeros(hodlr.shape, dtype=bool)
    for _, _, node in _walk(hodlr.root):
        if node.is_leaf:
            mask[node.start : node.stop, node.start : node.stop] = True
    return mask


class TestConversion:
    """``hodlr_to_hss`` writes the same operator in HSS form, with no approximation."""

    def test_off_diagonal_blocks_exact(self, converted):
        hodlr, hss = converted
        off = ~_leaf_blocks(hodlr)
        expected = hodlr.to_dense()[off]
        assert np.linalg.norm(hss.to_dense()[off] - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_diagonal_blocks_are_the_hodlr_blocks(self, converted):
        hodlr, hss = converted
        leaves = [node for _, _, node in _walk(hodlr.root) if node.is_leaf]
        assert len(leaves) == 2**hss.max_level
        for i, leaf in enumerate(leaves):
            d = hss.node(hss.max_level, i).D
            np.testing.assert_array_equal(d, leaf.dense)
            # Referenced, not copied: a snapshot pickles each leaf block once.
            assert np.shares_memory(d, leaf.dense)

    def test_bases_and_transfers_orthonormal(self, converted):
        _, hss = converted
        for (level, _), node in hss.nodes.items():
            if level > 0:
                u = node.U
                assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-13

    def test_ranks_are_ancestor_ranks_capped_by_block_size(self, converted):
        hodlr, hss = converted
        ancestors = _ancestor_ranks(hodlr)
        for level in range(hss.max_level, 0, -1):
            for i in range(2**level):
                expected = min(ancestors[(level, i)], hss.block_size(level, i))
                assert hss.node(level, i).rank == expected

    def test_saturated_leaves_keep_every_row(self):
        hodlr = _yukawa_hodlr(**RANK_CASES["saturated"])
        hss = hodlr_to_hss(hodlr)
        assert hss.max_level >= 3
        assert all(r == 64 for r in hss.level_ranks(hss.max_level))

    def test_deterministic(self, converted):
        hodlr, hss = converted
        again = hodlr_to_hss(hodlr)
        for key, node in hss.nodes.items():
            if key[0] > 0:
                np.testing.assert_array_equal(again.node(*key).U, node.U)
        assert again.couplings.keys() == hss.couplings.keys()
        for key, s in hss.couplings.items():
            np.testing.assert_array_equal(again.couplings[key], s)

    def test_same_cluster_tree(self, converted):
        hodlr, hss = converted
        assert hss.tree is hodlr.tree
        for level, index, node in _walk(hodlr.root):
            assert (hss.node(level, index).start, hss.node(level, index).stop) == (
                node.start, node.stop,
            )


class TestNonSymmetric:
    """A hand-built HODLR whose lower factors are not its upper ones is refused."""

    @staticmethod
    def _skewed(kmat_small):
        hodlr = build_hodlr(kmat_small, leaf_size=64, max_rank=16)
        node = hodlr.root.right
        node.lower = LowRankBlock(node.lower.U.copy(), 2.0 * node.lower.V)
        return hodlr

    def test_conversion_raises(self, kmat_small):
        with pytest.raises(ValueError, match="not symmetric"):
            hodlr_to_hss(self._skewed(kmat_small))

    @pytest.mark.parametrize("path", ("factorize", "factorize_dtd"))
    def test_factorize_raises(self, kmat_small, path):
        spec = get_format("hodlr")
        hodlr = self._skewed(kmat_small)
        with pytest.raises(ValueError, match="not symmetric"):
            if path == "factorize":
                spec.factorize(hodlr)
            else:
                factorize_graph("hodlr", hodlr)

    def test_graph_built_hodlr_passes_the_check(self, kmat_small):
        """The compress graph copies the swapped upper factors, as ``build_hodlr`` does."""
        hodlr, _ = build_hodlr_dtd(kmat_small, leaf_size=64, max_rank=16)
        assert hodlr_to_hss(hodlr).n == hodlr.n


class TestSequentialReference:
    def test_solve_at_machine_precision_vs_hodlr(self, hodlr, hodlr_factor):
        b = _rhs(hodlr.n, 4)
        x = hodlr_factor.solve(b)
        resid = np.linalg.norm(hodlr.matvec(x) - b) / np.linalg.norm(b)
        assert resid < 1e-10  # exact HSS form: direct-solver accuracy

    def test_vector_rhs_shape(self, hodlr_factor):
        b = _rhs(hodlr_factor.hss.n, 1)
        assert hodlr_factor.solve(b).shape == b.shape

    def test_logdet_matches_dense(self, hodlr, hodlr_factor):
        sign, ld = np.linalg.slogdet(hodlr.to_dense())
        assert sign > 0
        assert hodlr_factor.logdet() == pytest.approx(ld, rel=1e-10)


class TestGraph:
    """The HODLR graph is the HSS-ULV graph of the converted matrix."""

    @pytest.mark.parametrize("nodes", (1, 4))
    def test_matches_symbolic_graph(self, hodlr, nodes):
        _, rt = factorize_graph("hodlr", hodlr, nodes=nodes)
        symbolic = build_hss_ulv_taskgraph(
            HSSStructure.from_matrix(hodlr_to_hss(hodlr)), nodes=nodes
        )

        def census(runtime):
            graph = runtime.graph
            tasks = [(t.name, t.kind, t.flops, t.owner_process()) for t in graph.tasks]
            edges = {
                (graph.task(p).name, t.name) for t in graph.tasks for p in graph.predecessors(t.tid)
            }
            return tasks, edges

        assert census(symbolic) == census(rt)
        assert [(h.name, h.owner) for h in symbolic.handles] == [
            (h.name, h.owner) for h in rt.handles
        ]

    def test_factor_flops_equal_the_recorded_tasks(self, hodlr):
        factor, rt = factorize_graph("hodlr", hodlr)
        assert factor.factor_flops() == pytest.approx(rt.graph.total_flops(), rel=1e-12)


def _synthetic_hodlr(n, leaf_size, rank, seed=0):
    """A symmetric, diagonally dominant HODLR with every block of rank ``rank``."""
    rng = np.random.default_rng(seed)
    tree = build_cluster_tree(uniform_grid_2d(n), leaf_size=leaf_size)
    scale = 0.1 / np.sqrt(n * rank)

    def build(cnode):
        if cnode.is_leaf:
            return HODLRNode(cnode.start, cnode.stop, dense=np.eye(cnode.size))
        left, right = cnode.children
        upper = LowRankBlock(
            scale * rng.standard_normal((left.size, rank)),
            scale * rng.standard_normal((right.size, rank)),
        )
        return HODLRNode(
            cnode.start, cnode.stop, upper=upper,
            lower=LowRankBlock(upper.V.copy(), upper.U.copy()),
            left=build(left), right=build(right),
        )

    return HODLRMatrix(build(tree.root), tree)


def test_factor_flops_grow_at_most_quadratically():
    """Deterministic complexity guard: no dense step over all the leaves."""
    sizes = (1024, 2048, 4096, 8192)
    flops = [
        hodlr_ulv_factorize(_synthetic_hodlr(n, leaf_size=128, rank=20)).factor_flops()
        for n in sizes
    ]
    exponent = np.polyfit(np.log(sizes), np.log(flops), 1)[0]
    assert exponent <= 2.0


class TestBitIdentityAcrossBackends:
    """HODLR, k in {1, 4}, every backend bit-identical to the sequential reference."""

    @pytest.mark.parametrize("k", (1, 4))
    @pytest.mark.parametrize("execution", ("deferred", "parallel"))
    def test_factorize_and_solve(self, hodlr, hodlr_factor, execution, k):
        factor, rt = factorize_graph("hodlr", hodlr, execution, n_workers=4)
        assert rt.num_tasks > 0
        b = _rhs(hodlr.n, k)
        np.testing.assert_array_equal(factor.solve(b), hodlr_factor.solve(b))
        x, _ = solve_graph("hodlr", hodlr_factor, b, execution, n_workers=4)
        np.testing.assert_array_equal(x, hodlr_factor.solve(b))

    @needs_fork
    @pytest.mark.parametrize("k", (1, 4))
    @pytest.mark.parametrize("nodes", (2, 4))
    def test_distributed(self, hodlr, hodlr_factor, nodes, k):
        factor, rt = factorize_graph("hodlr", hodlr, "distributed", nodes=nodes)
        assert rt.last_distributed_report is not None
        b = _rhs(hodlr.n, k)
        np.testing.assert_array_equal(factor.solve(b), hodlr_factor.solve(b))
        x, _ = solve_graph("hodlr", hodlr_factor, b, "distributed", nodes=nodes)
        np.testing.assert_array_equal(x, hodlr_factor.solve(b))

    def test_panels_and_refine(self, hodlr, hodlr_factor):
        b = _rhs(hodlr.n, 8)
        ref = hodlr_factor.solve(b)
        x, _ = solve_graph("hodlr", hodlr_factor, b, "parallel", panel_size=3)
        np.testing.assert_allclose(x, ref, atol=1e-10)
        xr, _ = solve_graph("hodlr", hodlr_factor, b, "deferred", refine=True)
        resid = np.linalg.norm(hodlr.matvec(xr) - b) / np.linalg.norm(b)
        assert resid < 1e-10

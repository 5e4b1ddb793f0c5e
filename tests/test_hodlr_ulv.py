"""Tests for the HODLR-ULV factorization: the truncated HODLR -> HSS
conversion against the exact one (``harness.exact_hodlr_to_hss``), the
sequential reference, the recorded graph against the symbolic one, and
bit-identity of the task-graph backends."""

import os

import numpy as np
import pytest
from harness import (
    exact_hodlr_to_hss, factorize_graph, graph_census, recorded_factorize, solve_graph,
)

from repro.compress.hodlr import build_hodlr_dtd
from repro.core.hodlr_ulv import hodlr_to_hss, hodlr_ulv_factorize
from repro.core.hss_ulv import hss_ulv_factorize
from repro.formats.hodlr import HODLRMatrix, HODLRNode, build_hodlr
from repro.formats.hss import HSSStructure, build_hss
from repro.geometry.cluster_tree import build_cluster_tree
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import Yukawa, kernel_by_name
from repro.lowrank.block import LowRankBlock
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
def rank_case(request):
    return _yukawa_hodlr(**RANK_CASES[request.param])


@pytest.fixture(scope="module")
def converted(rank_case):
    """A HODLR matrix and its exact HSS form (the reference conversion)."""
    return rank_case, exact_hodlr_to_hss(rank_case)


#: Both conversions: the library's truncated one and the exact reference.
CONVERSIONS = {"truncated": hodlr_to_hss, "exact": exact_hodlr_to_hss}


@pytest.fixture(scope="module", params=sorted(CONVERSIONS))
def any_form(request, rank_case):
    """A HODLR matrix, its HSS form by either conversion, and the conversion."""
    convert = CONVERSIONS[request.param]
    return rank_case, convert(rank_case), convert


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
    """Both conversions give a valid HSS form on the HODLR's tree; the exact
    reference writes the same operator, with no approximation."""

    def test_off_diagonal_blocks_exact(self, converted):
        hodlr, hss = converted
        off = ~_leaf_blocks(hodlr)
        expected = hodlr.to_dense()[off]
        assert np.linalg.norm(hss.to_dense()[off] - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_diagonal_blocks_are_the_hodlr_blocks(self, any_form):
        hodlr, hss, _ = any_form
        leaves = [node for _, _, node in _walk(hodlr.root) if node.is_leaf]
        assert len(leaves) == 2**hss.max_level
        for i, leaf in enumerate(leaves):
            d = hss.node(hss.max_level, i).D
            np.testing.assert_array_equal(d, leaf.dense)
            # Referenced, not copied: a snapshot pickles each leaf block once.
            assert np.shares_memory(d, leaf.dense)

    def test_bases_and_transfers_orthonormal(self, any_form):
        _, hss, _ = any_form
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
        hss = exact_hodlr_to_hss(hodlr)
        assert hss.max_level >= 3
        assert all(r == 64 for r in hss.level_ranks(hss.max_level))

    def test_deterministic(self, any_form):
        hodlr, hss, convert = any_form
        again = convert(hodlr)
        for key, node in hss.nodes.items():
            if key[0] > 0:
                np.testing.assert_array_equal(again.node(*key).U, node.U)
        assert again.couplings.keys() == hss.couplings.keys()
        for key, s in hss.couplings.items():
            np.testing.assert_array_equal(again.couplings[key], s)

    def test_same_cluster_tree(self, any_form):
        hodlr, hss, _ = any_form
        assert hss.tree is hodlr.tree
        for level, index, node in _walk(hodlr.root):
            assert (hss.node(level, index).start, hss.node(level, index).stop) == (
                node.start, node.stop,
            )


#: HODLR builds (n = 1024) whose truncated HSS form must stay at the HODLR's
#: own error: every kernel at a rank cap, tolerance-only ranks, ACA blocks
#: (non-orthogonal far factors), and leaves smaller than the rank cap (the
#: deepest blocks stored at full rank, which set no truncation level).
ERROR_CASES = {
    **{name: dict(kernel=name) for name in ("yukawa", "laplace", "gaussian", "matern")},
    "tol": dict(kernel="yukawa", max_rank=None, tol=1e-6),
    "aca": dict(kernel="yukawa", method="aca"),
    "full_rank_leaves": dict(kernel="yukawa", leaf_size=32),
}


@pytest.fixture(scope="module", params=sorted(ERROR_CASES))
def error_case(request):
    """The dense kernel matrix of an ``ERROR_CASES`` entry and its HODLR."""
    params = dict(ERROR_CASES[request.param])
    kmat = KernelMatrix(kernel_by_name(params.pop("kernel")), uniform_grid_2d(1024))
    hodlr = build_hodlr(kmat, **{"leaf_size": 128, "max_rank": 40, **params})
    return kmat.dense(), hodlr


class TestTruncatedConversion:
    """``hodlr_to_hss`` keeps each basis at the HODLR's own error level."""

    def test_construction_error_is_the_hodlr_error(self, error_case):
        dense, hodlr = error_case
        hss_error = np.linalg.norm(dense - hodlr_to_hss(hodlr).to_dense(), 2)
        assert hss_error <= 1.1 * np.linalg.norm(dense - hodlr.to_dense(), 2)

    def test_residual_against_dense_within_twice_the_exact_form(self, error_case):
        dense, hodlr = error_case
        b = _rhs(hodlr.n, 4)

        def residual(factor):
            return np.linalg.norm(dense @ factor.solve(b) - b) / np.linalg.norm(b)

        exact = residual(hss_ulv_factorize(exact_hodlr_to_hss(hodlr)))
        assert residual(hodlr_ulv_factorize(hodlr)) <= 2 * exact

    def test_ranks_at_most_the_exact_ranks(self, converted):
        hodlr, exact = converted
        hss = hodlr_to_hss(hodlr)
        for key, node in hss.nodes.items():
            if key[0] > 0:
                assert node.rank <= exact.node(*key).rank

    @pytest.mark.parametrize("n", (2048, 4096))
    def test_factor_flops_near_hss(self, n):
        """The HODLR factor costs what the HSS factor of the same kernel costs.

        The exact form's ranks grow with depth (6.1x and 12.5x HSS's flops
        at these sizes); the truncated form's do not.
        """
        kmat = KernelMatrix(Yukawa(), uniform_grid_2d(n))
        hodlr = build_hodlr(kmat, leaf_size=256, max_rank=60)
        hss = build_hss(kmat, leaf_size=256, max_rank=60)
        ratio = hodlr_ulv_factorize(hodlr).factor_flops() / hss_ulv_factorize(hss).factor_flops()
        assert ratio <= 1.5


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


@pytest.fixture(scope="module")
def exact_factor(hodlr):
    return hss_ulv_factorize(exact_hodlr_to_hss(hodlr))


class TestSequentialReference:
    def test_solve_at_machine_precision_vs_hodlr(self, hodlr, exact_factor):
        b = _rhs(hodlr.n, 4)
        x = exact_factor.solve(b)
        resid = np.linalg.norm(hodlr.matvec(x) - b) / np.linalg.norm(b)
        assert resid < 1e-10  # exact HSS form: direct-solver accuracy

    def test_solve_at_machine_precision_vs_hss_form(self, hodlr_factor):
        b = _rhs(hodlr_factor.matrix.n, 4)
        x = hodlr_factor.solve(b)
        resid = np.linalg.norm(hodlr_factor.matrix.matvec(x) - b) / np.linalg.norm(b)
        assert resid < 1e-10

    def test_refinement_operator_is_the_hodlr(self, hodlr, hodlr_factor):
        """Refinement without an explicit operator corrects toward the HODLR."""
        assert hodlr_factor.operator is hodlr
        factor, _ = factorize_graph("hodlr", hodlr, "deferred")
        assert factor.operator is hodlr

    def test_vector_rhs_shape(self, hodlr_factor):
        b = _rhs(hodlr_factor.matrix.n, 1)
        assert hodlr_factor.solve(b).shape == b.shape

    def test_logdet_matches_dense(self, hodlr, exact_factor):
        sign, ld = np.linalg.slogdet(hodlr.to_dense())
        assert sign > 0
        assert exact_factor.logdet() == pytest.approx(ld, rel=1e-10)


@pytest.fixture(scope="module", params=[1024, 1001], ids=lambda n: f"n{n}")
def hodlr_sized(request):
    """n = 1024 has uniform leaves; n = 1001 is ragged."""
    kmat = KernelMatrix(Yukawa(), uniform_grid_2d(request.param))
    return build_hodlr(kmat, leaf_size=128, max_rank=40)


class TestGraph:
    """The HODLR graph is the HSS-ULV graph of the converted matrix."""

    @pytest.mark.parametrize("distribution", ("row", "block"))
    @pytest.mark.parametrize("nodes", (1, 4))
    def test_matches_symbolic_graph(self, hodlr_sized, nodes, distribution):
        _, rt = factorize_graph("hodlr", hodlr_sized, nodes=nodes, distribution=distribution)
        symbolic = recorded_factorize(
            HSSStructure.from_matrix(hodlr_to_hss(hodlr_sized)),
            nodes=nodes,
            distribution=distribution,
        )
        assert graph_census(symbolic.runtime) == graph_census(rt)

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
        ).recompress()  # the SVD form every HODLR block is stored in
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

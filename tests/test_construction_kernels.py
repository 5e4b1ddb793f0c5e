"""Unit tests for the per-block construction and merge kernels.

These are the functions that both the sequential builders (``build_hss``,
``build_blr2``, ``hss_ulv_factorize``) and the task bodies of
the construction/factorization graphs call, so each is checked here on its
own: its shape and orthogonality contract, the approximation it promises,
and the RNG order of the proxy draw.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.hss_ulv import merge_children
from repro.formats.blr2 import build_blr2, shared_basis, skeleton_coupling
from repro.formats.hss import (
    HSSNode,
    _proxy_indices,
    check_construction,
    dense_leaf_basis,
    dense_translation,
    draw_proxies,
    interpolative_coupling,
    interpolative_leaf_basis,
    interpolative_translation,
)
from repro.geometry.cluster_tree import build_cluster_tree
from repro.lowrank.qr import row_basis

MAX_RANK = 24
TOL = 1e-8


@pytest.fixture(scope="module")
def tree(kmat_small):
    return build_cluster_tree(kmat_small.points, leaf_size=32)


def _node(cnode, level, index):
    return HSSNode(level=level, index=index, start=cnode.start, stop=cnode.stop)


def _rel_err(approx, exact):
    return np.linalg.norm(approx - exact) / np.linalg.norm(exact)


def _svd_err(a, rank):
    """Relative error of the best rank-``rank`` approximation of ``a``."""
    sigma = np.linalg.svd(a, compute_uv=False)
    return np.sqrt(np.sum(sigma[rank:] ** 2)) / np.linalg.norm(a)


class TestCheckConstruction:
    def test_rejects_a_tree_without_partitioning(self, kmat_small):
        flat = build_cluster_tree(kmat_small.points, leaf_size=kmat_small.n)
        assert flat.max_level == 0
        with pytest.raises(ValueError, match="at least one level"):
            check_construction(flat, "interpolative", 16, None)

    def test_rejects_an_unknown_method(self, tree):
        with pytest.raises(ValueError, match="unknown construction method"):
            check_construction(tree, "randomized", 16, None)

    def test_default_proxy_count(self, tree):
        assert check_construction(tree, "interpolative", 16, None) == 128
        assert check_construction(tree, "interpolative", 100, None) == 200
        assert check_construction(tree, "dense_rows", None, None) == 128

    def test_explicit_proxy_count_is_kept(self, tree):
        assert check_construction(tree, "interpolative", 100, 37) == 37


class TestDrawProxies:
    def test_keys_are_every_non_root_cluster(self, tree):
        proxies = draw_proxies(tree, 64, seed=0)
        expected = {
            (level, i) for level in range(1, tree.max_level + 1) for i in range(2**level)
        }
        assert set(proxies) == expected

    def test_matches_the_sequential_draw_order(self, tree):
        # Bottom-up by level, ascending within a level, all from one stream.
        proxies = draw_proxies(tree, 64, seed=5)
        rng = np.random.default_rng(5)
        for level in range(tree.max_level, 0, -1):
            for i, cnode in enumerate(tree.level_nodes(level)):
                ref = _proxy_indices(cnode.start, cnode.stop, tree.n, 64, rng)
                np.testing.assert_array_equal(proxies[(level, i)], ref)

    def test_proxies_lie_outside_their_cluster(self, tree):
        proxies = draw_proxies(tree, 64, seed=1)
        for (level, i), cols in proxies.items():
            cnode = tree.level_nodes(level)[i]
            assert np.all(np.diff(cols) > 0)
            assert np.all((cols < cnode.start) | (cols >= cnode.stop))
            assert cols.min() >= 0 and cols.max() < tree.n
            assert cols.size == min(64, tree.n - (cnode.stop - cnode.start))

    def test_seed_determines_the_draw(self, tree):
        a = draw_proxies(tree, 64, seed=3)
        b = draw_proxies(tree, 64, seed=3)
        c = draw_proxies(tree, 64, seed=4)
        leaf = (tree.max_level, 0)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert not np.array_equal(a[leaf], c[leaf])


def _setdiff1d_proxy_indices(start, stop, n, n_proxy, rng):
    """Reference sampler: materialise the complement, drop the near part by
    ``setdiff1d`` and choose from what is left.  ``_proxy_indices`` must
    reproduce its columns and its RNG stream bit for bit."""
    complement = np.concatenate([np.arange(0, start), np.arange(stop, n)])
    if complement.size <= n_proxy:
        return complement
    n_near = min(n_proxy // 2, complement.size)
    near_left = np.arange(max(0, start - n_near // 2), start)
    near_right = np.arange(stop, min(n, stop + (n_near - near_left.size)))
    near = np.concatenate([near_left, near_right])[:n_near]
    remaining = np.setdiff1d(complement, near, assume_unique=False)
    n_far = n_proxy - near.size
    if remaining.size > n_far:
        far = rng.choice(remaining, size=n_far, replace=False)
    else:
        far = remaining
    return np.sort(np.concatenate([near, far]))


class TestProxySampler:
    @pytest.mark.parametrize(
        "start, stop, n, n_proxy",
        [
            (0, 64, 1024, 128),  # cluster at 0: no left neighbours
            (960, 1024, 1024, 128),  # cluster at n: no right neighbours
            (448, 576, 1024, 128),  # cluster in the middle
            (10, 74, 1024, 128),  # left neighbours cut short by 0
            (900, 1000, 1024, 128),  # right neighbours cut short by n
            (448, 576, 1024, 130),  # odd n_near
            (0, 200, 256, 128),  # complement <= n_proxy
            (50, 121, 200, 128),  # complement = n_proxy + 1: one spare index
            (0, 128, 256, 1),  # no near part
            (5000, 5256, 20_000, 128),  # > 10 000 candidates: Floyd's draw
            (0, 256, 20_000, 200),
            (2**19, 2**19 + 256, 2**20, 128),
            (2**20 - 256, 2**20, 2**20, 128),
        ],
    )
    def test_matches_the_setdiff1d_reference(self, start, stop, n, n_proxy):
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        got = _proxy_indices(start, stop, n, n_proxy, ours)
        want = _setdiff1d_proxy_indices(start, stop, n, n_proxy, ref)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_one_stream_over_every_cluster_matches_the_reference(self):
        # A whole tree's worth of draws from one stream, leaves first.
        n, n_proxy = 12_288, 96
        ours, ref = np.random.default_rng(2), np.random.default_rng(2)
        for size in (96, 192, 384, 768, 1536, 3072, 6144):
            for start in range(0, n, size):
                got = _proxy_indices(start, start + size, n, n_proxy, ours)
                want = _setdiff1d_proxy_indices(start, start + size, n, n_proxy, ref)
                assert np.array_equal(got, want)
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("start", [0, 2**19, 2**20 - 256])
    def test_index_work_does_not_grow_with_n(self, start):
        # At n = 2**20 the complement alone is 8 MB; the sampler must hold
        # O(n_proxy) bytes, whatever the cluster's place.
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            cols = _proxy_indices(start, start + 256, 2**20, 128, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cols.size == 128
        assert peak <= 64 * 1024


class TestInterpolativeSteps:
    @pytest.fixture(scope="class")
    def leaves(self, kmat_small, tree):
        """Leaf nodes and their ``(skeleton, G)`` info at the deepest level."""
        proxies = draw_proxies(tree, 128, seed=0)
        level = tree.max_level
        nodes, info = [], []
        for i, cnode in enumerate(tree.level_nodes(level)):
            node = _node(cnode, level, i)
            info.append(
                interpolative_leaf_basis(kmat_small, node, proxies[(level, i)], MAX_RANK, TOL)
            )
            nodes.append(node)
        return nodes, info, proxies

    def test_leaf_basis_contract(self, leaves):
        nodes, info, _ = leaves
        for node, (skel, g) in zip(nodes, info):
            u = node.U
            assert node.rank == u.shape[1] <= MAX_RANK
            np.testing.assert_allclose(u.T @ u, np.eye(node.rank), atol=1e-10)
            assert skel is node.skeleton
            assert np.all((skel >= node.start) & (skel < node.stop))
            assert g.shape == (node.rank, node.rank)

    def test_leaf_basis_row_weights(self, kmat_small, leaves):
        # U^T A[I, J] ~= G A[skeleton, J] on the far field.
        nodes, info, _ = leaves
        node, (skel, g) = nodes[0], info[0]
        far = np.arange(nodes[2].start, kmat_small.n)
        exact = node.U.T @ kmat_small.block(slice(node.start, node.stop), far)
        assert _rel_err(g @ kmat_small.block(skel, far), exact) < 1e-4

    def test_leaf_coupling_reproduces_the_sibling_block(self, kmat_small, leaves):
        nodes, info, _ = leaves
        ni, nj = nodes[1], nodes[0]
        s = interpolative_coupling(kmat_small, info[1], info[0])
        assert s.shape == (ni.rank, nj.rank)
        exact = kmat_small.block(slice(ni.start, ni.stop), slice(nj.start, nj.stop))
        # Within a small factor of projecting the block onto the same bases.
        projected = ni.U @ (ni.U.T @ exact @ nj.U) @ nj.U.T
        assert _rel_err(ni.U @ s @ nj.U.T, exact) < 3 * _rel_err(projected, exact)

    def test_translation_contract(self, kmat_small, tree, leaves):
        nodes, info, proxies = leaves
        level = tree.max_level - 1
        parent = _node(tree.level_nodes(level)[0], level, 0)
        skel, g = interpolative_translation(
            kmat_small, parent, info[0], info[1], proxies[(level, 0)], MAX_RANK, TOL
        )
        r1, r2 = nodes[0].rank, nodes[1].rank
        assert parent.U.shape == (r1 + r2, parent.rank)
        np.testing.assert_allclose(parent.U.T @ parent.U, np.eye(parent.rank), atol=1e-10)
        assert set(skel) <= set(nodes[0].skeleton) | set(nodes[1].skeleton)
        assert g.shape == (parent.rank, parent.rank)


class TestDenseRowsSteps:
    def test_leaf_basis_is_the_blr2_shared_basis(self, kmat_small, tree):
        cnode = tree.leaves[3]
        node = _node(cnode, tree.max_level, 3)
        u = dense_leaf_basis(kmat_small, node, MAX_RANK, TOL)
        assert node.U is u and node.rank == u.shape[1]
        np.testing.assert_array_equal(u, shared_basis(kmat_small, cnode, MAX_RANK, TOL, "svd")[0])

    def test_translation_returns_an_orthonormal_expanded_basis(self, kmat_small, tree):
        level = tree.max_level
        c1 = _node(tree.level_nodes(level)[0], level, 0)
        c2 = _node(tree.level_nodes(level)[1], level, 1)
        e1 = dense_leaf_basis(kmat_small, c1, MAX_RANK, TOL)
        e2 = dense_leaf_basis(kmat_small, c2, MAX_RANK, TOL)
        parent = _node(tree.level_nodes(level - 1)[0], level - 1, 0)
        e = dense_translation(kmat_small, parent, c1, c2, e1, e2, MAX_RANK, TOL)
        assert parent.U.shape == (c1.rank + c2.rank, parent.rank)
        assert e.shape == (parent.stop - parent.start, parent.rank)
        np.testing.assert_allclose(e.T @ e, np.eye(parent.rank), atol=1e-10)
        # The nested basis captures the parent's off-diagonal block row
        # nearly as well as its best basis of the same rank.
        comp = np.arange(parent.stop, kmat_small.n)
        row = kmat_small.block(slice(parent.start, parent.stop), comp)
        assert _rel_err(e @ (e.T @ row), row) < 3 * _svd_err(row, parent.rank)


class TestBLR2Steps:
    def test_shared_basis_uses_the_whole_far_block_row(self, kmat_small, tree):
        leaf = tree.leaves[2]
        far = np.concatenate([np.arange(0, leaf.start), np.arange(leaf.stop, kmat_small.n)])
        row = kmat_small.block(slice(leaf.start, leaf.stop), far)
        ref = row_basis(row, rank=MAX_RANK, tol=TOL)
        u, projection = shared_basis(kmat_small, leaf, MAX_RANK, TOL, "svd")
        np.testing.assert_array_equal(u, ref)
        # The projection is the basis applied to the columns left of the diagonal.
        assert projection.shape == (u.shape[1], leaf.start)
        np.testing.assert_allclose(projection, u.T @ row[:, : leaf.start], atol=1e-12)

    def test_skeleton_coupling_reproduces_the_block(self, kmat_small, tree):
        li, lj = tree.leaves[5], tree.leaves[1]
        ui, projection = shared_basis(kmat_small, li, MAX_RANK, TOL, "svd")
        uj = shared_basis(kmat_small, lj, MAX_RANK, TOL, "svd")[0]
        s = skeleton_coupling(projection, lj, uj)
        assert s.shape == (ui.shape[1], uj.shape[1])
        exact = kmat_small.block(slice(li.start, li.stop), slice(lj.start, lj.stop))
        # U_i S U_j^T is the block projected onto both shared bases.
        projected = (ui @ ui.T) @ exact @ (uj @ uj.T)
        np.testing.assert_allclose(ui @ s @ uj.T, projected, atol=1e-12)
        assert _rel_err(ui @ s @ uj.T, exact) < 1e-3
        np.testing.assert_allclose(s, ui.T @ exact @ uj, atol=1e-12)


class TestMergeKernels:
    @pytest.mark.parametrize("case", ["siblings", "blr2_rows"])
    def test_merge_children_layout(self, case, kmat_small):
        """Schur complements on the diagonal, ``coupling(i, j)`` at block ``(i, j)``.

        Two HSS siblings (nodes 6 and 7 of a level) and every block row of a
        BLR2 matrix (its root merge).  The blocks are copied, so symmetric
        inputs give a bit-symmetric block.
        """
        if case == "siblings":
            s76 = np.arange(6.0).reshape(3, 2)
            schurs, nodes = [np.full((2, 2), 1.0), np.full((3, 3), 2.0)], range(6, 8)

            def coupling(i, j):
                return s76 if i > j else s76.T

        else:
            system = build_blr2(kmat_small, leaf_size=64, max_rank=MAX_RANK)
            nodes = range(system.nblocks)
            schurs = [2.0 * np.eye(system.rank(i)) for i in nodes]
            coupling = system.coupling
        merged = merge_children(schurs, nodes, coupling)
        offsets = np.cumsum([0] + [s.shape[0] for s in schurs])
        assert merged.shape == (offsets[-1], offsets[-1])
        for a, i in enumerate(nodes):
            for b, j in enumerate(nodes):
                block = merged[offsets[a] : offsets[a + 1], offsets[b] : offsets[b + 1]]
                np.testing.assert_array_equal(block, schurs[a] if a == b else coupling(i, j))
        np.testing.assert_array_equal(merged, merged.T)

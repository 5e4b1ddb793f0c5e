"""Tests for the HSS matrix format (construction, matvec, nested bases)."""

import numpy as np
import pytest

from repro.formats.hss import HSSStructure, build_hss


@pytest.fixture(scope="module", params=["dense_rows", "interpolative"])
def hss(request, kmat_small):
    return build_hss(kmat_small, leaf_size=32, max_rank=20, method=request.param)


class TestConstruction:
    def test_structure(self, hss):
        assert hss.n == 256
        assert hss.max_level == 3
        assert hss.leaf_size == 32
        assert hss.max_rank() <= 20

    def test_leaf_diag_blocks_exact(self, hss, dense_small):
        for i in range(2**hss.max_level):
            node = hss.node(hss.max_level, i)
            np.testing.assert_allclose(node.D, dense_small[node.start : node.stop, node.start : node.stop])

    def test_leaf_bases_orthonormal(self, hss):
        for i in range(2**hss.max_level):
            u = hss.node(hss.max_level, i).U
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)

    def test_transfer_bases_orthonormal(self, hss):
        for level in range(1, hss.max_level):
            for i in range(2**level):
                u = hss.node(level, i).U
                np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)

    def test_expanded_basis_orthonormal(self, hss):
        e = hss.expanded_basis(1, 0)
        np.testing.assert_allclose(e.T @ e, np.eye(e.shape[1]), atol=1e-10)
        assert e.shape[0] == 128

    def test_reconstruction_accuracy(self, hss, dense_small):
        rel = np.linalg.norm(hss.to_dense() - dense_small) / np.linalg.norm(dense_small)
        assert rel < 1e-4

    def test_reconstruction_symmetric(self, hss):
        a = hss.to_dense()
        np.testing.assert_allclose(a, a.T, atol=1e-10)

    def test_matvec_matches_to_dense(self, hss, rng):
        x = rng.standard_normal(hss.n)
        np.testing.assert_allclose(hss.matvec(x), hss.to_dense() @ x, rtol=1e-9, atol=1e-9)

    def test_matvec_multiple_rhs(self, hss, rng):
        x = rng.standard_normal((hss.n, 3))
        y = hss.matvec(x)
        assert y.shape == (hss.n, 3)
        np.testing.assert_allclose(y[:, 1], hss.matvec(x[:, 1]), atol=1e-10)

    def test_memory_less_than_dense(self, hss, dense_small):
        assert hss.memory_bytes() < dense_small.nbytes

    def test_block_size(self, hss):
        assert hss.block_size(hss.max_level, 0) == 32
        c1 = hss.node(hss.max_level, 0).rank
        c2 = hss.node(hss.max_level, 1).rank
        assert hss.block_size(hss.max_level - 1, 0) == c1 + c2

    def test_coupling_shapes(self, hss):
        for level in range(1, hss.max_level + 1):
            for k in range(2 ** (level - 1)):
                s = hss.coupling(level, 2 * k + 1, 2 * k)
                ri = hss.node(level, 2 * k + 1).rank
                rj = hss.node(level, 2 * k).rank
                assert s.shape == (ri, rj)
                np.testing.assert_allclose(hss.coupling(level, 2 * k, 2 * k + 1), s.T)


class TestAccuracyBehaviour:
    def test_rank_improves_accuracy(self, kmat_small, dense_small):
        errors = []
        for rank in (5, 30):
            hss = build_hss(kmat_small, leaf_size=32, max_rank=rank, method="dense_rows")
            errors.append(np.linalg.norm(hss.to_dense() - dense_small) / np.linalg.norm(dense_small))
        assert errors[1] < errors[0]

    def test_tolerance_based_ranks(self, kmat_small):
        hss = build_hss(kmat_small, leaf_size=32, max_rank=32, tol=1e-4, method="dense_rows")
        assert hss.max_rank() <= 32

    def test_all_paper_kernels_build(self, points_small):
        from repro.kernels.assembly import KernelMatrix
        from repro.kernels.greens import PAPER_KERNELS

        for kernel in PAPER_KERNELS.values():
            kmat = KernelMatrix(kernel, points_small)
            hss = build_hss(kmat, leaf_size=64, max_rank=20)
            dense = kmat.dense()
            rel = np.linalg.norm(hss.to_dense() - dense) / np.linalg.norm(dense)
            assert rel < 1e-3

    def test_requires_at_least_two_leaves(self, kmat_small):
        with pytest.raises(ValueError):
            build_hss(kmat_small, leaf_size=1024, max_rank=10)

    def test_unknown_method_raises(self, kmat_small):
        with pytest.raises(ValueError):
            build_hss(kmat_small, leaf_size=64, method="bogus")


class TestHSSStructure:
    def test_from_matrix(self, hss):
        structure = HSSStructure.from_matrix(hss)
        assert structure.n == hss.n
        assert structure.max_level == hss.max_level
        assert structure.rank(hss.max_level, 0) == hss.node(hss.max_level, 0).rank
        assert structure.block_size(hss.max_level, 0) == 32

    def test_synthetic(self):
        s = HSSStructure.synthetic(n=4096, leaf_size=256, rank=50)
        assert s.max_level == 4
        assert sum(1 for level, _ in s.ranks if level == 4) == 16
        assert s.rank(4, 3) == 50
        assert s.block_size(3, 0) == 100
        assert s.block_size(4, 0) == 256

    def test_synthetic_rank_capped_by_leaf(self):
        s = HSSStructure.synthetic(n=1024, leaf_size=64, rank=500)
        assert s.rank(s.max_level, 0) <= 64

    def test_synthetic_invalid_sizes(self):
        with pytest.raises(ValueError):
            HSSStructure.synthetic(n=100, leaf_size=64, rank=10)
        with pytest.raises(ValueError):
            HSSStructure.synthetic(n=63, leaf_size=64, rank=10)


class TestStructureInvariants:
    """Property-style invariants for every HSS construction path.

    Basis orthogonality, rank bounds, skeleton locality and coupling shapes
    must hold for each compression method, on the sequential builder and on
    the task-graph construction subsystem alike.
    """

    MAX_RANK = 20

    def _check(self, hss):
        for (level, index), node in hss.nodes.items():
            if level == 0:
                assert node.U is None and node.rank == 0
                continue
            u = node.U
            assert u is not None and node.rank == u.shape[1]
            assert 1 <= node.rank <= self.MAX_RANK
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
            if node.skeleton is not None:
                # skeleton points are actual points of the cluster
                assert node.skeleton.shape == (node.rank,)
                assert np.all(node.skeleton >= node.start)
                assert np.all(node.skeleton < node.stop)
        for (level, i, j), s in hss.couplings.items():
            assert s.shape == (hss.node(level, i).rank, hss.node(level, j).rank)

    @pytest.mark.parametrize("method", ["dense_rows", "interpolative"])
    def test_sequential_build(self, kmat_small, method):
        self._check(build_hss(kmat_small, leaf_size=32, max_rank=self.MAX_RANK, method=method))

    @pytest.mark.parametrize("method", ["dense_rows", "interpolative"])
    def test_graph_build(self, kmat_small, method):
        from repro.compress import build_hss_dtd
        from repro.pipeline.policy import ExecutionPolicy

        matrix, _ = build_hss_dtd(
            kmat_small, leaf_size=32, max_rank=self.MAX_RANK, method=method,
            policy=ExecutionPolicy(backend="deferred"),
        )
        self._check(matrix)

"""Tests for the HODLR format (the no-shared-bases contrast to HSS)."""

import numpy as np
import pytest

from repro.compress.hodlr import build_hodlr_dtd
from repro.formats.hodlr import build_hodlr
from repro.formats.hss import build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name


@pytest.fixture(scope="module", params=["svd", "rsvd"])
def hodlr(request, kmat_small):
    return build_hodlr(kmat_small, leaf_size=32, max_rank=24, method=request.param)


class TestHODLR:
    def test_structure(self, hodlr):
        assert hodlr.n == 256
        assert hodlr.num_levels() == 3
        assert hodlr.max_rank() <= 24
        assert hodlr.shape == (256, 256)

    def test_reconstruction_accuracy(self, hodlr, dense_small):
        rel = np.linalg.norm(hodlr.to_dense() - dense_small) / np.linalg.norm(dense_small)
        assert rel < 1e-4

    def test_reconstruction_symmetric(self, hodlr):
        a = hodlr.to_dense()
        np.testing.assert_allclose(a, a.T, atol=1e-10)

    def test_matvec_matches_dense(self, hodlr, rng):
        x = rng.standard_normal(hodlr.n)
        np.testing.assert_allclose(hodlr.matvec(x), hodlr.to_dense() @ x, rtol=1e-9, atol=1e-9)

    def test_matvec_multiple_rhs(self, hodlr, rng):
        x = rng.standard_normal((hodlr.n, 2))
        y = hodlr.matvec(x)
        assert y.shape == (hodlr.n, 2)

    def test_memory_accounting(self, hodlr, dense_small):
        assert 0 < hodlr.memory_bytes() < 2 * dense_small.nbytes

    def test_leaf_blocks_exact(self, hodlr, dense_small):
        def check(node):
            if node.is_leaf:
                np.testing.assert_allclose(
                    node.dense, dense_small[node.start : node.stop, node.start : node.stop]
                )
            else:
                check(node.left)
                check(node.right)

        check(hodlr.root)

    def test_rank_improves_accuracy(self, kmat_small, dense_small):
        errs = []
        for rank in (4, 32):
            h = build_hodlr(kmat_small, leaf_size=32, max_rank=rank)
            errs.append(np.linalg.norm(h.to_dense() - dense_small) / np.linalg.norm(dense_small))
        assert errs[1] < errs[0]

    def test_unknown_method(self, kmat_small):
        with pytest.raises(ValueError):
            build_hodlr(kmat_small, leaf_size=64, method="bogus")

    def test_hodlr_stores_more_than_hss_for_same_accuracy(self, kmat_small):
        """The paper's point about nested bases: HSS needs less storage than HODLR
        at comparable rank because the bases are shared across levels."""
        hodlr = build_hodlr(kmat_small, leaf_size=32, max_rank=20)
        hss = build_hss(kmat_small, leaf_size=32, max_rank=20)
        assert hss.memory_bytes() <= hodlr.memory_bytes() * 1.2

    def test_repr(self, hodlr):
        assert "HODLRMatrix" in repr(hodlr)


class TestStructureInvariants:
    """Property-style invariants for every HODLR construction path."""

    MAX_RANK = 24

    def _check(self, hodlr):
        def visit(node):
            if node.is_leaf:
                m = node.stop - node.start
                assert node.dense.shape == (m, m)
                np.testing.assert_allclose(node.dense, node.dense.T, atol=1e-12)
                return
            assert 1 <= node.upper.rank <= self.MAX_RANK
            assert node.lower.rank == node.upper.rank
            # symmetry A_21 = A_12^T holds bitwise on the factors
            np.testing.assert_array_equal(node.lower.U, node.upper.V)
            np.testing.assert_array_equal(node.lower.V, node.upper.U)
            left, right = node.left, node.right
            assert node.upper.shape == (left.stop - left.start, right.stop - right.start)
            visit(left)
            visit(right)

        visit(hodlr.root)

    @pytest.mark.parametrize("method", ["svd", "rsvd", "aca"])
    def test_sequential_build(self, kmat_small, method):
        self._check(build_hodlr(kmat_small, leaf_size=32, max_rank=self.MAX_RANK, method=method))

    @pytest.mark.parametrize("method", ["svd", "rsvd", "aca"])
    def test_graph_build(self, kmat_small, method):
        from repro.compress import build_hodlr_dtd
        from repro.pipeline.policy import ExecutionPolicy

        matrix, _ = build_hodlr_dtd(
            kmat_small, leaf_size=32, max_rank=self.MAX_RANK, method=method,
            policy=ExecutionPolicy(backend="deferred"),
        )
        self._check(matrix)


def _interior_nodes(node):
    if not node.is_leaf:
        yield node
        yield from _interior_nodes(node.left)
        yield from _interior_nodes(node.right)


@pytest.mark.parametrize("build", ["sequential", "graph"])
@pytest.mark.parametrize("method", ["svd", "rsvd", "aca"])
def test_blocks_are_stored_in_svd_form(kmat_small, method, build):
    """Every off-diagonal block is ``U = u diag(s)`` with ``V`` orthonormal,
    whichever method and construction path built it: the HODLR to HSS
    conversion reads its weights off that form."""
    kwargs = dict(leaf_size=32, max_rank=24, method=method)
    if build == "sequential":
        hodlr = build_hodlr(kmat_small, **kwargs)
    else:
        hodlr, _ = build_hodlr_dtd(kmat_small, **kwargs)
    for node in _interior_nodes(hodlr.root):
        block = node.upper
        k = block.rank
        assert k > 0
        assert np.abs(block.V.T @ block.V - np.eye(k)).max() <= 1e-12
        gram = block.U.T @ block.U
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12 * np.abs(gram).max()


def test_aca_error_against_dense_is_no_worse_than_the_crosses():
    """Recompressing ACA's crosses into SVD form keeps its error at n = 1024
    (1.9222e-9 relative in Frobenius norm before recompression)."""
    kmat = KernelMatrix(kernel_by_name("yukawa"), uniform_grid_2d(1024))
    a = kmat.dense()
    hodlr = build_hodlr(kmat, leaf_size=128, max_rank=40, method="aca")
    assert np.linalg.norm(hodlr.to_dense() - a) / np.linalg.norm(a) <= 1.923e-9

"""Tests for the BLR2 (shared bases) matrix format."""

import numpy as np
import pytest

from repro.formats.blr2 import build_blr2


@pytest.fixture(scope="module")
def blr2(kmat_small):
    return build_blr2(kmat_small, leaf_size=64, max_rank=30)


class TestConstruction:
    def test_structure(self, blr2):
        assert blr2.nblocks == 4
        assert blr2.n == 256
        assert len(blr2.bases) == 4
        # couplings stored for the lower triangle only
        assert len(blr2.couplings) == 6

    def test_bases_orthonormal(self, blr2):
        for i in range(blr2.nblocks):
            u = blr2.bases[i]
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)

    def test_rank_capped(self, blr2):
        assert all(blr2.rank(i) <= 30 for i in range(blr2.nblocks))

    def test_coupling_symmetry(self, blr2):
        s01 = blr2.coupling(0, 1)
        s10 = blr2.coupling(1, 0)
        np.testing.assert_allclose(s01, s10.T)

    def test_coupling_missing(self, blr2):
        with pytest.raises(KeyError):
            blr2.coupling(0, 0)

    def test_reconstruction_accuracy(self, blr2, dense_small):
        rel = np.linalg.norm(blr2.to_dense() - dense_small) / np.linalg.norm(dense_small)
        assert rel < 1e-5

    def test_matvec_matches_to_dense(self, blr2, rng):
        x = rng.standard_normal(blr2.n)
        np.testing.assert_allclose(blr2.matvec(x), blr2.to_dense() @ x, rtol=1e-9, atol=1e-9)

    def test_higher_rank_more_accurate(self, kmat_small, dense_small):
        errors = []
        for rank in (5, 40):
            blr2 = build_blr2(kmat_small, leaf_size=64, max_rank=rank)
            errors.append(
                np.linalg.norm(blr2.to_dense() - dense_small) / np.linalg.norm(dense_small)
            )
        assert errors[1] < errors[0]

    def test_memory_less_than_dense(self, blr2, dense_small):
        assert blr2.memory_bytes() < dense_small.nbytes

    def test_rsvd_basis_method(self, kmat_small, dense_small):
        blr2 = build_blr2(kmat_small, leaf_size=64, max_rank=30, basis_method="rsvd")
        rel = np.linalg.norm(blr2.to_dense() - dense_small) / np.linalg.norm(dense_small)
        assert rel < 1e-4

    def test_repr(self, blr2):
        assert "BLR2Matrix" in repr(blr2)


class TestStructureInvariants:
    """Property-style invariants for every BLR2 construction path."""

    MAX_RANK = 30

    def _check(self, blr2):
        for i in range(blr2.nblocks):
            u = blr2.bases[i]
            assert 1 <= u.shape[1] <= self.MAX_RANK
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
            d = blr2.diag[i]
            m = blr2.block_range(i).stop - blr2.block_range(i).start
            assert d.shape == (m, m)
            np.testing.assert_allclose(d, d.T, atol=1e-12)  # SPD kernel block
        for (i, j), s in blr2.couplings.items():
            assert i > j  # lower triangle only; symmetry provides the rest
            assert s.shape == (blr2.rank(i), blr2.rank(j))

    @pytest.mark.parametrize("method", ["svd", "rsvd"])
    def test_sequential_build(self, kmat_small, method):
        self._check(build_blr2(kmat_small, leaf_size=64, max_rank=self.MAX_RANK, basis_method=method))

    @pytest.mark.parametrize("method", ["svd", "rsvd"])
    def test_graph_build(self, kmat_small, method):
        from repro.compress import build_blr2_dtd
        from repro.pipeline.policy import ExecutionPolicy

        matrix, _ = build_blr2_dtd(
            kmat_small, leaf_size=64, max_rank=self.MAX_RANK, method=method,
            policy=ExecutionPolicy(backend="deferred"),
        )
        self._check(matrix)

"""Tests for the single-level BLR2-ULV factorization (Alg. 1)."""

import numpy as np
import pytest

from repro.core.blr2_ulv import blr2_ulv_factorize
from repro.formats.blr2 import build_blr2


@pytest.fixture(scope="module")
def blr2_and_factor(kmat_small):
    blr2 = build_blr2(kmat_small, leaf_size=64, max_rank=30)
    return blr2, blr2_ulv_factorize(blr2)


class TestBLR2ULV:
    def test_solve_recovers_rhs(self, blr2_and_factor, rng):
        blr2, factor = blr2_and_factor
        b = rng.standard_normal(blr2.n)
        x = factor.solve(blr2.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-10

    def test_solve_matches_dense_inverse(self, blr2_and_factor, rng):
        blr2, factor = blr2_and_factor
        b = rng.standard_normal(blr2.n)
        dense = blr2.to_dense()
        np.testing.assert_allclose(factor.solve(b), np.linalg.solve(dense, b), rtol=1e-7, atol=1e-9)

    def test_solve_multiple_rhs(self, blr2_and_factor, rng):
        blr2, factor = blr2_and_factor
        b = rng.standard_normal((blr2.n, 3))
        x = factor.solve(b)
        assert x.shape == b.shape
        np.testing.assert_allclose(x[:, 0], factor.solve(b[:, 0]), atol=1e-10)

    def test_logdet(self, blr2_and_factor):
        blr2, factor = blr2_and_factor
        sign, expected = np.linalg.slogdet(blr2.to_dense())
        assert sign > 0
        assert factor.logdet() == pytest.approx(expected, rel=1e-8)

    def test_merged_factor_lower_triangular(self, blr2_and_factor):
        _, factor = blr2_and_factor
        np.testing.assert_allclose(factor.root_chol, np.tril(factor.root_chol))

    def test_merged_size_equals_total_skeleton(self, blr2_and_factor):
        blr2, factor = blr2_and_factor
        total_rank = sum(blr2.rank(i) for i in range(blr2.nblocks))
        assert factor.root_chol.shape == (total_rank, total_rank)

    def test_one_factored_level(self, blr2_and_factor):
        """A one-level tree: only the leaf level is factored, keyed by its tree level."""
        blr2, factor = blr2_and_factor
        assert list(factor.levels) == [blr2.tree.max_level]
        assert factor.levels[blr2.tree.max_level].num_nodes == blr2.nblocks == 2**blr2.max_level

    def test_bases_square_orthogonal(self, blr2_and_factor):
        blr2, factor = blr2_and_factor
        for i in range(blr2.nblocks):
            u = factor.node_factors[(blr2.max_level, i)].U
            assert u.shape == (64, 64)
            np.testing.assert_allclose(u.T @ u, np.eye(64), atol=1e-10)

    def test_approximates_dense_system(self, blr2_and_factor, dense_small, rng):
        blr2, factor = blr2_and_factor
        b = rng.standard_normal(blr2.n)
        x = factor.solve(b)
        rel = np.linalg.norm(dense_small @ x - b) / np.linalg.norm(b)
        assert rel < 1e-3

    def test_laplace_kernel(self, laplace_kmat, rng):
        blr2 = build_blr2(laplace_kmat, leaf_size=64, max_rank=30)
        factor = blr2_ulv_factorize(blr2)
        b = rng.standard_normal(blr2.n)
        x = factor.solve(blr2.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-9

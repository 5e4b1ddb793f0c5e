"""Tests for SVD / QR-basis / ACA / RSVD / interpolative compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lowrank.aca import aca, compress_aca
from repro.lowrank.interpolative import interpolative_rows
from repro.lowrank.qr import row_basis
from repro.lowrank.rsvd import compress_rsvd, random_range_finder, rsvd
from repro.lowrank.svd import compress_svd, svd_rank, truncated_svd


def smooth_block(m, n, seed=0):
    """A numerically low-rank block (smooth kernel between separated clusters)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (m, 2))
    y = rng.uniform(5, 6, (n, 2))
    d = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    return 1.0 / d


class TestSvdRank:
    def test_rank_cap(self):
        s = np.array([10.0, 5.0, 1.0, 0.1])
        assert svd_rank(s, rank=2) == 2

    def test_tolerance(self):
        s = np.array([10.0, 5.0, 1e-9, 1e-12])
        assert svd_rank(s, tol=1e-8) == 2

    def test_both(self):
        s = np.array([10.0, 5.0, 2.0, 1.0])
        assert svd_rank(s, rank=3, tol=0.3) == 2

    def test_empty(self):
        assert svd_rank(np.array([])) == 0

    def test_no_truncation(self):
        s = np.array([3.0, 2.0, 1.0])
        assert svd_rank(s) == 3


class TestTruncatedSvd:
    def test_exact_reconstruction_full_rank(self):
        a = np.random.default_rng(0).standard_normal((8, 6))
        u, s, vt = truncated_svd(a)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-12)

    def test_rank_truncation_error_bound(self):
        a = smooth_block(40, 30)
        u, s, vt = truncated_svd(a, rank=5)
        full_s = np.linalg.svd(a, compute_uv=False)
        err = np.linalg.norm(a - u @ np.diag(s) @ vt, 2)
        assert err == pytest.approx(full_s[5], rel=1e-6)

    def test_compress_svd_tolerance(self):
        a = smooth_block(50, 40, seed=1)
        lr = compress_svd(a, tol=1e-10)
        rel = np.linalg.norm(lr.to_dense() - a) / np.linalg.norm(a)
        assert rel < 1e-9
        assert lr.rank < min(a.shape)


class TestRowBasis:
    def test_orthonormal_columns(self):
        a = smooth_block(30, 60, seed=2)
        u = row_basis(a, rank=8)
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)

    def test_captures_row_space(self):
        a = smooth_block(30, 60, seed=3)
        u = row_basis(a, tol=1e-12)
        residual = a - u @ (u.T @ a)
        assert np.linalg.norm(residual) / np.linalg.norm(a) < 1e-10

    def test_rsvd_method(self):
        a = smooth_block(20, 40, seed=4)
        u = row_basis(a, rank=6, method="rsvd")
        assert u.shape == (20, 6)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            row_basis(np.ones((3, 3)), method="bogus")

    def test_empty_block(self):
        u = row_basis(np.zeros((5, 0)))
        assert u.shape == (5, 0)


class TestAca:
    def test_compress_aca_accuracy(self):
        a = smooth_block(60, 50, seed=8)
        lr = compress_aca(a, tol=1e-10)
        rel = np.linalg.norm(lr.to_dense() - a) / np.linalg.norm(a)
        assert rel < 1e-7

    def test_aca_max_rank_respected(self):
        a = smooth_block(40, 40, seed=9)
        u, v = aca(lambda i: a[i], lambda j: a[:, j], a.shape, max_rank=3)
        assert u.shape[1] <= 3

    def test_aca_exact_lowrank(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 25))
        lr = compress_aca(a, tol=1e-12)
        np.testing.assert_allclose(lr.to_dense(), a, atol=1e-8)
        assert lr.rank <= 6

    def test_aca_empty(self):
        u, v = aca(lambda i: np.zeros(0), lambda j: np.zeros(5), (5, 0))
        assert u.shape == (5, 0)


class TestRsvd:
    def test_range_finder_orthonormal(self):
        a = smooth_block(40, 35, seed=11)
        q = random_range_finder(a, 8)
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)

    def test_rsvd_close_to_svd(self):
        a = smooth_block(60, 45, seed=12)
        u, s, vt = rsvd(a, 10, n_iter=2, seed=0)
        exact = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s[:5], exact[:5], rtol=1e-6)

    def test_compress_rsvd_accuracy(self):
        a = smooth_block(50, 50, seed=13)
        lr = compress_rsvd(a, 12, n_iter=2)
        rel = np.linalg.norm(lr.to_dense() - a) / np.linalg.norm(a)
        assert rel < 1e-8


class TestInterpolative:
    def test_interpolation_identity_on_selected_rows(self):
        a = smooth_block(30, 25, seed=14)
        sel, p = interpolative_rows(a, rank=6)
        np.testing.assert_allclose(p[sel], np.eye(len(sel)), atol=1e-12)

    def test_reconstruction_accuracy(self):
        a = smooth_block(40, 30, seed=15)
        sel, p = interpolative_rows(a, tol=1e-11)
        np.testing.assert_allclose(p @ a[sel], a, atol=1e-7 * np.linalg.norm(a))

    def test_rank_cap(self):
        a = smooth_block(30, 30, seed=16)
        sel, p = interpolative_rows(a, rank=5)
        assert len(sel) == 5
        assert p.shape == (30, 5)

    def test_zero_rank(self):
        sel, p = interpolative_rows(np.ones((4, 3)), rank=0)
        assert len(sel) == 0
        assert p.shape == (4, 0)

    def test_empty_matrix(self):
        sel, p = interpolative_rows(np.zeros((0, 5)))
        assert len(sel) == 0

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(3, 25), n=st.integers(3, 25), seed=st.integers(0, 50))
    def test_selected_rows_unique_and_valid(self, m, n, seed):
        a = smooth_block(m, n, seed=seed)
        sel, p = interpolative_rows(a, rank=min(m, n, 4))
        assert len(set(sel.tolist())) == len(sel)
        assert np.all(sel < m)
        assert p.shape[0] == m

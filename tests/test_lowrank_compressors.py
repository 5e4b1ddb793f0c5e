"""Tests for SVD / QR-basis / ACA / RSVD / interpolative compression."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lowrank.aca import aca, compress_aca
from repro.lowrank.interpolative import interpolative_rows
from repro.lowrank.qr import row_basis
from repro.lowrank.rsvd import (
    GaussianSketches,
    compress_rsvd,
    random_range_finder,
    rsvd,
    rsvd_basis,
    thin_qr,
)
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


def _decaying(m, n, seed):
    """A dense ``m x n`` matrix with singular values from 1 down to 1e-14."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (u * np.logspace(0, -14, k)) @ v.T


#: Tall (the power-iteration blocks), square, wide and zero-column inputs.
QR_SHAPES = [(1792, 70), (256, 70), (70, 70), (70, 256), (9, 4), (4, 9), (7, 0), (0, 5)]
#: The same values as a C-ordered array, an F-ordered one and two transposed views.
QR_LAYOUTS = {
    "C": lambda a: np.ascontiguousarray(a),
    "F": lambda a: np.asfortranarray(a),
    "T_of_C": lambda a: np.ascontiguousarray(a.T).T,
    "T_of_F": lambda a: np.asfortranarray(a.T).T,
}


class TestThinQR:
    @pytest.mark.parametrize("layout", list(QR_LAYOUTS))
    @pytest.mark.parametrize("decay", [False, True], ids=["full", "decaying"])
    @pytest.mark.parametrize("shape", QR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_bit_identical_to_numpy(self, shape, decay, layout):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        if decay and min(shape):
            a = _decaying(*shape, seed=sum(shape))
        a = QR_LAYOUTS[layout](a)
        q_ref, r_ref = np.linalg.qr(a)
        q, r = thin_qr(a)
        assert q.shape == q_ref.shape and r.shape == r_ref.shape
        assert np.array_equal(q, q_ref)
        assert np.array_equal(r, r_ref)
        r_only = thin_qr(a, mode="r")
        assert r_only.shape == r_ref.shape and np.array_equal(r_only, np.linalg.qr(a, mode="r"))

    def test_input_left_untouched(self):
        a = np.asfortranarray(smooth_block(40, 12, seed=1))
        before = a.copy()
        thin_qr(a)
        assert np.array_equal(a, before)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="'reduced' or 'r'"):
            thin_qr(np.ones((3, 2)), mode="complete")


class TestGaussianSketches:
    def test_one_draw_per_width_size_and_seed(self):
        sketches = GaussianSketches()
        omega = sketches.get(50, 7, 3)
        assert sketches.get(50, 7, 3) is omega
        assert np.array_equal(omega, np.random.default_rng(3).standard_normal((50, 7)))
        assert sketches.get(50, 7, 4) is not omega
        sketches.clear()
        assert sketches.get(50, 7, 3) is not omega

    def test_threads_share_one_draw_per_key(self):
        """Racing threads get one array per key: no draw is lost or repeated."""
        sketches = GaussianSketches()
        keys = [(64, 5, seed) for seed in range(4)]
        seen = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=10)
            seen.append([id(sketches.get(*key)) for key in keys])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 and all(ids == seen[0] for ids in seen)

    def test_shared_sketch_changes_no_bits(self):
        sketches = GaussianSketches()
        for seed in (0, 1):
            a = smooth_block(30, 45, seed=seed)
            alone = rsvd(a, 6, seed=2)
            shared = rsvd(a, 6, seed=2, sketches=sketches)
            assert all(np.array_equal(x, y) for x, y in zip(alone, shared))


def _projector(u):
    return u @ u.T


class TestRsvdBasis:
    """The U-only basis has the shapes and the column space of ``rsvd``'s ``U``."""

    CASES = {
        # A far side with no columns: nothing to span.
        "empty_far_side": (np.zeros((5, 0)), dict(rank=3)),
        # rank + oversample exceeds the width: the sketch is the whole row.
        "k_at_width": (smooth_block(20, 6, seed=5), dict(rank=10)),
        # A tolerance and no cap: the rank is the tolerance's.
        "tol_only": (smooth_block(30, 60, seed=6), dict(rank=30, tol=1e-8)),
        # A zero cap keeps nothing.
        "rank_0": (smooth_block(30, 60, seed=7), dict(rank=0)),
        "rank_capped": (smooth_block(40, 90, seed=8), dict(rank=6)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_rsvd_u(self, case):
        a, kwargs = self.CASES[case]
        u_ref = rsvd(a, seed=4, **kwargs)[0]
        u = rsvd_basis(a, seed=4, **kwargs)
        assert u.shape == u_ref.shape
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        np.testing.assert_allclose(_projector(u), _projector(u_ref), atol=1e-8)

    @pytest.mark.parametrize("rank", [None, 0, 6])
    def test_row_basis_shapes_unchanged(self, rank):
        """``row_basis`` maps a missing or zero cap onto the full width, as before."""
        a = smooth_block(20, 40, seed=9)
        u = row_basis(a, rank=rank, tol=1e-10, method="rsvd", seed=1)
        u_ref = rsvd(a, rank or min(a.shape), tol=1e-10, seed=1)[0]
        assert u.shape == u_ref.shape
        assert row_basis(np.zeros((5, 0)), rank=rank, method="rsvd").shape == (5, 0)

"""Tests for kernel-matrix assembly (KernelMatrix)."""

import numpy as np
import pytest

from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix, build_dense, estimate_spd_shift
from repro.kernels.greens import Gaussian, Laplace2D, Matern, Yukawa


class TestKernelMatrix:
    def test_shape(self, kmat_small):
        assert kmat_small.shape == (256, 256)
        assert kmat_small.n == 256

    def test_dense_symmetric(self, dense_small):
        np.testing.assert_allclose(dense_small, dense_small.T, rtol=1e-12)

    def test_dense_spd(self, dense_small):
        eigvals = np.linalg.eigvalsh(dense_small)
        assert eigvals.min() > 0

    def test_laplace_spd_with_auto_shift(self, laplace_kmat):
        eigvals = np.linalg.eigvalsh(laplace_kmat.dense())
        assert eigvals.min() > 0

    def test_block_matches_dense(self, kmat_small, dense_small):
        block = kmat_small.block(slice(10, 30), slice(50, 90))
        np.testing.assert_allclose(block, dense_small[10:30, 50:90], rtol=1e-12)

    def test_block_with_integer_indices(self, kmat_small, dense_small):
        rows = np.array([3, 17, 200])
        cols = np.array([5, 17, 100])
        block = kmat_small.block(rows, cols)
        np.testing.assert_allclose(block, dense_small[np.ix_(rows, cols)], rtol=1e-12)

    def test_diagonal_block_contains_shift(self, kmat_small):
        block = kmat_small.diagonal_block(0, 16)
        assert block[0, 0] > kmat_small.shift  # kernel self term + shift

    def test_matvec_matches_dense(self, kmat_small, dense_small, rng):
        x = rng.standard_normal(256)
        np.testing.assert_allclose(kmat_small.matvec(x), dense_small @ x, rtol=1e-10)

    def test_matvec_block_rows_param(self, kmat_small, dense_small, rng):
        x = rng.standard_normal(256)
        np.testing.assert_allclose(
            kmat_small.matvec(x, block_rows=37), dense_small @ x, rtol=1e-10
        )

    def test_zero_shift(self):
        pts = uniform_grid_2d(64)
        kmat = KernelMatrix(Yukawa(), pts, shift=0.0)
        assert kmat.shift == 0.0
        block = kmat.block(slice(0, 8), slice(0, 8))
        assert block[0, 0] == pytest.approx(Yukawa().value_at_zero())

    def test_explicit_shift(self):
        pts = uniform_grid_2d(64)
        kmat = KernelMatrix(Yukawa(), pts, shift=5.0)
        assert kmat.shift == 5.0

    def test_build_dense_helper(self):
        pts = uniform_grid_2d(32)
        a = build_dense(Yukawa(), pts, shift=1.0)
        assert a.shape == (32, 32)
        np.testing.assert_allclose(a, a.T)


class TestShiftEstimation:
    def test_shift_makes_diagonally_dominant(self):
        pts = uniform_grid_2d(128)
        kernel = Laplace2D()
        shift = estimate_spd_shift(kernel, pts)
        a = kernel.matrix(pts.coords, pts.coords)
        a[np.diag_indices_from(a)] += shift
        offdiag_sums = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
        assert np.all(np.diag(a) >= offdiag_sums * 0.99)

    def test_shift_positive(self):
        pts = uniform_grid_2d(100)
        assert estimate_spd_shift(Yukawa(), pts) > 0

    def test_shift_sampling_consistent(self):
        pts = uniform_grid_2d(400)
        full = estimate_spd_shift(Yukawa(), pts, sample=400)
        sampled = estimate_spd_shift(Yukawa(), pts, sample=128)
        assert sampled == pytest.approx(full, rel=0.25)


def _one_block_shift(kernel, points, sample=256, seed=0):
    """The shift estimate from one ``sample x N`` block of kernel values."""
    n = points.n
    rng = np.random.default_rng(seed)
    rows = np.arange(n) if n <= sample else np.sort(rng.choice(n, size=sample, replace=False))
    block = kernel.matrix(points.coords[rows], points.coords)
    row_sums = np.sum(np.abs(block), axis=1) - np.abs(kernel.value_at_zero())
    return float(1.1 * np.max(row_sums))


class TestShiftEstimationBits:
    @pytest.mark.parametrize("kernel", [Yukawa(), Laplace2D(), Matern(), Gaussian()], ids=repr)
    @pytest.mark.parametrize("n", [200, 225, 256, 4096])
    def test_panels_equal_one_block(self, kernel, n):
        # n <= 256 evaluates every row (225 leaves a one-row last panel);
        # n = 4096 evaluates a seeded sample of 256.
        pts = uniform_grid_2d(n)
        assert estimate_spd_shift(kernel, pts) == _one_block_shift(kernel, pts)
        assert estimate_spd_shift(kernel, pts, seed=3) == _one_block_shift(kernel, pts, seed=3)


class TestBlockShiftBits:
    """The shift lands exactly where the ``r == c`` mask formula puts it."""

    @pytest.fixture(scope="class")
    def kmat(self):
        return KernelMatrix(Laplace2D(), uniform_grid_2d(128), shift=3.25)

    @staticmethod
    def _mask_formula(kmat, rows, cols):
        r, c = kmat._resolve(rows), kmat._resolve(cols)
        block = kmat.kernel.matrix(kmat.points.coords[r], kmat.points.coords[c])
        return block + kmat.shift * (r[:, None] == c[None, :])

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (slice(16, 48), slice(16, 48)),  # diagonal block
            (slice(16, 48), slice(32, 64)),  # overlapping ranges
            (np.array([7, 3, 90, 3, 41]), np.array([3, 41, 0, 3, 8, 7])),  # repeats
            (np.array([5, 1, 9]), slice(0, 12)),
            (slice(0, 32), slice(64, 96)),  # disjoint
            (np.array([], dtype=np.intp), slice(0, 8)),  # empty
        ],
    )
    def test_matches_the_mask_formula(self, kmat, rows, cols):
        got = kmat.block(rows, cols)
        want = self._mask_formula(kmat, rows, cols)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

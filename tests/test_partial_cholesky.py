"""Tests for the partial Cholesky elimination (paper Eq. 10-12)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NotPositiveDefinite
from repro.core.partial_cholesky import cholesky, partial_cholesky
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format


def spd(n, seed=0, shift=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + (shift if shift is not None else n) * np.eye(n)


class TestPartialCholesky:
    def test_full_elimination_matches_cholesky(self):
        a = spd(12, seed=1)
        res = partial_cholesky(a, rank=0)
        np.testing.assert_allclose(res.L_rr, np.linalg.cholesky(a), atol=1e-10)
        assert res.schur_ss.shape == (0, 0)

    def test_no_elimination(self):
        a = spd(8, seed=2)
        res = partial_cholesky(a, rank=8)
        assert res.L_rr.shape == (0, 0)
        np.testing.assert_allclose(res.schur_ss, a)

    def test_factor_reconstruction(self):
        """[L_rr 0; L_sr I] [L_rr^T L_sr^T; 0 S] reproduces the original block."""
        a = spd(16, seed=3)
        rank = 5
        res = partial_cholesky(a, rank)
        nr = 16 - rank
        lower = np.zeros((16, 16))
        lower[:nr, :nr] = res.L_rr
        lower[nr:, :nr] = res.L_sr
        lower[nr:, nr:] = np.eye(rank)
        middle = np.zeros((16, 16))
        middle[:nr, :nr] = np.eye(nr)
        middle[nr:, nr:] = res.schur_ss
        np.testing.assert_allclose(lower @ middle @ lower.T, a, atol=1e-9)

    def test_schur_complement_value(self):
        a = spd(10, seed=4)
        rank = 4
        res = partial_cholesky(a, rank)
        nr = 10 - rank
        expected = a[nr:, nr:] - a[nr:, :nr] @ np.linalg.inv(a[:nr, :nr]) @ a[:nr, nr:]
        np.testing.assert_allclose(res.schur_ss, expected, atol=1e-9)

    def test_schur_is_spd(self):
        a = spd(20, seed=5)
        res = partial_cholesky(a, rank=7)
        eigs = np.linalg.eigvalsh(res.schur_ss)
        assert eigs.min() > 0

    def test_sizes(self):
        a = spd(9, seed=6)
        res = partial_cholesky(a, rank=3)
        assert res.redundant_size == 6
        assert res.skeleton_size == 3
        assert res.L_rr.shape == (6, 6)
        assert res.L_sr.shape == (3, 6)

    def test_rejects_bad_rank(self):
        a = spd(5)
        with pytest.raises(ValueError):
            partial_cholesky(a, rank=-1)
        with pytest.raises(ValueError):
            partial_cholesky(a, rank=6)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            partial_cholesky(np.zeros((3, 4)), rank=1)

    def test_not_spd_raises(self):
        a = -np.eye(6)
        with pytest.raises(np.linalg.LinAlgError):
            partial_cholesky(a, rank=2)

    def test_lrr_lower_triangular(self):
        a = spd(11, seed=7)
        res = partial_cholesky(a, rank=4)
        np.testing.assert_allclose(res.L_rr, np.tril(res.L_rr))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 100), data=st.data())
    def test_property_reconstruction(self, n, seed, data):
        rank = data.draw(st.integers(0, n))
        a = spd(n, seed=seed)
        res = partial_cholesky(a, rank)
        nr = n - rank
        lower = np.zeros((n, n))
        if nr:
            lower[:nr, :nr] = res.L_rr
            lower[nr:, :nr] = res.L_sr
        lower[nr:, nr:] = np.eye(rank)
        middle = np.eye(n)
        middle[nr:, nr:] = res.schur_ss
        np.testing.assert_allclose(lower @ middle @ lower.T, a, atol=1e-7)


class TestNotPositiveDefinite:
    def test_names_the_failing_pivot_after_elimination(self):
        # [[1, 2], [2, 1]]: pivot 0 is 1, pivot 1 is 1 - 2 * 2 = -3
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as err:
            partial_cholesky(a, rank=0, level=3, node=5)
        exc = err.value
        assert isinstance(exc, np.linalg.LinAlgError)
        assert (exc.level, exc.node, exc.index) == (3, 5, 1)
        assert exc.pivot == pytest.approx(-3.0)
        assert "level 3, node 5" in str(exc) and "pivot 1" in str(exc)

    def test_first_pivot_and_unlocated_block(self):
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(np.diag([-2.0, 1.0]))
        exc = err.value
        assert (exc.level, exc.node, exc.index, exc.pivot) == (None, None, 0, -2.0)
        assert "level" not in str(exc)

    def test_pickles_with_its_fields(self):
        exc = pickle.loads(pickle.dumps(NotPositiveDefinite(4, -0.5, 2, 1)))
        assert (exc.index, exc.pivot, exc.level, exc.node) == (4, -0.5, 2, 1)
        assert str(exc) == str(NotPositiveDefinite(4, -0.5, 2, 1))

    @pytest.mark.parametrize("fmt", ["hss", "blr2", "hodlr"])
    def test_shifted_kernel_fails_at_a_named_leaf(self, fmt):
        # Shifting the Matern matrix down by half its diagonal makes it
        # indefinite: the first leaf elimination must fail, typed, on the
        # sequential reference and every in-process graph backend alike.
        kernel = kernel_by_name("matern")
        points = uniform_grid_2d(256)
        diagonal = KernelMatrix(kernel, points).block(np.arange(1), np.arange(1))[0, 0]
        kmat = KernelMatrix(kernel, points, shift=-0.5 * diagonal)
        spec = get_format(fmt)
        matrix = spec.build(kmat, leaf_size=64, max_rank=20)
        with pytest.raises(NotPositiveDefinite) as ref:
            spec.factorize(matrix)
        leaf_level = 2  # 256 points in leaves of 64
        assert ref.value.level == leaf_level and 0 <= ref.value.node < 4
        assert ref.value.pivot <= 0.0
        with pytest.raises(NotPositiveDefinite) as rec:
            spec.factorize_dtd(matrix, policy=ExecutionPolicy(backend="deferred"))
        # in-order replay of the graph fails exactly where the reference does
        assert (rec.value.level, rec.value.node, rec.value.index, rec.value.pivot) == (
            ref.value.level, ref.value.node, ref.value.index, ref.value.pivot
        )
        with pytest.raises(NotPositiveDefinite) as par:
            spec.factorize_dtd(
                matrix, policy=ExecutionPolicy(backend="parallel", n_workers=2)
            )
        assert par.value.level == leaf_level

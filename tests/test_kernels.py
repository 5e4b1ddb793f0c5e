"""Tests for the Green's-function kernels (paper Table 3)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import kv as bessel_kv

from repro.geometry.points import uniform_grid_2d
from repro.kernels.base import pairwise_distance
from repro.kernels.greens import (
    PAPER_KERNELS,
    Exponential,
    Gaussian,
    InverseDistance,
    Laplace2D,
    Matern,
    Yukawa,
    kernel_by_name,
)


class TestPairwiseDistance:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((15, 3))
        y = rng.standard_normal((9, 3))
        d = pairwise_distance(x, y)
        expected = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
        np.testing.assert_allclose(d, expected, atol=1e-10)

    def test_self_distance_zero_diagonal(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 2))
        d = pairwise_distance(x, x)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-7)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 2))
        assert np.all(pairwise_distance(x, x) >= 0)


class TestKernelValues:
    def test_laplace_formula(self):
        k = Laplace2D(eps=1e-9)
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(k.evaluate(r), -np.log(1e-9 + r))

    def test_yukawa_formula(self):
        k = Yukawa(alpha=1.0, theta=1e-9)
        r = np.array([0.5, 1.0])
        expected = np.exp(-(1e-9 + r)) / (1e-9 + r)
        np.testing.assert_allclose(k.evaluate(r), expected)

    def test_matern_half_is_exponential(self):
        """With rho = 1/2 the Matern kernel reduces to exp(-r/mu)."""
        k = Matern(sigma=1.0, mu=0.03, rho=0.5)
        r = np.linspace(0.01, 1.0, 20)
        np.testing.assert_allclose(k.evaluate(r), np.exp(-r / 0.03), rtol=1e-10)

    def test_matern_value_at_zero(self):
        k = Matern(sigma=2.0)
        assert k.evaluate(np.zeros(1))[0] == pytest.approx(4.0)

    def test_gaussian_at_zero(self):
        assert Gaussian(sigma=3.0).value_at_zero() == pytest.approx(9.0)

    def test_exponential_decay(self):
        k = Exponential(length_scale=0.5)
        vals = k.evaluate(np.array([0.0, 0.5, 1.0]))
        assert vals[0] > vals[1] > vals[2] > 0

    def test_inverse_distance(self):
        k = InverseDistance(eps=0.0)
        np.testing.assert_allclose(k.evaluate(np.array([0.5, 2.0])), [2.0, 0.5])

    @pytest.mark.parametrize("name", ["laplace2d", "yukawa", "matern"])
    def test_paper_kernels_monotone_decreasing(self, name):
        """All paper kernels decay with distance on (0, 1]."""
        k = PAPER_KERNELS[name]
        r = np.linspace(0.01, 1.0, 50)
        vals = k.evaluate(r)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("name", ["laplace2d", "yukawa", "matern"])
    def test_paper_kernels_finite(self, name):
        k = PAPER_KERNELS[name]
        r = np.linspace(0.0, 2.0, 100)
        assert np.all(np.isfinite(k.evaluate(r)))

    def test_matrix_shape(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((5, 2)), rng.standard_normal((7, 2))
        assert Yukawa().matrix(x, y).shape == (5, 7)

    def test_matrix_symmetric_on_same_points(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 2))
        for k in PAPER_KERNELS.values():
            m = k.matrix(x, x)
            np.testing.assert_allclose(m, m.T, rtol=1e-12)


class TestRegistry:
    def test_by_name(self):
        assert isinstance(kernel_by_name("laplace2d"), Laplace2D)
        assert isinstance(kernel_by_name("LAPLACE"), Laplace2D)
        assert isinstance(kernel_by_name("yukawa"), Yukawa)
        assert isinstance(kernel_by_name("matern"), Matern)

    def test_by_name_with_params(self):
        k = kernel_by_name("matern", sigma=2.0, mu=0.1)
        assert k.sigma == 2.0
        assert k.mu == 0.1

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            kernel_by_name("nonexistent")

    def test_paper_constants(self):
        """The registry defaults match the constants of Table 3."""
        lap = PAPER_KERNELS["laplace2d"]
        yuk = PAPER_KERNELS["yukawa"]
        mat = PAPER_KERNELS["matern"]
        assert lap.eps == 1e-9
        assert yuk.alpha == 1.0 and yuk.theta == 1e-9
        assert mat.sigma == 1.0 and mat.mu == 0.03 and mat.rho == 0.5


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(min_value=1e-6, max_value=10.0))
    def test_yukawa_positive(self, r):
        assert Yukawa().evaluate(np.array([r]))[0] > 0

    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(min_value=0.0, max_value=10.0))
    def test_matern_bounded_by_sigma_squared(self, r):
        k = Matern(sigma=1.5)
        val = k.evaluate(np.array([r]))[0]
        assert 0 <= val <= 1.5**2 + 1e-9


def _textbook_distance(x, y):
    d2 = np.sum(x * x, axis=1)[:, None] + np.sum(y * y, axis=1)[None, :] - 2.0 * (x @ y.T)
    return np.sqrt(np.maximum(d2, 0.0))


def _textbook_matern(r, sigma=1.0, mu=0.03, rho=0.5):
    scaled = r / mu
    out = np.full(r.shape, sigma**2)
    nz = scaled > 1e-10
    coef = sigma**2 / (2.0 ** (rho - 1.0) * gamma_fn(rho))
    out[nz] = coef * np.power(scaled[nz], rho) * bessel_kv(rho, scaled[nz])
    return out


#: Each registered kernel (default constants) as one plain numpy expression.
TEXTBOOK = {
    "laplace2d": lambda r: -np.log(1e-9 + r),
    "yukawa": lambda r: np.exp(-1.0 * (1e-9 + r)) / (1e-9 + r),
    "matern": _textbook_matern,
    "gaussian": lambda r: 1.0**2 * np.exp(-0.5 * (r / 0.1) ** 2),
    "exponential": lambda r: 1.0**2 * np.exp(-r / 0.1),
    "inverse_distance": lambda r: 1.0 / (1e-9 + r),
}


class TestBitsMatchTheTextbookExpression:
    """In-place evaluation keeps every bit of the plain expression."""

    @pytest.fixture(scope="class")
    def coords(self):
        return uniform_grid_2d(8192).coords

    @pytest.mark.parametrize("name", sorted(TEXTBOOK))
    @pytest.mark.parametrize("m", [0, 1, 256])
    def test_matrix(self, coords, name, m):
        # The first m points are among the columns, so zero distances occur.
        x = coords[:m]
        got = kernel_by_name(name).matrix(x, coords)
        want = TEXTBOOK[name](_textbook_distance(x, coords))
        assert got.shape == (m, coords.shape[0])
        assert np.array_equal(got, want)

    def test_pairwise_distance(self, coords):
        x = coords[100:356]
        assert np.array_equal(pairwise_distance(x, coords), _textbook_distance(x, coords))


def test_import_repro_api_leaves_scipy_special_unloaded():
    """Only ``Matern`` needs ``scipy.special``: its first evaluation loads it, not ``import repro.api``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, repro.api\n"
        "print('scipy.special' in sys.modules)\n"
        "from repro.kernels.greens import Matern\n"
        "Matern().evaluate([0.0, 0.1])\n"
        "print('scipy.special' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "True"]

"""Tests for the GIL-free BLAS/LAPACK wrappers (repro.lowrank.lapack).

They pass raw pointers to scipy's Cython exports, so every check that
guards a pointer is exercised here, in this process.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.lowrank import lapack


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_dsyr2k_updates_one_triangle_in_place(rng):
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    c = rng.standard_normal((5, 5))
    want = np.tril(0.5 * (a @ b.T + b @ a.T) + 2.0 * c)
    out = np.asfortranarray(c)
    lapack.dsyr2k("L", "N", 0.5, np.asfortranarray(a), np.asfortranarray(b), 2.0, out)
    np.testing.assert_allclose(np.tril(out), want, atol=1e-14)
    np.testing.assert_array_equal(np.triu(out, 1), np.triu(c, 1))
    # trans="T" on the column-major transposes of C-ordered (n, k) arrays
    out_t = c.copy()
    lapack.dsyr2k("U", "T", 0.5, a.T, b.T, 2.0, out_t.T)
    np.testing.assert_allclose(np.tril(out_t), want, atol=1e-14)


def test_dsyrk_dtrsm_dpotrf_match_scipy(rng):
    g = rng.standard_normal((6, 6))
    spd = g @ g.T + 6 * np.eye(6)
    chol = np.asfortranarray(spd)
    assert lapack.dpotrf("L", chol) == 0
    np.testing.assert_allclose(np.tril(chol), scipy.linalg.cholesky(spd, lower=True), atol=1e-13)
    rhs = np.asfortranarray(rng.standard_normal((6, 2)))
    want = scipy.linalg.solve_triangular(np.tril(chol), rhs, lower=True)
    lapack.dtrsm("L", "L", "N", chol, rhs)
    np.testing.assert_allclose(rhs, want, atol=1e-13)
    a, c = np.asfortranarray(rng.standard_normal((4, 3))), np.zeros((4, 4), order="F")
    lapack.dsyrk("L", -1.0, a, 0.0, c)
    np.testing.assert_allclose(np.tril(c), np.tril(-a @ a.T), atol=1e-14)


def test_dpotrf_reports_the_failing_minor():
    a = np.asfortranarray(np.diag([1.0, 2.0, -1.0, 4.0]))
    assert lapack.dpotrf("L", a) == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: lapack.dsyrk("L", 1.0, np.zeros((4, 3)), 0.0, np.zeros((4, 4), order="F")),
        lambda: lapack.dpotrf("L", np.zeros((4, 4), dtype=np.float32, order="F")),
        lambda: lapack.dpotrf("L", np.zeros((4, 3), order="F")),
        lambda: lapack.dtrsm("L", "L", "N", np.eye(3, order="F"), np.zeros((4, 2), order="F")),
        lambda: lapack.dsyr2k("L", "N", 1.0, np.zeros((4, 2), order="F"),
                              np.zeros((4, 3), order="F"), 0.0, np.zeros((4, 4), order="F")),
    ],
    ids=["c_ordered", "float32", "not_square", "triangle_mismatch", "shape_mismatch"],
)
def test_a_bad_argument_is_refused_before_the_call(call):
    with pytest.raises(ValueError):
        call()

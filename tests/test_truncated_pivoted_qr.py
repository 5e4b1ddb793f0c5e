"""Tests for the early-stopping column-pivoted QR (repro.lowrank.qr.truncated_pivoted_qr).

It calls LAPACK ``dlaqps`` through a ``ctypes`` pointer, where a wrong
argument crashes the interpreter instead of raising, so every shape below
runs it in this process.
"""

import numpy as np
import pytest
from scipy.linalg.lapack import dgeqp3

from repro.lowrank.qr import PIVOTED_QR_STEP, truncated_pivoted_qr


def _with_spectrum(m, n, spectrum, seed):
    rng = np.random.default_rng(seed)
    k = len(spectrum)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * spectrum) @ v.T


def _dgeqp3_diagonal(a):
    lwork = int(dgeqp3(a, lwork=-1)[3][0])
    qr, _, _, _, info = dgeqp3(np.array(a, order="F"), lwork=lwork)
    assert info == 0
    return np.abs(np.diag(qr))


# Singular values 1 .. 1e-14 with a gap of 100 around each tau, so rounding
# cannot move a |R_jj| across it.
SHAPES = {
    "tall": (300, 120),
    "wide": (90, 400),
    "square": (160, 160),
    "under_one_step": (50, PIVOTED_QR_STEP - 7),
}
TAUS = (1e-2, 1e-7, 1e-11)


def _spectrum(k):
    s = np.logspace(0, -14, k)
    for tau in TAUS:
        s[(s > tau / 10) & (s < tau * 10)] = tau * 10
    return s


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_kept_columns_are_dgeqp3s_above_tau(shape, tau):
    m, n = SHAPES[shape]
    a = _with_spectrum(m, n, _spectrum(min(m, n)), seed=m + n)
    reference = _dgeqp3_diagonal(a)
    kept = int(np.count_nonzero(reference > tau))
    q, r_diag = truncated_pivoted_qr(np.asfortranarray(a), tau)
    assert q.shape == (m, kept) and r_diag.shape == (kept,)
    np.testing.assert_allclose(np.abs(r_diag), reference[:kept], rtol=0, atol=1e-13)
    assert np.abs(q.T @ q - np.eye(kept)).max() <= 1e-13
    assert np.linalg.norm(a - q @ (q.T @ a), 2) <= 10 * tau


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tau_zero_factorizes_every_column(shape):
    m, n = SHAPES[shape]
    a = np.random.default_rng(m * n).standard_normal((m, n))
    q, r_diag = truncated_pivoted_qr(np.asfortranarray(a), 0.0)
    assert q.shape == (m, min(m, n))
    np.testing.assert_allclose(np.abs(r_diag), _dgeqp3_diagonal(a), rtol=1e-12)
    assert np.linalg.norm(a - q @ (q.T @ a)) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_zero_matrix_keeps_no_column(tau):
    q, r_diag = truncated_pivoted_qr(np.zeros((40, 70), order="F"), tau)
    assert q.shape == (40, 0) and r_diag.shape == (0,)


def test_empty_input():
    q, r_diag = truncated_pivoted_qr(np.zeros((5, 0), order="F"), 1e-3)
    assert q.shape == (5, 0) and r_diag.shape == (0,)


def test_factors_in_place_and_refuses_a_c_ordered_array():
    a = np.random.default_rng(3).standard_normal((64, 48))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        truncated_pivoted_qr(a, 1e-3)
    f = np.asfortranarray(a)
    q, _ = truncated_pivoted_qr(f, 1e-3)
    assert q.shape == (64, 48) and not np.array_equal(f, a)

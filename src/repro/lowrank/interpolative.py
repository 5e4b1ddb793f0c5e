"""Interpolative (skeleton) row selection via column-pivoted QR.

Used by the fast ("interpolative") HSS construction: a block row ``A`` of a
cluster is approximated as ``A ~= P @ A[sel, :]`` where ``sel`` indexes a
subset of *skeleton* rows (actual points) and ``P`` is the interpolation
operator with ``P[sel, :] = I``.  Because the skeleton rows correspond to real
points, couplings between clusters reduce to kernel evaluations on skeleton
points only, giving a near-linear-time construction (the same idea underlies
HATRIX and STRUMPACK's randomized/ID constructions).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["interpolative_rows"]


def interpolative_rows(
    a: np.ndarray, *, rank: int | None = None, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row interpolative decomposition ``a ~= P @ a[sel, :]``.

    Parameters
    ----------
    a:
        Block of shape ``(m, n)``.
    rank:
        Hard cap on the number of skeleton rows.
    tol:
        Relative tolerance on the pivoted-QR diagonal for adaptive rank.

    Returns
    -------
    (sel, P):
        ``sel`` -- integer array of ``k`` selected row indices (in pivot
        order); ``P`` -- interpolation matrix of shape ``(m, k)`` with
        ``P[sel, :] = I_k``.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m == 0:
        return np.zeros(0, dtype=np.intp), np.zeros((0, 0))
    if n == 0 or (rank is not None and rank <= 0):
        return np.zeros(0, dtype=np.intp), np.zeros((m, 0))

    # Column-pivoted QR of a^T selects columns of a^T == rows of a; only R
    # and the pivots are read, so Q is never formed.
    r, piv = scipy.linalg.qr(a.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    kmax = diag.size
    k = kmax
    if tol is not None and diag.size > 0 and diag[0] > 0:
        k = int(np.count_nonzero(diag > tol * diag[0]))
        k = max(k, 1)
    if rank is not None:
        k = min(k, int(rank))
    k = min(k, m)
    if k == 0:
        return np.zeros(0, dtype=np.intp), np.zeros((m, 0))

    sel = np.asarray(piv[:k], dtype=np.intp)
    rest = np.asarray(piv[k:], dtype=np.intp)

    # a^T[:, piv] = Q [R11 R12]  =>  a^T[:, rest] ~= a^T[:, sel] (R11^{-1} R12)
    r11 = r[:k, :k]
    r12 = r[:k, k:]
    if r12.shape[1] > 0:
        x = scipy.linalg.solve_triangular(r11, r12, lower=False)
    else:
        x = np.zeros((k, 0))

    p = np.zeros((m, k))
    p[sel, :] = np.eye(k)
    p[rest, :] = x.T
    return sel, p

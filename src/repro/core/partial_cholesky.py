"""Partial Cholesky factorization of a rotated diagonal block (paper Eq. 10-12).

After the *diagonal product* ``A_hat = U^T A U`` with the square orthogonal
basis ``U = [U^R U^S]``, the leading ``n - r`` rows/columns (the *redundant*
part) of the diagonal block can be eliminated independently of every other
block, because the rotated off-diagonal blocks are zero in those rows/columns
(Eq. 8).  The elimination produces::

    L^RR (L^RR)^T = A_hat^RR                      (Eq. 10, dense Cholesky)
    L^SR          = A_hat^SR (L^RR)^{-T}          (Eq. 11, triangular solve)
    A_hat^SS     <- A_hat^SS - L^SR (L^SR)^T      (Eq. 12, Schur complement)

:func:`partial_cholesky` takes the block as the diagonal product leaves it
-- rotated by the node's Householder ``Q``, skeleton first, lower triangle
only -- together with the ``R`` that turns its skeleton part into
``A_hat``'s, and runs one ``dpotrf``, one ``dtrsm`` and one ``dsyrk``.

A block that is not positive definite raises :class:`NotPositiveDefinite`,
naming the tree node and the pivot where the elimination broke down.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from repro.lowrank.lapack import dpotrf, dsyrk, dtrsm

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


@functools.lru_cache(maxsize=64)
def _lower_mask(n: int) -> np.ndarray:
    """``np.tri(n, dtype=bool)``, built once per size."""
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _symmetric(a: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower triangle is ``a``'s."""
    return np.where(_lower_mask(a.shape[0]), a, a.T)


def partial_cholesky(
    rotated: np.ndarray,
    rank: int,
    r_factor: np.ndarray,
    *,
    level: Optional[int] = None,
    node: Optional[int] = None,
) -> PartialCholeskyResult:
    """Eliminate the redundant unknowns of a rotated diagonal block.

    Parameters
    ----------
    rotated:
        ``B = Q^T D Q``, the diagonal block rotated by the node's Householder
        ``Q`` (:meth:`~repro.core.level_ulv.LevelFactors.set_basis`), with
        the ``rank`` skeleton rows and columns *first*.  Only its lower
        triangle is read.
    rank:
        The skeleton rank ``r`` of the block's cluster; the trailing
        ``n - r`` rows/columns are eliminated.
    r_factor:
        The ``R`` of the node's basis ``U^S = Q_S R``, ``rank x rank``.
        The skeleton unknowns are kept in the ``U^S`` basis, so the block
        eliminated is ``A_hat = [[B_rr, B_rs R], [R^T B_sr, R^T B_ss R]]``
        in the redundant-first order of Eq. 3-4.
    level, node:
        The block's cluster-tree node, named by the error on failure.

    Returns
    -------
    PartialCholeskyResult
        ``L_rr`` from ``dpotrf`` of ``B_rr``, ``L_sr^T = L_rr^{-1} (B_rs R)``
        from ``dtrsm`` and the Schur complement
        ``R^T B_ss R - L_sr L_sr^T`` from ``dsyrk``, mirrored to a
        symmetric matrix.

    Raises
    ------
    NotPositiveDefinite
        If the redundant-redundant block is not positive definite.
    """
    b = np.asarray(rotated, dtype=np.float64)
    n = b.shape[0]
    if b.shape != (n, n):
        raise ValueError("the rotated block must be square")
    if rank < 0 or rank > n:
        raise ValueError(f"rank must be in [0, {n}], got {rank}")
    if r_factor.shape != (rank, rank):
        raise ValueError(f"r_factor must be {rank} x {rank}, got {r_factor.shape}")
    nr = n - rank
    b_ss = r_factor.T @ _symmetric(b[:rank, :rank]) @ r_factor
    b_rs = b[rank:, :rank] @ r_factor
    if nr == 0:
        # Fully skeleton block: nothing to eliminate at this level.
        return PartialCholeskyResult(
            L_rr=np.zeros((0, 0)), L_sr=np.zeros((rank, 0)), schur_ss=_symmetric(b_ss)
        )

    # Each C-ordered block below is the column-major transpose of itself to
    # LAPACK, with its lower triangle as that transpose's upper one.
    l_rr = np.where(_lower_mask(nr), b[rank:, rank:], 0.0)
    info = dpotrf("U", l_rr.T)
    if info > 0:
        index, pivot = _failing_pivot(_symmetric(b[rank:, rank:]))
        raise NotPositiveDefinite(index, pivot, level, node)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpotrf failed with info={info}")
    if rank == 0:
        return PartialCholeskyResult(L_rr=l_rr, L_sr=np.zeros((0, nr)), schur_ss=np.zeros((0, 0)))
    # L_sr L_rr^T = (B_rs R)^T, solved from the right with L_rr^T; then
    # schur = R^T B_ss R - L_sr L_sr^T on the lower triangle.
    l_sr_t = np.array(b_rs, order="C")
    dtrsm("R", "U", "N", l_rr.T, l_sr_t.T)
    schur = np.array(b_ss, order="C")
    dsyrk("U", -1.0, l_sr_t.T, 1.0, schur.T)
    return PartialCholeskyResult(L_rr=l_rr, L_sr=l_sr_t.T, schur_ss=_symmetric(schur))

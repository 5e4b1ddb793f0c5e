"""Orthonormal bases of column stacks: one block row (paper Eq. 2-3), and a truncated pivoted QR.

The BLR2/HSS construction computes, for each cluster, an orthonormal *skeleton*
basis ``U^S`` spanning the column space of the concatenated admissible blocks
(:func:`row_basis`).  The ULV factorization completes it to the square
``U = [U^R U^S]`` of Eq. 3-8 implicitly: it keeps the compact-WY Householder
QR of ``U^S`` and never forms ``U^R``
(:meth:`repro.core.level_ulv.LevelFactors.set_basis`).

:func:`truncated_pivoted_qr` is the column-pivoted QR that the HODLR to HSS
conversion cuts its weighted factor stacks with
(:mod:`repro.core.hodlr_ulv`): it stops once the diagonal of ``R`` falls to
the truncation level instead of factoring every column.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dorgqr

from repro.lowrank.lapack import dlaqps
from repro.lowrank.rsvd import GaussianSketches, rsvd_basis
from repro.lowrank.svd import truncated_svd

__all__ = ["row_basis", "truncated_pivoted_qr", "PIVOTED_QR_STEP"]

#: Columns per blocked step of :func:`truncated_pivoted_qr` (the block size
#: LAPACK's ``dgeqp3`` uses).
PIVOTED_QR_STEP = 32


def truncated_pivoted_qr(a: np.ndarray, tau: float) -> Tuple[np.ndarray, np.ndarray]:
    """The columns of a column-pivoted QR of ``a`` whose ``|R_jj|`` exceed ``tau``.

    Runs LAPACK ``dgeqp3``'s blocked step (``dlaqps``) :data:`PIVOTED_QR_STEP`
    columns at a time, and stops after the first step whose last ``|R_jj|``
    is at most ``tau`` (or when the columns or rows run out); then ``dorgqr``
    forms ``Q`` from the reflectors of the kept columns.  With ``tau = 0``
    that is the whole ``dgeqp3``.

    ``a`` is factored in place, as LAPACK does: it must be a Fortran-ordered
    float64 array, and it is overwritten.  Returns ``(q, r_diag)``: ``q`` is
    ``m x k`` with orthonormal columns, ``k`` the number of ``|R_jj| > tau``
    among the factored columns, and ``r_diag`` those ``k`` diagonal entries
    of ``R``.
    """
    if a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError("truncated_pivoted_qr factors in place: pass a Fortran-ordered float64 array")
    m, n = a.shape
    size = min(m, n)
    if size == 0:
        return np.zeros((m, 0)), np.zeros(0)
    jpvt = np.arange(1, n + 1, dtype=np.intc)
    taus = np.zeros(size)
    vn1 = np.linalg.norm(a, axis=0)
    vn2 = vn1.copy()
    auxv = np.empty(PIVOTED_QR_STEP)
    f = np.empty(n * PIVOTED_QR_STEP)
    j = 0
    while j < size:
        kb = dlaqps(
            j, min(PIVOTED_QR_STEP, size - j), a[:, j:], jpvt[j:], taus[j:], vn1[j:], vn2[j:],
            auxv, f,
        )
        if kb <= 0:
            raise np.linalg.LinAlgError(f"dlaqps factored no column at column {j}")
        j += kb
        if abs(a[j - 1, j - 1]) <= tau:
            break
    r_diag = np.diagonal(a)[:j]
    k = int(np.count_nonzero(np.abs(r_diag) > tau))
    if k == 0:
        return np.zeros((m, 0)), np.zeros(0)
    r_diag = r_diag[:k].copy()
    q, _, info = dorgqr(a[:, :k], taus[:k], overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr failed with info={info}")
    return q, r_diag


def row_basis(
    block_row: np.ndarray,
    *,
    rank: int | None = None,
    tol: float | None = None,
    method: str = "svd",
    seed: int = 0,
    sketches: Optional[GaussianSketches] = None,
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
        Relative tolerance on the singular values.
    method:
        ``"svd"`` (full SVD of the block row: the optimal basis, the
        verification path) or ``"rsvd"`` (:func:`repro.lowrank.rsvd.rsvd_basis`,
        seeded with ``seed``: one Gaussian sketch of ``rank + 10`` columns
        and one power iteration, so it never factors the full block row, and
        only the left singular vectors of the sketched row are formed).
    seed:
        RNG seed of the ``"rsvd"`` sketch.
    sketches:
        The build's :class:`~repro.lowrank.rsvd.GaussianSketches`, so rows
        of one width share one test matrix (default: drawn for this call).
    """
    a = np.asarray(block_row, dtype=np.float64)
    m = a.shape[0]
    if a.size == 0:
        return np.zeros((m, 0))
    if method == "svd":
        return truncated_svd(a, rank=rank, tol=tol)[0]
    if method == "rsvd":
        return rsvd_basis(a, rank or min(a.shape), tol=tol, seed=seed, sketches=sketches)
    raise ValueError(f"unknown method {method!r}; use 'svd' or 'rsvd'")

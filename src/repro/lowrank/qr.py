"""Shared-basis computation of one block row (paper Eq. 2-3).

The BLR2/HSS construction computes, for each cluster, an orthonormal *skeleton*
basis ``U^S`` spanning the column space of the concatenated admissible blocks.
The ULV factorization completes it to the square ``U = [U^R U^S]`` of Eq. 3-8
implicitly, from the Householder QR of ``U^S``
(:meth:`repro.core.level_ulv.LevelFactors.set_basis`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.lowrank.rsvd import GaussianSketches, rsvd_basis
from repro.lowrank.svd import truncated_svd

__all__ = ["row_basis"]


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

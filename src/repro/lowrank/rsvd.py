"""Randomized SVD (Halko-Martinsson-Tropp), the compression used by STRUMPACK.

STRUMPACK constructs its representations by randomized sampling; we provide
the same primitive both for compressing explicit blocks (:func:`rsvd`, the
HODLR default) and for the left singular basis of a block row
(:func:`rsvd_basis`, the BLR2 default).

One build compresses many blocks of the same width, so the Gaussian test
matrix of a (width, sketch size, seed) triple is drawn once per build by a
:class:`GaussianSketches` the builder owns (and drops when it is done); every
orthonormalization is one :func:`thin_qr` call.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr

from repro.lowrank.block import LowRankBlock
from repro.lowrank.svd import svd_rank

__all__ = [
    "GaussianSketches",
    "thin_qr",
    "random_range_finder",
    "rsvd",
    "rsvd_basis",
    "compress_rsvd",
]


def thin_qr(a: np.ndarray, *, mode: str = "reduced"):
    """``np.linalg.qr(a, mode)`` for ``mode`` in ``"reduced"`` / ``"r"``, bit for bit.

    ``dgeqrf`` + ``dorgqr``, each with a queried workspace as numpy queries
    it, without numpy's generic gufunc wrapping.  Returns ``(q, r)``, or
    ``r`` alone for ``mode="r"``.
    """
    if mode not in ("reduced", "r"):
        raise ValueError(f"unknown mode {mode!r}; use 'reduced' or 'r'")
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    k = min(m, n)
    if k == 0:
        r = np.zeros((0, n))
        return r if mode == "r" else (np.zeros((m, 0)), r)
    lwork = int(dgeqrf(a, lwork=-1)[2][0])
    qr, tau, _, info = dgeqrf(a, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
    r = np.triu(qr[:k])
    if mode == "r":
        return r
    lwork = int(dorgqr(qr[:, :k], tau, lwork=-1)[1][0])
    q, _, info = dorgqr(qr[:, :k], tau, lwork=lwork, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr failed with info={info}")
    return q, r


class GaussianSketches:
    """The Gaussian test matrices of one build, each drawn once.

    ``get(width, k, seed)`` is ``default_rng(seed).standard_normal((width, k))``,
    drawn on first use and shared by every later block of that width.  Safe
    to share between the threads of one build; :meth:`clear` drops them.
    """

    def __init__(self) -> None:
        self._drawn: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._lock = threading.Lock()

    def get(self, width: int, k: int, seed: int) -> np.ndarray:
        key = (width, k, seed)
        with self._lock:
            omega = self._drawn.get(key)
            if omega is None:
                omega = self._drawn[key] = np.random.default_rng(seed).standard_normal((width, k))
        return omega

    def clear(self) -> None:
        with self._lock:
            self._drawn.clear()


def random_range_finder(
    a: np.ndarray,
    rank: int,
    *,
    oversample: int = 10,
    n_iter: int = 1,
    seed: int = 0,
    sketches: Optional[GaussianSketches] = None,
) -> np.ndarray:
    """Approximate orthonormal basis of the column space of ``a`` (m x n).

    Uses a Gaussian test matrix with ``rank + oversample`` columns (taken
    from ``sketches`` when given, else drawn here) and ``n_iter`` power
    iterations for spectral-decay sharpening.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    k = min(rank + oversample, n, m)
    if k == 0:
        return np.zeros((m, 0))
    sketches = sketches if sketches is not None else GaussianSketches()
    q, _ = thin_qr(a @ sketches.get(n, k, seed))
    for _ in range(n_iter):
        z, _ = thin_qr(a.T @ q)
        q, _ = thin_qr(a @ z)
    return q


def rsvd(
    a: np.ndarray,
    rank: int,
    *,
    oversample: int = 10,
    n_iter: int = 1,
    tol: float | None = None,
    seed: int = 0,
    sketches: Optional[GaussianSketches] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized truncated SVD ``a ~= U diag(s) Vt`` of target rank ``rank``."""
    a = np.asarray(a, dtype=np.float64)
    q = random_range_finder(
        a, rank, oversample=oversample, n_iter=n_iter, seed=seed, sketches=sketches
    )
    b = q.T @ a
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    k = svd_rank(s, rank=rank, tol=tol)
    return q @ ub[:, :k], s[:k], vt[:k]


def rsvd_basis(
    a: np.ndarray,
    rank: int,
    *,
    oversample: int = 10,
    n_iter: int = 1,
    tol: float | None = None,
    seed: int = 0,
    sketches: Optional[GaussianSketches] = None,
) -> np.ndarray:
    """The ``U`` of :func:`rsvd` without forming ``Vt``.

    With ``b = Q^T a`` (``k x n``) and ``b^T = Q_b R``, ``b = R^T Q_b^T``, so
    the left singular vectors and singular values of ``b`` are those of the
    ``k x k`` ``R^T``: the wide SVD and its ``k x n`` right factor are never
    formed.
    """
    a = np.asarray(a, dtype=np.float64)
    q = random_range_finder(
        a, rank, oversample=oversample, n_iter=n_iter, seed=seed, sketches=sketches
    )
    r = thin_qr(a.T @ q, mode="r")
    ub, s, _ = np.linalg.svd(r.T)
    k = svd_rank(s, rank=rank, tol=tol)
    return q @ ub[:, :k]


def compress_rsvd(
    a: np.ndarray,
    rank: int,
    *,
    oversample: int = 10,
    n_iter: int = 1,
    tol: float | None = None,
    seed: int = 0,
    sketches: Optional[GaussianSketches] = None,
) -> LowRankBlock:
    """Randomized-SVD compression into a :class:`LowRankBlock`."""
    u, s, vt = rsvd(
        a, rank, oversample=oversample, n_iter=n_iter, tol=tol, seed=seed, sketches=sketches
    )
    return LowRankBlock(u * s, vt.T)

"""Floating-point operation counts of the dense kernels used by the task bodies.

These standard counts (LAPACK working notes conventions) drive the performance
model of the distributed-machine simulator.
"""

from __future__ import annotations

__all__ = [
    "flops_potrf",
    "flops_trsm",
    "flops_gemm",
    "flops_syrk",
    "flops_qr",
    "flops_svd",
    "flops_diag_product",
    "flops_partial_factor",
    "flops_solve_forward",
    "flops_solve_root",
    "flops_solve_backward",
]


def flops_potrf(n: int) -> float:
    """Cholesky factorization of an ``n x n`` SPD matrix."""
    return n**3 / 3.0 + n**2 / 2.0


def flops_trsm(m: int, n: int) -> float:
    """Triangular solve with an ``m x m`` triangle and ``n`` right-hand sides."""
    return float(m * m * n)


def flops_gemm(m: int, n: int, k: int) -> float:
    """General matrix multiply ``(m x k) @ (k x n)``."""
    return 2.0 * m * n * k


def flops_syrk(n: int, k: int) -> float:
    """Symmetric rank-k update ``C -= A A^T`` with ``A`` of shape ``(n, k)``."""
    return float(n * n * k)


def flops_qr(m: int, n: int) -> float:
    """Householder QR of an ``m x n`` matrix (m >= n)."""
    return 2.0 * m * n * n - 2.0 * n**3 / 3.0


def flops_svd(m: int, n: int) -> float:
    """Golub-Kahan SVD of an ``m x n`` matrix (rough standard count)."""
    small, large = (m, n) if m <= n else (n, m)
    return 4.0 * large * small**2 + 8.0 * small**3


def flops_diag_product(m: int, rank: int) -> float:
    """The ULV diagonal product of an ``m x m`` block with a rank-``rank`` basis.

    ``geqrt`` of the basis (reflectors and ``T``), ``Y = D V T``,
    ``Z = Y - V (T^T V^T Y) / 2`` and the two-sided update
    ``D - (Z V^T + V Z^T)`` as one ``syr2k``
    (:meth:`repro.core.level_ulv.LevelFactors.set_basis`).
    """
    r = rank
    return (
        flops_qr(m, r) + m * r * r + 2 * flops_gemm(m, m, r) + 3 * flops_gemm(m, r, r)
        + flops_gemm(r, r, r)
    )


def flops_partial_factor(n: int, rank: int) -> float:
    """Partial Cholesky of a rotated ``n x n`` block leaving ``rank`` skeleton rows.

    ``potrf`` of the redundant block, the ``R`` rotation of the skeleton
    rows and columns (``B_rs R`` and ``R^T B_ss R``), ``trsm`` for ``L_sr``
    and ``syrk`` for the Schur complement
    (:func:`repro.core.partial_cholesky.partial_cholesky`).
    """
    r, nr = rank, max(n - rank, 0)
    return (
        flops_potrf(nr) + flops_gemm(nr, r, r) + 2 * flops_gemm(r, r, r)
        + flops_trsm(nr, r) + flops_syrk(r, nr)
    )


def _flops_rotation(n: int, rank: int, k: int) -> float:
    """``k`` columns through a node's ``V^T``, ``T``, ``V`` and ``R``."""
    return 2 * flops_gemm(rank, k, n) + 2 * flops_gemm(rank, k, rank)


def flops_solve_forward(n: int, rank: int, k: int) -> float:
    """Forward elimination of one ULV block for ``k`` right-hand sides (Eq. 17).

    Rotate (``U^T b``), solve the redundant triangle, update the skeleton part.
    """
    nr = max(n - rank, 0)
    return _flops_rotation(n, rank, k) + flops_trsm(nr, k) + flops_gemm(rank, k, nr)


def flops_solve_root(n: int, k: int) -> float:
    """Root dense solve: two triangular solves against the final Cholesky factor."""
    return 2.0 * flops_trsm(n, k)


def flops_solve_backward(n: int, rank: int, k: int) -> float:
    """Back-substitution of one ULV block for ``k`` right-hand sides (Eq. 17).

    Skeleton update, redundant triangular solve, rotate back (``U y``).
    """
    nr = max(n - rank, 0)
    return flops_gemm(nr, k, rank) + flops_trsm(nr, k) + _flops_rotation(n, rank, k)

"""Sequential reference implementation of the HSS-ULV factorization (Alg. 2).

Each level ``l`` of the HSS matrix is a weak-admissibility BLR2 matrix whose
off-diagonal blocks are nullified by the *diagonal product* with the square
orthogonal basis ``U_{l;i} = [U^R U^S]``.  The redundant rows are eliminated
with a partial Cholesky, and the surviving skeleton-skeleton Schur complements
of two sibling nodes are *merged* (together with their coupling block) into
the parent's diagonal block at level ``l - 1``.  The final ``A_0`` block is
factorized with a dense Cholesky (line 6 of Alg. 2).

The factor object stores each level's node factors stacked per node shape
and runs the forward/backward substitution (Eq. 17) one level kernel at a
time (:mod:`repro.core.level_ulv`); it also evaluates the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.core.level_ulv import LevelFactors, check_finite, ulv_solve
from repro.core.partial_cholesky import PartialCholeskyResult, partial_cholesky
from repro.core.rhs import validate_rhs
from repro.formats.hss import HSSMatrix

__all__ = ["HSSNodeFactor", "HSSULVFactor", "hss_ulv_factorize", "merge_siblings"]


@dataclass
class HSSNodeFactor:
    """Per-node factors produced by the HSS-ULV factorization.

    Read through :attr:`HSSULVFactor.node_factors`: the arrays are views into
    the level stacks, not copies.

    Attributes
    ----------
    U:
        The square orthogonal basis ``[U^R U^S]`` used for the diagonal
        product of this node (size ``m x m`` where ``m`` is the node's ULV
        working-block size).
    rank:
        Skeleton rank ``r`` of the node.
    partial:
        The partial Cholesky factors of the rotated diagonal block.
    """

    U: np.ndarray
    rank: int
    partial: PartialCholeskyResult

    @property
    def block_size(self) -> int:
        return self.U.shape[0]

    @property
    def redundant_size(self) -> int:
        return self.block_size - self.rank


@dataclass
class HSSULVFactor:
    """The complete HSS-ULV factorization of an :class:`HSSMatrix`.

    The node factors of each level are stored stacked per node shape
    (:class:`~repro.core.level_ulv.LevelFactors`: ``U`` as ``(nodes, m, m)``,
    ``L_rr`` as ``(nodes, m - r, m - r)``, ``L_sr`` as ``(nodes, r, m - r)``),
    so the solve runs each level as one batched kernel
    (:mod:`repro.core.level_ulv`).  The stacks are allocated empty from the
    HSS structure and filled in place by the factorization.

    Attributes
    ----------
    hss:
        The factorized HSS matrix (kept for structure and couplings; its
        numerical content is not modified).
    levels:
        Mapping ``level -> LevelFactors`` for levels ``max_level .. 1``.
    root_chol:
        Lower-triangular Cholesky factor of the final merged block ``A_0``.
    """

    hss: HSSMatrix
    levels: Dict[int, LevelFactors] = None  # type: ignore[assignment]
    root_chol: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self) -> None:
        if self.levels is None:
            hss = self.hss
            self.levels = {
                level: LevelFactors(
                    [hss.block_size(level, i) for i in range(2**level)],
                    hss.level_ranks(level),
                )
                for level in range(hss.max_level, 0, -1)
            }

    @property
    def node_factors(self) -> Dict[Tuple[int, int], HSSNodeFactor]:
        """``(level, index) -> HSSNodeFactor`` views into the level stacks."""
        return {
            (level, i): HSSNodeFactor(U=u, rank=int(lf.ranks[i]), partial=part)
            for level, lf in sorted(self.levels.items())
            for i, (u, part) in enumerate(lf.node_views())
        }

    def check_finite(self) -> None:
        """Raise :class:`numpy.linalg.LinAlgError` if any factor entry is NaN/Inf."""
        check_finite(self.levels.values(), self.root_chol)

    # ------------------------------------------------------------------ solve
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the ULV factors (Eq. 17).

        ``b`` may be a vector of length ``n`` or a matrix of shape ``(n, k)``.
        Each level is one forward and one backward kernel call
        (:func:`repro.core.level_ulv.ulv_solve`).
        """
        bm, single = validate_rhs(b, self.hss.n)
        levels = [self.levels[level] for level in range(self.hss.max_level, 0, -1)]
        x = ulv_solve(levels, self.root_chol, bm)
        return x[:, 0] if single else x

    # -------------------------------------------------------------- logdet
    def logdet(self) -> float:
        """``log(det(A))`` of the factorized (HSS-approximated) matrix."""
        total = 2.0 * float(np.sum(np.log(np.diag(self.root_chol))))
        for fac in self.node_factors.values():
            if fac.redundant_size > 0:
                total += 2.0 * float(np.sum(np.log(np.diag(fac.partial.L_rr))))
        return total

    # --------------------------------------------------------------- stats
    def factor_flops(self) -> float:
        """Floating-point operations of the numerical factorization steps."""
        flops = 0.0
        for fac in self.node_factors.values():
            m = fac.block_size
            nr = fac.redundant_size
            r = fac.rank
            flops += 2.0 * m * m * m  # two GEMMs of the diagonal product
            flops += nr**3 / 3.0  # POTRF of the RR block
            flops += r * nr**2  # TRSM for L_SR
            flops += r * r * nr  # SYRK update of the SS block
        n0 = self.root_chol.shape[0]
        flops += n0**3 / 3.0
        return flops

    def memory_bytes(self) -> int:
        """Bytes stored by the factor objects (excluding the HSS matrix itself)."""
        total = self.root_chol.nbytes
        for fac in self.node_factors.values():
            total += fac.U.nbytes + fac.partial.L_rr.nbytes + fac.partial.L_sr.nbytes
        return total


def merge_siblings(
    schur_left: np.ndarray, schur_right: np.ndarray, coupling: np.ndarray
) -> np.ndarray:
    """Merge step (line 4 of Alg. 2): the parent's diagonal block.

    Two sibling skeleton Schur complements go on the diagonal and their
    coupling ``S = E_{2k+1}^T A E_{2k}`` off it.  Shared by
    :func:`hss_ulv_factorize` and the factorization task graph.
    """
    top = np.hstack([schur_left, coupling.T])
    bot = np.hstack([coupling, schur_right])
    return np.vstack([top, bot])


def hss_ulv_factorize(hss: HSSMatrix) -> HSSULVFactor:
    """Factorize an SPD HSS matrix with the HSS-ULV algorithm (Alg. 2).

    Parameters
    ----------
    hss:
        A symmetric positive definite HSS matrix.

    Returns
    -------
    HSSULVFactor
        Factor object providing :meth:`HSSULVFactor.solve` and
        :meth:`HSSULVFactor.logdet`.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a redundant diagonal block is not positive definite (the HSS
        approximation of an SPD matrix can lose definiteness when the
        compression error exceeds the smallest eigenvalue), or if the
        factors come out non-finite (checked once, at the end).
    """
    max_level = hss.max_level
    factor = HSSULVFactor(hss=hss)

    # Working diagonal blocks of the current level, keyed by node index.
    diag: Dict[Tuple[int, int], np.ndarray] = {}
    for i in range(2**max_level):
        diag[(max_level, i)] = hss.node(max_level, i).D.copy()

    for level in range(max_level, 0, -1):
        lf = factor.levels[level]
        schur: Dict[int, np.ndarray] = {}
        for i in range(2**level):
            node = hss.node(level, i)
            u = lf.set_basis(i, node.U)
            part = partial_cholesky(u.T @ diag[(level, i)] @ u, node.rank)
            schur[i] = lf.set_partial(i, part)
        for k in range(2 ** (level - 1)):
            diag[(level - 1, k)] = merge_siblings(
                schur[2 * k], schur[2 * k + 1], hss.coupling(level, 2 * k + 1, 2 * k)
            )

    factor.root_chol = np.linalg.cholesky(diag[(0, 0)])
    factor.check_finite()
    return factor

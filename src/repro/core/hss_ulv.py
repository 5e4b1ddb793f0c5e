"""Sequential reference implementation of the ULV factorization (Alg. 1 and 2).

Each factored level ``l`` of the tree is a weak-admissibility BLR2 matrix
whose off-diagonal blocks are nullified by the *diagonal product* with the
square orthogonal basis ``U_{l;i} = [U^R U^S]`` (applied through the
Householder factors of ``U^S``, :mod:`repro.core.level_ulv`).  The redundant
rows are eliminated with a partial Cholesky, and the surviving
skeleton-skeleton Schur complements of a parent's children are *merged*
(together with their couplings) into the parent's diagonal block
(:func:`merge_children`).  The final ``A_0`` block is factorized with a dense
Cholesky.

HSS (Alg. 2) factors every level and merges sibling pairs; a BLR2 matrix is
a one-level tree (Alg. 1): its leaf level is the only factored level and
the root merges every block row -- the permuted skeleton system of Fig. 4.
:class:`~repro.formats.hss.HSSStructure` says which levels are factored and
which nodes a parent merges.

The factor object stores each level's node factors stacked per node shape
and runs the forward/backward substitution (Eq. 15/17) one level kernel at
a time (:mod:`repro.core.level_ulv`); it also evaluates the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np

from repro.core.level_ulv import LevelFactors, check_finite, square_basis, ulv_solve
from repro.core.partial_cholesky import PartialCholeskyResult, cholesky
from repro.core.rhs import validate_rhs
from repro.formats.hss import HSSStructure
from repro.runtime.flops import flops_diag_product, flops_partial_factor, flops_potrf

__all__ = ["HSSNodeFactor", "HSSULVFactor", "hss_ulv_factorize", "merge_children"]


@dataclass
class HSSNodeFactor:
    """Per-node factors produced by the HSS-ULV factorization.

    Read through :attr:`HSSULVFactor.node_factors`: the arrays are views into
    the level stacks, not copies.

    Attributes
    ----------
    V, T, R:
        The compact-WY QR ``U^S = Q_S R`` of the node's basis: reflectors
        ``V`` (``m x r``), ``T`` with ``Q = I - V T V^T``, and ``R``.
    basis:
        The node's basis ``U^S`` (held by reference to the matrix).
    rank:
        Skeleton rank ``r`` of the node.
    partial:
        The partial Cholesky factors of the rotated diagonal block.
    """

    V: np.ndarray
    T: np.ndarray
    R: np.ndarray
    basis: np.ndarray
    rank: int
    partial: PartialCholeskyResult

    @property
    def U(self) -> np.ndarray:
        """The square ``[U^R U^S]`` of the diagonal product, built on demand (not stored)."""
        return square_basis(self.V, self.T, self.basis)

    @property
    def block_size(self) -> int:
        return self.V.shape[0]

    @property
    def redundant_size(self) -> int:
        return self.block_size - self.rank


@dataclass
class HSSULVFactor:
    """The complete ULV factorization of an HSS, HODLR (truncated HSS form) or BLR2 matrix.

    The node factors of each factored level are stored stacked per node
    shape (:class:`~repro.core.level_ulv.LevelFactors`: reflectors ``V`` as
    ``(nodes, m, r)``, ``T`` and ``R`` as ``(nodes, r, r)``, ``L_rr`` as
    ``(nodes, m - r, m - r)``, ``L_sr`` as ``(nodes, r, m - r)``; no square
    basis), so the solve runs each level as one batched kernel
    (:mod:`repro.core.level_ulv`).  The stacks are allocated empty from the
    matrix's :class:`~repro.formats.hss.HSSStructure` and filled in place by
    the factorization.

    Attributes
    ----------
    matrix:
        The factorized matrix (kept for structure and couplings; its
        numerical content is not modified).
    levels:
        Mapping ``tree level -> LevelFactors`` of the factored levels:
        ``max_level .. 1`` for HSS, the leaf level alone for BLR2.
    root_chol:
        Lower-triangular Cholesky factor of the final merged block ``A_0``.
    operator:
        The matrix the factor stands for, which refinement applies when the
        caller names no operator: the HODLR matrix whose truncated HSS form
        ``matrix`` is, or ``None`` for ``matrix`` itself.
    """

    matrix: Any
    levels: Dict[int, LevelFactors] = None  # type: ignore[assignment]
    root_chol: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    operator: Any = None

    def __post_init__(self) -> None:
        if self.levels is None:
            st = HSSStructure.from_matrix(self.matrix)
            self.levels = {
                level: LevelFactors(
                    [st.block_size(level, i) for i in range(2**level)],
                    [st.rank(level, i) for i in range(2**level)],
                )
                for level in st.levels
            }

    @property
    def node_factors(self) -> Dict[Tuple[int, int], HSSNodeFactor]:
        """``(level, index) -> HSSNodeFactor`` views into the level stacks."""
        return {
            (level, i): HSSNodeFactor(
                v, t, rr, self.matrix.node_basis(level, i), int(lf.ranks[i]), part
            )
            for level, lf in sorted(self.levels.items())
            for i, (v, t, rr, part) in enumerate(lf.node_views())
        }

    def check_finite(self) -> None:
        """Raise :class:`numpy.linalg.LinAlgError` if any factor entry is NaN/Inf."""
        check_finite(self.levels.values(), self.root_chol)

    # ------------------------------------------------------------------ solve
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the ULV factors (Eq. 15/17).

        ``b`` may be a vector of length ``n`` or a matrix of shape ``(n, k)``.
        Each level is one forward and one backward kernel call
        (:func:`repro.core.level_ulv.ulv_solve`).
        """
        bm, single = validate_rhs(b, self.matrix.n)
        levels = [self.levels[level] for level in sorted(self.levels, reverse=True)]
        x = ulv_solve(levels, self.root_chol, bm)
        return x[:, 0] if single else x

    # -------------------------------------------------------------- logdet
    def logdet(self) -> float:
        """``log(det(A))`` of the factorized (approximated) matrix."""
        total = 2.0 * float(np.sum(np.log(np.diag(self.root_chol))))
        for fac in self.node_factors.values():
            if fac.redundant_size > 0:
                total += 2.0 * float(np.sum(np.log(np.diag(fac.partial.L_rr))))
        return total

    # --------------------------------------------------------------- stats
    def factor_flops(self) -> float:
        """Floating-point operations of the factorization: the graph's per-task model, summed."""
        flops = flops_potrf(self.root_chol.shape[0])
        for lf in self.levels.values():
            for m, r in zip(lf.sizes.tolist(), lf.ranks.tolist()):
                flops += flops_diag_product(m, r) + flops_partial_factor(m, r)
        return flops

    def memory_bytes(self) -> int:
        """Bytes stored by the factor objects (excluding the matrix itself)."""
        return self.root_chol.nbytes + sum(
            s.nbytes for lf in self.levels.values() for g in lf.groups for s in g.solve_stacks
        )


def merge_children(
    schurs: Sequence[np.ndarray], nodes: Sequence[int], coupling: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    """Merge step: the parent's diagonal block from its children (``nodes``).

    Child ``nodes[a]``'s skeleton Schur complement ``schurs[a]`` goes on the
    diagonal and ``coupling(nodes[a], nodes[b])`` at block ``(a, b)`` off
    it: two siblings for HSS (line 4 of Alg. 2), every block row for the
    BLR2 root (the permuted skeleton system of Alg. 1, Fig. 4).  Pure
    copying, shared by :func:`hss_ulv_factorize` and the factorization task
    graph.
    """
    offsets = np.cumsum([0] + [s.shape[0] for s in schurs])
    out = np.empty((offsets[-1], offsets[-1]))
    for a, (i, schur) in enumerate(zip(nodes, schurs)):
        rows = slice(offsets[a], offsets[a + 1])
        out[rows, rows] = schur
        for b, j in enumerate(nodes):
            if b != a:
                out[rows, offsets[b] : offsets[b + 1]] = coupling(i, j)
    return out


def hss_ulv_factorize(matrix) -> HSSULVFactor:
    """Factorize an SPD HSS or BLR2 matrix with the ULV algorithm (Alg. 2 / Alg. 1).

    Parameters
    ----------
    matrix:
        A symmetric positive definite :class:`~repro.formats.hss.HSSMatrix`
        or :class:`~repro.formats.blr2.BLR2Matrix` (a one-level tree).

    Returns
    -------
    HSSULVFactor
        Factor object providing :meth:`HSSULVFactor.solve` and
        :meth:`HSSULVFactor.logdet`.

    Raises
    ------
    NotPositiveDefinite
        If a redundant or root diagonal block is not positive definite (the
        approximation of an SPD matrix can lose definiteness when the
        compression error exceeds the smallest eigenvalue); it names the
        node and the failing pivot.
    numpy.linalg.LinAlgError
        If the factors come out non-finite (checked once, at the end).
    """
    st = HSSStructure.from_matrix(matrix)
    factor = HSSULVFactor(matrix=matrix)

    # Working diagonal blocks, keyed by node.  set_basis only reads them, so
    # the leaf level starts on the matrix's own blocks.
    diag: Dict[Tuple[int, int], np.ndarray] = {
        (st.max_level, i): matrix.leaf_block(i) for i in range(2**st.max_level)
    }
    for level in st.levels:
        lf = factor.levels[level]
        schur: Dict[int, np.ndarray] = {}
        for i in range(2**level):
            rotated = lf.set_basis(i, matrix.node_basis(level, i), diag[(level, i)])
            schur[i] = lf.set_partial(i, rotated, level=level)
        for parent, k, nodes in st.merges(level):
            diag[(parent, k)] = merge_children(
                [schur[i] for i in nodes],
                nodes,
                lambda i, j, level=level: matrix.node_coupling(level, i, j),
            )

    factor.root_chol = cholesky(diag[(0, 0)], level=0, node=0)
    factor.check_finite()
    return factor

"""ULV factorization of a symmetric HODLR matrix through its exact leaf view.

HODLR shares weak admissibility with HSS/BLR2 but carries *independent*
low-rank factors per off-diagonal block and no nested bases, so Alg. 1/2 do
not apply verbatim.  The key observation enabling a ULV factorization anyway:
every off-diagonal entry of a leaf block row lives in the column space of the
ancestor blocks' row factors restricted to that leaf.  Concatenating those
restrictions and orthonormalizing yields an **exact** shared skeleton basis
per leaf (rank at most the sum of the ancestor ranks, ~ r log N), which turns
the HODLR matrix into a leaf-level shared-basis system -- precisely the
interface of :mod:`repro.core.leaf_ulv` -- *without any further
approximation*.  The factorization and solve are then the single-level ULV
(Alg. 1), and the task graph is the same leaf-ULV graph the BLR2 format
records, which is what gives HODLR every execution backend for free.

Requires a *symmetric* HODLR matrix (``lower == upper^T`` per node, as
:func:`repro.formats.hodlr.build_hodlr` constructs) whose approximation is
positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.leaf_ulv import LeafULVSolveMixin, leaf_ulv_factorize_into
from repro.core.level_ulv import LevelFactors
from repro.formats.hodlr import HODLRMatrix, HODLRNode

__all__ = ["HODLRLeafSystem", "HODLRULVFactor", "hodlr_ulv_factorize"]


class HODLRLeafSystem:
    """The exact leaf-level shared-basis view of a symmetric HODLR matrix.

    Presents the leaf-system interface consumed by
    :func:`repro.core.leaf_ulv.leaf_ulv_factorize_into` and the leaf-ULV graph
    builder: ``n``, ``nblocks``, ``block_range``, ``rank``, ``diag``,
    ``bases`` and ``coupling``.  Construction is deterministic (plain QR of
    fixed column stacks), so independently built views of the same matrix are
    bit-identical -- the property the cross-backend tests rely on.
    """

    def __init__(self, hodlr: HODLRMatrix) -> None:
        self.hodlr = hodlr
        self._leaves: List[HODLRNode] = []
        # Per-leaf restricted ancestor row factors (deepest ancestor first),
        # and per ordered leaf pair (i, j) the factors (R_i, C_j) of the
        # common-ancestor block with A_{ij} = R_i @ C_j^T exactly.
        contributions: Dict[int, List[np.ndarray]] = {}
        self._pair: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

        def walk(node: HODLRNode) -> List[int]:
            if node.is_leaf:
                idx = len(self._leaves)
                self._leaves.append(node)
                contributions[idx] = []
                return [idx]
            left_ids = walk(node.left)
            right_ids = walk(node.right)
            lo, ro = node.left.start, node.right.start
            for i in left_ids:
                leaf = self._leaves[i]
                rows = slice(leaf.start - lo, leaf.stop - lo)
                contributions[i].append(node.upper.U[rows])
                for j in right_ids:
                    other = self._leaves[j]
                    cols = slice(other.start - ro, other.stop - ro)
                    self._pair[(i, j)] = (node.upper.U[rows], node.upper.V[cols])
            for j in right_ids:
                leaf = self._leaves[j]
                rows = slice(leaf.start - ro, leaf.stop - ro)
                contributions[j].append(node.lower.U[rows])
                for i in left_ids:
                    other = self._leaves[i]
                    cols = slice(other.start - lo, other.stop - lo)
                    self._pair[(j, i)] = (node.lower.U[rows], node.lower.V[cols])
            return left_ids + right_ids

        walk(hodlr.root)

        #: Exact shared skeleton basis per leaf (orthonormal columns).
        self.bases: Dict[int, np.ndarray] = {}
        for i, leaf in enumerate(self._leaves):
            gen = contributions[i]
            if gen:
                q, _ = np.linalg.qr(np.hstack(gen))
            else:
                q = np.zeros((leaf.size, 0))
            self.bases[i] = q

        #: Dense leaf diagonal blocks (referenced, not copied).
        self.diag: Dict[int, np.ndarray] = {
            i: leaf.dense for i, leaf in enumerate(self._leaves)
        }

        # Skeleton couplings, projected through the exact bases.  Eagerly
        # computed: they are tiny (rank x rank) and the task bodies reading
        # them stay pure BLAS.
        self._couplings: Dict[Tuple[int, int], np.ndarray] = {}
        for (i, j), (r_i, c_j) in self._pair.items():
            self._couplings[(i, j)] = (self.bases[i].T @ r_i) @ (self.bases[j].T @ c_j).T

    # -- leaf-system interface ----------------------------------------------
    @property
    def n(self) -> int:
        return self.hodlr.n

    @property
    def nblocks(self) -> int:
        return len(self._leaves)

    def block_range(self, i: int) -> slice:
        leaf = self._leaves[i]
        return slice(leaf.start, leaf.stop)

    def rank(self, i: int) -> int:
        """Skeleton rank of leaf row ``i`` (sum of restricted ancestor ranks)."""
        return self.bases[i].shape[1]

    def coupling(self, i: int, j: int) -> np.ndarray:
        return self._couplings[(i, j)]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Delegates to the HODLR matrix (the represented operators are equal)."""
        return self.hodlr.matvec(x)

    def __repr__(self) -> str:
        ranks = [self.rank(i) for i in range(self.nblocks)]
        return (
            f"HODLRLeafSystem(n={self.n}, nblocks={self.nblocks}, "
            f"ranks=[{min(ranks)}..{max(ranks)}])"
        )


@dataclass
class HODLRULVFactor(LeafULVSolveMixin):
    """Factors of the HODLR-ULV factorization (leaf-level ULV over the exact view).

    Attributes
    ----------
    hodlr:
        The factorized HODLR matrix.
    system:
        The exact leaf view the factorization ran on.
    level / merged_chol:
        The leaf-ULV factor stores, as in
        :class:`~repro.core.blr2_ulv.BLR2ULVFactor`.
    """

    hodlr: HODLRMatrix
    system: HODLRLeafSystem
    level: LevelFactors = None  # type: ignore[assignment]
    merged_chol: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


def hodlr_ulv_factorize(
    hodlr: HODLRMatrix, *, system: HODLRLeafSystem = None
) -> HODLRULVFactor:
    """Factorize a symmetric positive definite HODLR matrix with the ULV algorithm.

    The sequential reference every task-graph backend is validated against.
    Pass ``system`` to reuse an already-built leaf view (the DTD driver does
    this so reference and task-graph runs share one view).

    Raises
    ------
    numpy.linalg.LinAlgError
        If a redundant diagonal block or the merged skeleton system is not
        positive definite (the HODLR approximation of an SPD matrix can lose
        definiteness when the compression error exceeds the smallest
        eigenvalue).
    """
    if system is None:
        system = HODLRLeafSystem(hodlr)
    return leaf_ulv_factorize_into(HODLRULVFactor(hodlr=hodlr, system=system), system)

"""BLR2 matrices: single-level block low rank with *shared* row bases (Fig. 1).

Every off-diagonal block of row ``i`` shares the same skeleton basis ``U_i^S``
(Eq. 1-5): ``A_{i,j} ~= U_i^S @ S_{i,j} @ (U_j^S)^T``.  The shared basis is what
enables the ULV factorization to nullify every off-diagonal block of a row at
once (Sec. 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.geometry.cluster_tree import ClusterTree, build_cluster_tree
from repro.kernels.assembly import KernelMatrix
from repro.lowrank.qr import row_basis

__all__ = ["BLR2Matrix", "build_blr2", "shared_basis", "skeleton_coupling"]


@dataclass
class BLR2Matrix:
    """A weak-admissibility BLR2 matrix with shared row bases.

    Attributes
    ----------
    tree:
        Cluster tree whose leaf level defines the block partition.
    diag:
        Dense diagonal blocks ``A_{i,i}`` keyed by block index.
    bases:
        Skeleton bases ``U_i^S`` (orthonormal columns, ``n_i x r_i``).
    couplings:
        Skeleton coupling blocks ``S_{i,j}`` (``r_i x r_j``) for ``i != j``.
    """

    tree: ClusterTree
    diag: Dict[int, np.ndarray]
    bases: Dict[int, np.ndarray]
    couplings: Dict[Tuple[int, int], np.ndarray]

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nblocks(self) -> int:
        return len(self.tree.leaves)

    def rank(self, i: int) -> int:
        """Skeleton rank of block row ``i``."""
        return self.bases[i].shape[1]

    def block_range(self, i: int) -> slice:
        leaf = self.tree.leaves[i]
        return slice(leaf.start, leaf.stop)

    def coupling(self, i: int, j: int) -> np.ndarray:
        """Coupling ``S_{i,j}``; uses symmetry ``S_{j,i} = S_{i,j}^T`` when needed."""
        if (i, j) in self.couplings:
            return self.couplings[(i, j)]
        if (j, i) in self.couplings:
            return self.couplings[(j, i)].T
        raise KeyError(f"no coupling stored for ({i}, {j})")

    # -- what the ULV engine reads: a one-level tree whose block row i is
    # -- leaf node (max_level, i), as HSSMatrix provides them ---------------
    @property
    def max_level(self) -> int:
        return self.tree.max_level

    def leaf_block(self, index: int) -> np.ndarray:
        return self.diag[index]

    def node_basis(self, level: int, index: int) -> np.ndarray:
        return self.bases[index]

    def node_coupling(self, level: int, i: int, j: int) -> np.ndarray:
        return self.coupling(i, j)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product through the shared-basis representation."""
        x = np.asarray(x, dtype=np.float64)
        y = np.zeros(self.n)
        nb = self.nblocks
        xhat = [self.bases[i].T @ x[self.block_range(i)] for i in range(nb)]
        yhat = [np.zeros(self.rank(i)) for i in range(nb)]
        for i in range(nb):
            ri = self.block_range(i)
            y[ri] += self.diag[i] @ x[ri]
            for j in range(nb):
                if i == j:
                    continue
                yhat[i] += self.coupling(i, j) @ xhat[j]
        for i in range(nb):
            y[self.block_range(i)] += self.bases[i] @ yhat[i]
        return y

    def to_dense(self) -> np.ndarray:
        """Reconstruct the (approximated) dense matrix."""
        out = np.zeros((self.n, self.n))
        nb = self.nblocks
        for i in range(nb):
            ri = self.block_range(i)
            out[ri, ri] = self.diag[i]
            for j in range(nb):
                if i == j:
                    continue
                cj = self.block_range(j)
                out[ri, cj] = self.bases[i] @ self.coupling(i, j) @ self.bases[j].T
        return out

    def memory_bytes(self) -> int:
        total = sum(d.nbytes for d in self.diag.values())
        total += sum(u.nbytes for u in self.bases.values())
        total += sum(s.nbytes for s in self.couplings.values())
        return total

    def __repr__(self) -> str:
        ranks = [self.rank(i) for i in range(self.nblocks)]
        return (
            f"BLR2Matrix(n={self.n}, nblocks={self.nblocks}, "
            f"ranks=[{min(ranks)}..{max(ranks)}], mem={self.memory_bytes() / 1e6:.1f} MB)"
        )


def shared_basis(
    kernel_matrix: KernelMatrix, cluster, max_rank: Optional[int], tol: Optional[float], method: str
) -> np.ndarray:
    """Shared skeleton basis ``U_i^S`` of one block row (Eq. 2).

    Computed from the concatenation of every admissible (off-diagonal) block
    of the row of ``cluster`` (anything with ``start`` / ``stop``).  Shared
    by :func:`build_blr2` and the construction task graph.
    """
    far_cols = np.concatenate(
        [np.arange(0, cluster.start), np.arange(cluster.stop, kernel_matrix.n)]
    )
    block_row = kernel_matrix.block(slice(cluster.start, cluster.stop), far_cols)
    return row_basis(block_row, rank=max_rank, tol=tol, method=method)


def skeleton_coupling(
    kernel_matrix: KernelMatrix, ci, cj, u_i: np.ndarray, u_j: np.ndarray
) -> np.ndarray:
    """Skeleton coupling ``S_{i,j} = (U_i^S)^T A_{i,j} U_j^S`` of clusters ``ci``, ``cj``."""
    block = kernel_matrix.block(slice(ci.start, ci.stop), slice(cj.start, cj.stop))
    return u_i.T @ block @ u_j


def build_blr2(
    kernel_matrix: KernelMatrix,
    *,
    leaf_size: int = 256,
    max_rank: Optional[int] = 100,
    tol: Optional[float] = None,
    tree: Optional[ClusterTree] = None,
    basis_method: str = "svd",
) -> BLR2Matrix:
    """Construct a weak-admissibility BLR2 matrix with shared row bases (Eq. 2).

    The basis of row ``i`` is computed from the concatenation of all admissible
    (off-diagonal) blocks of that row, exactly as in Eq. 2 of the paper.

    Parameters
    ----------
    kernel_matrix:
        Lazily assembled SPD kernel matrix.
    leaf_size:
        Block size.
    max_rank:
        Cap on the shared-basis rank (the paper's "max rank").
    tol:
        Optional relative tolerance for adaptive ranks.
    tree:
        Reuse an existing cluster tree.
    basis_method:
        ``"svd"`` or ``"qr"`` (pivoted QR, Eq. 2).
    """
    if tree is None:
        tree = build_cluster_tree(kernel_matrix.points, leaf_size=leaf_size)
    tree.require_partitioned("BLR2")
    leaves = tree.leaves

    diag: Dict[int, np.ndarray] = {}
    bases: Dict[int, np.ndarray] = {}
    couplings: Dict[Tuple[int, int], np.ndarray] = {}

    for i, li in enumerate(leaves):
        rows = slice(li.start, li.stop)
        diag[i] = kernel_matrix.block(rows, rows)
        bases[i] = shared_basis(kernel_matrix, li, max_rank, tol, basis_method)

    for i, li in enumerate(leaves):
        for j in range(i):
            couplings[(i, j)] = skeleton_coupling(
                kernel_matrix, li, leaves[j], bases[i], bases[j]
            )

    return BLR2Matrix(tree=tree, diag=diag, bases=bases, couplings=couplings)

"""BLR2 matrices: single-level block low rank with *shared* row bases (Fig. 1).

Every off-diagonal block of row ``i`` shares the same skeleton basis ``U_i^S``
(Eq. 1-5): ``A_{i,j} ~= U_i^S @ S_{i,j} @ (U_j^S)^T``.  The shared basis is what
enables the ULV factorization to nullify every off-diagonal block of a row at
once (Sec. 3.1).

The basis of a row spans its full admissible block row.  By default it comes
from a seeded randomized range finder (``"rsvd"``, the sampling STRUMPACK
builds its bases with); ``"svd"`` takes the optimal basis from a full SVD of
the block row and is the verification path.

Each kernel entry is evaluated once.  The basis step of row ``i`` also
projects the part of its block row left of the diagonal,
``P_i = (U_i^S)^T A_{i,<}``, and every coupling ``S_{i,j}`` (``j < i``) is
``P_i``'s columns of block ``j`` times ``U_j^S``: no ``A_{i,j}`` is
evaluated a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.geometry.cluster_tree import ClusterTree, build_cluster_tree
from repro.kernels.assembly import KernelMatrix
from repro.lowrank.qr import row_basis
from repro.lowrank.rsvd import GaussianSketches

__all__ = [
    "BLR2Matrix", "build_blr2", "far_block_row", "shared_basis", "skeleton_coupling",
    "DEFAULT_METHOD", "METHODS",
]

#: Basis methods of :func:`build_blr2` (see :func:`repro.lowrank.qr.row_basis`).
METHODS = ("svd", "rsvd")
#: The basis method every BLR2 construction path uses when none is named.
DEFAULT_METHOD = "rsvd"


def check_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` is one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValueError(f"unknown basis method {method!r}; use one of {METHODS}")


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


def far_block_row(kernel_matrix: KernelMatrix, cluster) -> np.ndarray:
    """The admissible block row ``A_{i,+}`` of ``cluster``: every column outside it, in order."""
    far_cols = np.concatenate(
        [np.arange(0, cluster.start), np.arange(cluster.stop, kernel_matrix.n)]
    )
    return kernel_matrix.block(slice(cluster.start, cluster.stop), far_cols)


def shared_basis(
    kernel_matrix: KernelMatrix,
    cluster,
    max_rank: Optional[int],
    tol: Optional[float],
    method: str,
    seed: int = 0,
    sketches: Optional[GaussianSketches] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared skeleton basis ``U_i^S`` of one block row (Eq. 2) and its projection.

    The basis comes from the concatenation of every admissible (off-diagonal)
    block of the row of ``cluster`` (anything with ``start`` / ``stop``) by
    :func:`~repro.lowrank.qr.row_basis` with ``method`` (``seed`` and the
    build's ``sketches`` serve the randomized one).  The projection is
    ``P_i = (U_i^S)^T A_{i,<}``, the first ``cluster.start`` columns of the
    block row -- everything :func:`skeleton_coupling` needs of this row.
    Shared by :func:`build_blr2` and the construction task graph.
    """
    block_row = far_block_row(kernel_matrix, cluster)
    basis = row_basis(
        block_row, rank=max_rank, tol=tol, method=method, seed=seed, sketches=sketches
    )
    return basis, basis.T @ block_row[:, : cluster.start]


def skeleton_coupling(projection: np.ndarray, cj, u_j: np.ndarray) -> np.ndarray:
    """Skeleton coupling ``S_{i,j} = (U_i^S)^T A_{i,j} U_j^S`` from row ``i``'s projection.

    ``projection`` is ``P_i`` of :func:`shared_basis` and ``cj`` (``j < i``)
    the column cluster, so ``P_i[:, J_j] = (U_i^S)^T A_{i,j}``.
    """
    return projection[:, cj.start : cj.stop] @ u_j


def build_blr2(
    kernel_matrix: KernelMatrix,
    *,
    leaf_size: int = 256,
    max_rank: Optional[int] = 100,
    tol: Optional[float] = None,
    tree: Optional[ClusterTree] = None,
    basis_method: str = DEFAULT_METHOD,
    seed: int = 0,
) -> BLR2Matrix:
    """Construct a weak-admissibility BLR2 matrix with shared row bases (Eq. 2).

    The basis of row ``i`` is computed from the concatenation of all admissible
    (off-diagonal) blocks of that row, as in Eq. 2 of the paper, and every
    coupling is ``S_{i,j} = (U_i^S)^T A_{i,j} U_j^S``, taken from the row's
    projection (:func:`skeleton_coupling`), so the build evaluates each of
    the ``n^2`` kernel entries once.

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
        One of :data:`METHODS`: ``"rsvd"`` (default, randomized range finder)
        or ``"svd"`` (full SVD of each block row, the optimal basis).
    seed:
        RNG seed of the randomized basis; rows of one width share one sketch.
    """
    check_method(basis_method)
    if tree is None:
        tree = build_cluster_tree(kernel_matrix.points, leaf_size=leaf_size)
    tree.require_partitioned("BLR2")
    leaves = tree.leaves

    diag: Dict[int, np.ndarray] = {}
    bases: Dict[int, np.ndarray] = {}
    couplings: Dict[Tuple[int, int], np.ndarray] = {}

    sketches = GaussianSketches()
    for i, li in enumerate(leaves):
        rows = slice(li.start, li.stop)
        diag[i] = kernel_matrix.block(rows, rows)
        bases[i], projection = shared_basis(
            kernel_matrix, li, max_rank, tol, basis_method, seed, sketches
        )
        for j in range(i):
            couplings[(i, j)] = skeleton_coupling(projection, leaves[j], bases[j])

    return BLR2Matrix(tree=tree, diag=diag, bases=bases, couplings=couplings)

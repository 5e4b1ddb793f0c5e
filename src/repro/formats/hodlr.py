"""HODLR (Hierarchically Off-Diagonal Low-Rank) matrices.

The paper's related-work survey (Table 1, Sec. 2) contrasts the HSS format
with HODLR: both are weak-admissibility hierarchical formats, but HODLR does
*not* share bases between levels -- every off-diagonal block of the recursive
2x2 partition carries its own low-rank factorisation.  The format is provided
for completeness (and for the memory/complexity comparisons in the examples);
its recursive structure makes the contrast with the HSS nested bases explicit.

Each off-diagonal block is factored on its own, and stored in SVD form
(``U = u diag(s)``, ``V`` orthonormal).  By default that is a seeded
randomized SVD (``"rsvd"``); ``"svd"`` (the optimal truncation, the
verification path) and ``"aca"`` (recompressed into SVD form) are the
alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.geometry.cluster_tree import ClusterNode, ClusterTree, build_cluster_tree
from repro.kernels.assembly import KernelMatrix
from repro.lowrank.aca import compress_aca
from repro.lowrank.block import LowRankBlock
from repro.lowrank.rsvd import GaussianSketches, compress_rsvd
from repro.lowrank.svd import compress_svd

__all__ = [
    "HODLRNode", "HODLRMatrix", "build_hodlr", "compress_offdiagonal", "DEFAULT_METHOD", "METHODS",
]

#: Off-diagonal compression methods of :func:`build_hodlr`.
METHODS = ("svd", "rsvd", "aca")
#: The method every HODLR construction path uses when none is named.
DEFAULT_METHOD = "rsvd"


def check_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` is one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValueError(f"unknown compression method {method!r}; use one of {METHODS}")


def compress_offdiagonal(
    block: np.ndarray,
    method: str,
    max_rank: Optional[int],
    tol: Optional[float],
    seed: int,
    sketches: Optional[GaussianSketches] = None,
) -> LowRankBlock:
    """Low-rank factorisation of one off-diagonal block with ``method``, in SVD form.

    Shared by :func:`build_hodlr` and the task-graph construction, so both
    factor every block identically (randomized methods seeded per call; the
    randomized SVD takes its test matrix from the build's ``sketches``).
    Every method returns ``U = u diag(s)`` with ``V`` orthonormal: the SVDs
    build it so, and the crosses of ACA are recompressed into it.  The
    HODLR to HSS conversion reads its weights off that form
    (:mod:`repro.core.hodlr_ulv`).
    """
    if method == "svd":
        return compress_svd(block, rank=max_rank, tol=tol)
    if method == "aca":
        aca_tol = tol if tol is not None else 1e-10
        return compress_aca(block, tol=aca_tol, max_rank=max_rank, seed=seed).recompress()
    return compress_rsvd(
        block, max_rank or min(block.shape), tol=tol, seed=seed, sketches=sketches
    )


@dataclass
class HODLRNode:
    """One node of the recursive HODLR partition.

    Either a leaf holding a dense diagonal block, or an internal node holding
    the two low-rank off-diagonal couplings between its children plus the two
    child nodes.
    """

    start: int
    stop: int
    dense: Optional[np.ndarray] = None
    upper: Optional[LowRankBlock] = None  # block (left child rows, right child cols)
    lower: Optional[LowRankBlock] = None  # block (right child rows, left child cols)
    left: Optional["HODLRNode"] = None
    right: Optional["HODLRNode"] = None

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def is_leaf(self) -> bool:
        return self.dense is not None


class HODLRMatrix:
    """A symmetric HODLR matrix over a complete binary cluster tree."""

    def __init__(self, root: HODLRNode, tree: ClusterTree) -> None:
        self.root = root
        self.tree = tree

    @property
    def n(self) -> int:
        return self.root.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    # -- linear algebra -----------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product in O(N r log N)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xm = x.reshape(self.n, -1)
        y = np.zeros_like(xm)

        def recurse(node: HODLRNode) -> None:
            if node.is_leaf:
                y[node.start : node.stop] += node.dense @ xm[node.start : node.stop]
                return
            left, right = node.left, node.right
            y[left.start : left.stop] += node.upper.matvec(xm[right.start : right.stop])
            y[right.start : right.stop] += node.lower.matvec(xm[left.start : left.stop])
            recurse(left)
            recurse(right)

        recurse(self.root)
        return y[:, 0] if single else y

    def to_dense(self) -> np.ndarray:
        """Reconstruct the (approximated) dense matrix."""
        out = np.zeros((self.n, self.n))

        def recurse(node: HODLRNode) -> None:
            if node.is_leaf:
                out[node.start : node.stop, node.start : node.stop] = node.dense
                return
            left, right = node.left, node.right
            out[left.start : left.stop, right.start : right.stop] = node.upper.to_dense()
            out[right.start : right.stop, left.start : left.stop] = node.lower.to_dense()
            recurse(left)
            recurse(right)

        recurse(self.root)
        return out

    # -- accounting -----------------------------------------------------------
    def memory_bytes(self) -> int:
        total = 0

        def recurse(node: HODLRNode) -> None:
            nonlocal total
            if node.is_leaf:
                total += node.dense.nbytes
                return
            total += node.upper.nbytes + node.lower.nbytes
            recurse(node.left)
            recurse(node.right)

        recurse(self.root)
        return total

    def max_rank(self) -> int:
        best = 0

        def recurse(node: HODLRNode) -> None:
            nonlocal best
            if node.is_leaf:
                return
            best = max(best, node.upper.rank, node.lower.rank)
            recurse(node.left)
            recurse(node.right)

        recurse(self.root)
        return best

    def num_levels(self) -> int:
        return self.tree.max_level

    def __repr__(self) -> str:
        return (
            f"HODLRMatrix(n={self.n}, levels={self.num_levels()}, "
            f"max_rank={self.max_rank()}, mem={self.memory_bytes() / 1e6:.1f} MB)"
        )


def build_hodlr(
    kernel_matrix: KernelMatrix,
    *,
    leaf_size: int = 256,
    max_rank: Optional[int] = 100,
    tol: Optional[float] = None,
    method: str = DEFAULT_METHOD,
    tree: Optional[ClusterTree] = None,
    seed: int = 0,
) -> HODLRMatrix:
    """Construct a symmetric HODLR matrix from a lazily assembled kernel matrix.

    Parameters
    ----------
    kernel_matrix:
        The SPD kernel matrix to compress.
    leaf_size, max_rank, tol:
        Partition and compression parameters (each off-diagonal block is
        compressed independently -- no shared bases).
    method:
        One of :data:`METHODS`: ``"rsvd"`` (default, randomized SVD, cheap
        for the large off-diagonal blocks near the root), ``"svd"`` (exact
        truncated SVD of each block) or ``"aca"`` (adaptive cross
        approximation, touches only a few rows/columns per block).
    tree:
        Reuse an existing cluster tree.
    seed:
        RNG seed for the randomized compression; every block's call uses it,
        so blocks of one width share one test matrix.
    """
    if tree is None:
        tree = build_cluster_tree(kernel_matrix.points, leaf_size=leaf_size)
    tree.require_partitioned("HODLR")
    check_method(method)
    sketches = GaussianSketches()

    def recurse(cnode: ClusterNode) -> HODLRNode:
        if cnode.is_leaf:
            rows = slice(cnode.start, cnode.stop)
            return HODLRNode(start=cnode.start, stop=cnode.stop, dense=kernel_matrix.block(rows, rows))
        left_c, right_c = cnode.children
        block = kernel_matrix.block(
            slice(left_c.start, left_c.stop), slice(right_c.start, right_c.stop)
        )
        upper = compress_offdiagonal(block, method, max_rank, tol, seed, sketches)
        lower = LowRankBlock(upper.V.copy(), upper.U.copy())  # symmetry: A_21 = A_12^T
        return HODLRNode(
            start=cnode.start,
            stop=cnode.stop,
            upper=upper,
            lower=lower,
            left=recurse(left_c),
            right=recurse(right_c),
        )

    return HODLRMatrix(recurse(tree.root), tree)

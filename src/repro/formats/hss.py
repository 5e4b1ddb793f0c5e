"""HSS (Hierarchically Semi-Separable) matrices with nested bases (paper Sec. 2).

An HSS matrix is a multi-level weak-admissibility format where the shared row
bases of successive levels are *nested*: the basis of a parent cluster is
expressed in the coordinates of its children's bases through a small transfer
matrix (Eq. 6).  This nesting is what drops the ULV factorization cost from
the BLR2's ~O(N^2) to O(N) (Sec. 3.2).

Two constructions are provided:

``dense_rows``
    Textbook construction: the leaf basis is computed from the full
    off-diagonal block row (Eq. 2), parent bases from the compressed children
    rows.  Exact but O(N^2) work -- used for validation and moderate N.

``interpolative``
    Fast skeleton-point construction (the approach used by HATRIX and, in
    randomized form, STRUMPACK): each cluster selects *skeleton points* by a
    row interpolative decomposition against a sampled proxy of its far field;
    couplings then only require kernel evaluations on skeleton points, giving
    near-linear construction cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.cluster_tree import ClusterTree, build_cluster_tree
from repro.kernels.assembly import KernelMatrix
from repro.lowrank.interpolative import interpolative_rows
from repro.lowrank.qr import row_basis

__all__ = ["HSSNode", "HSSMatrix", "build_hss", "HSSStructure"]


@dataclass
class HSSNode:
    """Per-cluster data of an HSS matrix.

    Attributes
    ----------
    level, index:
        Position in the cluster tree (root level 0, leaves at ``max_level``).
    start, stop:
        Global index range of the cluster.
    rank:
        Skeleton rank ``r`` of this cluster (0 for the root).
    U:
        Skeleton basis.  For a leaf: ``(size, r)`` with orthonormal columns.
        For an internal non-root node: the *transfer* matrix
        ``(r_child1 + r_child2, r)``.  ``None`` for the root.
    D:
        Dense diagonal block (leaves only).
    skeleton:
        Global indices of the skeleton points (interpolative construction
        only; ``None`` otherwise).
    """

    level: int
    index: int
    start: int
    stop: int
    rank: int = 0
    U: Optional[np.ndarray] = None
    D: Optional[np.ndarray] = None
    skeleton: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.stop - self.start


class HSSMatrix:
    """A symmetric HSS matrix.

    Parameters
    ----------
    tree:
        The complete binary cluster tree.
    nodes:
        Mapping ``(level, index) -> HSSNode``.
    couplings:
        Sibling coupling blocks ``S_{level; i, j}`` (``r_i x r_j``), stored for
        ``i > j`` (``i = 2k+1``, ``j = 2k``); symmetry provides the transpose.
    """

    def __init__(
        self,
        tree: ClusterTree,
        nodes: Dict[Tuple[int, int], HSSNode],
        couplings: Dict[Tuple[int, int, int], np.ndarray],
    ) -> None:
        self.tree = tree
        self.nodes = nodes
        self.couplings = couplings

    # -- structure accessors ----------------------------------------------
    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def max_level(self) -> int:
        return self.tree.max_level

    @property
    def leaf_size(self) -> int:
        return self.tree.leaf_size

    def node(self, level: int, index: int) -> HSSNode:
        return self.nodes[(level, index)]

    def level_ranks(self, level: int) -> List[int]:
        """Skeleton ranks of all nodes at ``level``."""
        return [self.nodes[(level, i)].rank for i in range(2**level)]

    def max_rank(self) -> int:
        """Largest skeleton rank over all non-root nodes."""
        return max(
            (node.rank for key, node in self.nodes.items() if key[0] > 0), default=0
        )

    def coupling(self, level: int, i: int, j: int) -> np.ndarray:
        """Sibling coupling ``S_{level; i, j}`` (transposed on demand for symmetry)."""
        if (level, i, j) in self.couplings:
            return self.couplings[(level, i, j)]
        if (level, j, i) in self.couplings:
            return self.couplings[(level, j, i)].T
        raise KeyError(f"no coupling stored for level {level}, ({i}, {j})")

    def block_size(self, level: int, index: int) -> int:
        """Row dimension of the ULV working block of node ``(level, index)``.

        At the leaf level this is the leaf cluster size; at internal levels it
        is the sum of the children's skeleton ranks (the merged block of
        Alg. 2).
        """
        if level == self.max_level:
            return self.nodes[(level, index)].size
        c1 = self.nodes[(level + 1, 2 * index)]
        c2 = self.nodes[(level + 1, 2 * index + 1)]
        return c1.rank + c2.rank

    # -- expanded bases and dense reconstruction ---------------------------
    def expanded_basis(self, level: int, index: int) -> np.ndarray:
        """Explicit (cluster-size x rank) basis obtained by expanding transfers.

        Only used for validation / dense reconstruction; the factorization
        never needs expanded bases.
        """
        node = self.nodes[(level, index)]
        if node.U is None:
            raise ValueError("the root has no basis")
        if level == self.max_level:
            return node.U
        e1 = self.expanded_basis(level + 1, 2 * index)
        e2 = self.expanded_basis(level + 1, 2 * index + 1)
        top = e1 @ node.U[: e1.shape[1], :]
        bot = e2 @ node.U[e1.shape[1] :, :]
        return np.vstack([top, bot])

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense matrix represented by the HSS approximation."""
        out = np.zeros((self.n, self.n))
        for i in range(2**self.max_level):
            node = self.nodes[(self.max_level, i)]
            out[node.start : node.stop, node.start : node.stop] = node.D
        for level in range(1, self.max_level + 1):
            for k in range(2 ** (level - 1)):
                j, i = 2 * k, 2 * k + 1
                ni = self.nodes[(level, i)]
                nj = self.nodes[(level, j)]
                ei = self.expanded_basis(level, i)
                ej = self.expanded_basis(level, j)
                s = self.coupling(level, i, j)
                block = ei @ s @ ej.T
                out[ni.start : ni.stop, nj.start : nj.stop] = block
                out[nj.start : nj.stop, ni.start : ni.stop] = block.T
        return out

    # -- matvec -------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product in O(N r) using the telescoping representation."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xm = x.reshape(self.n, -1)
        y = np.zeros_like(xm)
        max_level = self.max_level

        # Upward pass: compress x into each cluster's skeleton coordinates.
        xhat: Dict[Tuple[int, int], np.ndarray] = {}
        for i in range(2**max_level):
            node = self.nodes[(max_level, i)]
            xhat[(max_level, i)] = node.U.T @ xm[node.start : node.stop]
            y[node.start : node.stop] += node.D @ xm[node.start : node.stop]
        for level in range(max_level - 1, 0, -1):
            for i in range(2**level):
                node = self.nodes[(level, i)]
                stacked = np.vstack([xhat[(level + 1, 2 * i)], xhat[(level + 1, 2 * i + 1)]])
                xhat[(level, i)] = node.U.T @ stacked

        # Coupling application per level.
        yhat: Dict[Tuple[int, int], np.ndarray] = {
            key: np.zeros_like(val) for key, val in xhat.items()
        }
        for level in range(1, max_level + 1):
            for k in range(2 ** (level - 1)):
                j, i = 2 * k, 2 * k + 1
                s = self.coupling(level, i, j)
                yhat[(level, i)] += s @ xhat[(level, j)]
                yhat[(level, j)] += s.T @ xhat[(level, i)]

        # Downward pass: push parent contributions into children skeleton coords.
        for level in range(1, max_level):
            for i in range(2**level):
                node = self.nodes[(level, i)]
                expanded = node.U @ yhat[(level, i)]
                r1 = self.nodes[(level + 1, 2 * i)].rank
                yhat[(level + 1, 2 * i)] += expanded[:r1]
                yhat[(level + 1, 2 * i + 1)] += expanded[r1:]

        # Leaves: expand back to point coordinates.
        for i in range(2**max_level):
            node = self.nodes[(max_level, i)]
            y[node.start : node.stop] += node.U @ yhat[(max_level, i)]

        return y[:, 0] if single else y

    # -- accounting ---------------------------------------------------------
    def memory_bytes(self) -> int:
        """Total storage (diagonal blocks, bases/transfers, couplings)."""
        total = 0
        for node in self.nodes.values():
            if node.D is not None:
                total += node.D.nbytes
            if node.U is not None:
                total += node.U.nbytes
        total += sum(s.nbytes for s in self.couplings.values())
        return total

    def __repr__(self) -> str:
        return (
            f"HSSMatrix(n={self.n}, levels={self.max_level}, leaf_size={self.leaf_size}, "
            f"max_rank={self.max_rank()}, mem={self.memory_bytes() / 1e6:.1f} MB)"
        )


def _proxy_indices(
    start: int, stop: int, n: int, n_proxy: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample far-field column indices for a cluster ``[start, stop)``.

    Half of the sample is taken from the complement indices nearest to the
    cluster (where radial kernels vary the fastest) and the rest uniformly at
    random from the remaining complement.
    """
    complement = np.concatenate([np.arange(0, start), np.arange(stop, n)])
    if complement.size <= n_proxy:
        return complement
    n_near = min(n_proxy // 2, complement.size)
    near_left = np.arange(max(0, start - n_near // 2), start)
    near_right = np.arange(stop, min(n, stop + (n_near - near_left.size)))
    near = np.concatenate([near_left, near_right])[:n_near]
    remaining = np.setdiff1d(complement, near, assume_unique=False)
    n_far = n_proxy - near.size
    if remaining.size > n_far:
        far = rng.choice(remaining, size=n_far, replace=False)
    else:
        far = remaining
    return np.sort(np.concatenate([near, far]))


def build_hss(
    kernel_matrix: KernelMatrix,
    *,
    leaf_size: int = 256,
    max_rank: Optional[int] = 100,
    tol: Optional[float] = None,
    method: str = "interpolative",
    n_proxy: Optional[int] = None,
    tree: Optional[ClusterTree] = None,
    seed: int = 0,
) -> HSSMatrix:
    """Construct a symmetric HSS matrix from a lazily assembled kernel matrix.

    Parameters
    ----------
    kernel_matrix:
        The SPD kernel matrix.
    leaf_size:
        Leaf cluster size (paper values 256/512).
    max_rank:
        Cap on the skeleton rank of every cluster (paper "max rank").
    tol:
        Optional relative tolerance for adaptive ranks (applied in addition to
        the cap).
    method:
        ``"interpolative"`` (fast, default) or ``"dense_rows"`` (exact block
        rows, O(N^2) work).
    n_proxy:
        Number of sampled far-field columns per cluster for the interpolative
        construction (default ``max(2 * max_rank, 128)``).
    tree:
        Reuse an existing cluster tree.
    seed:
        RNG seed for proxy sampling.

    Returns
    -------
    HSSMatrix
    """
    if tree is None:
        tree = build_cluster_tree(kernel_matrix.points, leaf_size=leaf_size)
    if tree.max_level < 1:
        raise ValueError(
            "HSS requires at least one level of partitioning; "
            "decrease leaf_size or increase N"
        )
    n = kernel_matrix.n
    max_level = tree.max_level
    rng = np.random.default_rng(seed)
    if n_proxy is None:
        n_proxy = max(2 * (max_rank or 64), 128)

    nodes: Dict[Tuple[int, int], HSSNode] = {}
    couplings: Dict[Tuple[int, int, int], np.ndarray] = {}
    # Row-weight matrices of the interpolative construction (G in the design
    # notes): E_i^T A[I_i, J] ~= G_i A[skeleton_i, J].
    gmat: Dict[Tuple[int, int], np.ndarray] = {}
    # Expanded bases kept only for the dense_rows construction.
    expanded: Dict[Tuple[int, int], np.ndarray] = {}

    for level in range(max_level + 1):
        for index, cnode in enumerate(tree.level_nodes(level)):
            nodes[(level, index)] = HSSNode(
                level=level, index=index, start=cnode.start, stop=cnode.stop
            )

    if method not in ("interpolative", "dense_rows"):
        raise ValueError(f"unknown construction method {method!r}")

    # ---- leaf level -------------------------------------------------------
    for i, leaf in enumerate(tree.leaves):
        node = nodes[(max_level, i)]
        rows = slice(leaf.start, leaf.stop)
        node.D = kernel_matrix.block(rows, rows)
        if method == "dense_rows":
            comp = np.concatenate([np.arange(0, leaf.start), np.arange(leaf.stop, n)])
            block_row = kernel_matrix.block(rows, comp)
            u = row_basis(block_row, rank=max_rank, tol=tol)
            node.U = u
            node.rank = u.shape[1]
            expanded[(max_level, i)] = u
        else:
            proxy = _proxy_indices(leaf.start, leaf.stop, n, n_proxy, rng)
            block_row = kernel_matrix.block(rows, proxy)
            sel, p = interpolative_rows(block_row, rank=max_rank, tol=tol)
            q, r = np.linalg.qr(p)
            node.U = q
            node.rank = q.shape[1]
            node.skeleton = np.arange(leaf.start, leaf.stop)[sel]
            gmat[(max_level, i)] = r

    # ---- internal levels (bottom-up transfers) -----------------------------
    for level in range(max_level - 1, 0, -1):
        for index, cnode in enumerate(tree.level_nodes(level)):
            node = nodes[(level, index)]
            c1 = nodes[(level + 1, 2 * index)]
            c2 = nodes[(level + 1, 2 * index + 1)]
            if method == "dense_rows":
                comp = np.concatenate(
                    [np.arange(0, cnode.start), np.arange(cnode.stop, n)]
                )
                w1 = expanded[(level + 1, 2 * index)].T @ kernel_matrix.block(
                    slice(c1.start, c1.stop), comp
                )
                w2 = expanded[(level + 1, 2 * index + 1)].T @ kernel_matrix.block(
                    slice(c2.start, c2.stop), comp
                )
                w = np.vstack([w1, w2])
                u = row_basis(w, rank=max_rank, tol=tol)
                node.U = u
                node.rank = u.shape[1]
                expanded[(level, index)] = np.vstack(
                    [
                        expanded[(level + 1, 2 * index)] @ u[: c1.rank],
                        expanded[(level + 1, 2 * index + 1)] @ u[c1.rank :],
                    ]
                )
            else:
                union_skel = np.concatenate([c1.skeleton, c2.skeleton])
                proxy = _proxy_indices(cnode.start, cnode.stop, n, n_proxy, rng)
                b = kernel_matrix.block(union_skel, proxy)
                sel, p = interpolative_rows(b, rank=max_rank, tol=tol)
                g_children = np.zeros((c1.rank + c2.rank, c1.rank + c2.rank))
                g_children[: c1.rank, : c1.rank] = gmat[(level + 1, 2 * index)]
                g_children[c1.rank :, c1.rank :] = gmat[(level + 1, 2 * index + 1)]
                t = g_children @ p
                q, r = np.linalg.qr(t)
                node.U = q
                node.rank = q.shape[1]
                node.skeleton = union_skel[sel]
                gmat[(level, index)] = r

    # ---- sibling couplings --------------------------------------------------
    for level in range(1, max_level + 1):
        for k in range(2 ** (level - 1)):
            j, i = 2 * k, 2 * k + 1
            ni = nodes[(level, i)]
            nj = nodes[(level, j)]
            if method == "dense_rows":
                block = kernel_matrix.block(slice(ni.start, ni.stop), slice(nj.start, nj.stop))
                s = expanded[(level, i)].T @ block @ expanded[(level, j)]
            else:
                kss = kernel_matrix.block(ni.skeleton, nj.skeleton)
                s = gmat[(level, i)] @ kss @ gmat[(level, j)].T
            couplings[(level, i, j)] = s

    return HSSMatrix(tree=tree, nodes=nodes, couplings=couplings)


@dataclass
class HSSStructure:
    """Structural (rank/size only) description of an HSS matrix.

    Used by the task-graph builders and the distributed-machine simulator to
    generate the HSS-ULV task DAG for paper-scale problem sizes without doing
    any numerical work.

    Attributes
    ----------
    n:
        Matrix dimension.
    leaf_size:
        Leaf cluster size.
    max_level:
        Depth of the leaf level.
    ranks:
        Mapping ``(level, index) -> skeleton rank``.
    leaf_sizes:
        Mapping ``leaf index -> rows`` of a structure taken from a matrix
        (the cluster tree splits at index midpoints, so leaves of a ragged
        ``n`` differ in size); empty for a uniform structure, whose leaves
        all have ``n // 2**max_level`` rows.
    """

    n: int
    leaf_size: int
    max_level: int
    ranks: Dict[Tuple[int, int], int] = field(default_factory=dict)
    leaf_sizes: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_matrix(cls, hss: HSSMatrix) -> "HSSStructure":
        """Extract the structure of a constructed :class:`HSSMatrix`."""
        ranks = {
            key: node.rank for key, node in hss.nodes.items() if key[0] > 0
        }
        leaf_sizes = {
            i: hss.block_size(hss.max_level, i) for i in range(2**hss.max_level)
        }
        return cls(
            n=hss.n, leaf_size=hss.leaf_size, max_level=hss.max_level, ranks=ranks,
            leaf_sizes=leaf_sizes,
        )

    @classmethod
    def synthetic(cls, n: int, leaf_size: int, rank: int) -> "HSSStructure":
        """Uniform-rank structure for a problem of size ``n`` (simulation input).

        The number of levels is chosen so the leaf blocks have size
        ``leaf_size`` (``n`` must be ``leaf_size * 2**L`` for some ``L >= 1``).
        """
        if n < 2 * leaf_size:
            raise ValueError("need at least two leaf blocks")
        max_level = 0
        size = n
        while size > leaf_size:
            if size % 2 != 0:
                raise ValueError("n must be leaf_size * 2**L")
            size //= 2
            max_level += 1
        if size != leaf_size:
            raise ValueError("n must be leaf_size * 2**L")
        rank = min(rank, leaf_size)
        ranks: Dict[Tuple[int, int], int] = {}
        for level in range(1, max_level + 1):
            for index in range(2**level):
                if level == max_level:
                    ranks[(level, index)] = min(rank, leaf_size)
                else:
                    ranks[(level, index)] = min(rank, 2 * rank)
        return cls(n=n, leaf_size=leaf_size, max_level=max_level, ranks=ranks)

    def rank(self, level: int, index: int) -> int:
        """Skeleton rank of node ``(level, index)``."""
        return self.ranks[(level, index)]

    def block_size(self, level: int, index: int) -> int:
        """ULV working-block size of node ``(level, index)`` (see HSSMatrix.block_size)."""
        if level == self.max_level:
            return self.leaf_sizes.get(index, self.n // 2**self.max_level)
        return self.rank(level + 1, 2 * index) + self.rank(level + 1, 2 * index + 1)

    def num_blocks(self, level: int) -> int:
        return 2**level

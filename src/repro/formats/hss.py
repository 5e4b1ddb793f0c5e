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

from repro.formats.blr2 import BLR2Matrix, far_block_row
from repro.geometry.cluster_tree import ClusterTree, build_cluster_tree
from repro.kernels.assembly import KernelMatrix
from repro.lowrank.interpolative import interpolative_rows
from repro.lowrank.qr import row_basis

__all__ = [
    "HSSNode",
    "HSSMatrix",
    "build_hss",
    "check_construction",
    "draw_proxies",
    "interpolative_leaf_basis",
    "interpolative_translation",
    "interpolative_coupling",
    "dense_leaf_basis",
    "dense_translation",
    "dense_coupling",
    "HSSStructure",
]


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

    # -- what the ULV engine reads (BLR2Matrix provides the same three) -----
    def leaf_block(self, index: int) -> np.ndarray:
        """Dense diagonal block of leaf ``index``."""
        return self.nodes[(self.max_level, index)].D

    def node_basis(self, level: int, index: int) -> np.ndarray:
        """Basis (leaf) or transfer matrix (interior) ``U`` of node ``(level, index)``."""
        return self.nodes[(level, index)].U

    node_coupling = coupling

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


def _complement(start: int, stop: int, n: int) -> np.ndarray:
    """Every index of ``0..n`` outside the cluster ``[start, stop)``."""
    return np.concatenate([np.arange(0, start), np.arange(stop, n)])


def _proxy_indices(
    start: int, stop: int, n: int, n_proxy: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample far-field column indices for a cluster ``[start, stop)``.

    Half of the sample is taken from the complement indices nearest to the
    cluster (where radial kernels vary the fastest) and the rest uniformly at
    random from the remaining complement.

    The near part is the run ``[lo, start) u [stop, hi)``, so the remaining
    complement is ``[0, lo) u [hi, n)`` and a draw of positions in it maps to
    indices without ever building it.  ``Generator.choice(a, ...)`` returns
    ``a[choice(len(a), ...)]``, so these are the columns -- and the RNG
    stream -- of choosing from the materialised complement, while the index
    work is O(n_proxy) per cluster: from more than 10 000 candidates numpy
    draws a small sample by Floyd's algorithm, without an index array.
    """
    if n - (stop - start) <= n_proxy:
        return _complement(start, stop, n)
    n_near = n_proxy // 2
    lo = max(0, start - n_near // 2)
    hi = min(n, stop + n_near - (start - lo))
    near = np.concatenate([np.arange(lo, start), np.arange(stop, hi)])
    # The complement outnumbers n_proxy, so the rest outnumbers n_far.
    pos = rng.choice(lo + (n - hi), size=n_proxy - near.size, replace=False)
    far = np.where(pos < lo, pos, pos + (hi - lo))
    return np.sort(np.concatenate([near, far]))


def check_construction(
    tree: ClusterTree, method: str, max_rank: Optional[int], n_proxy: Optional[int]
) -> int:
    """Validate an HSS construction's tree and method; return its proxy count."""
    tree.require_partitioned("HSS")
    if method not in ("interpolative", "dense_rows"):
        raise ValueError(f"unknown construction method {method!r}")
    return n_proxy if n_proxy is not None else max(2 * (max_rank or 64), 128)


def draw_proxies(tree: ClusterTree, n_proxy: int, seed: int) -> Dict[Tuple[int, int], np.ndarray]:
    """Proxy columns of every non-root cluster, keyed ``(level, index)``.

    Drawn from one ``default_rng(seed)`` stream in the order the
    interpolative construction visits the clusters (levels bottom-up, each
    level's clusters ascending).  Nothing else draws from that stream, so
    drawing every proxy up front gives each cluster the same columns as
    drawing it just before its ID.
    """
    rng = np.random.default_rng(seed)
    proxies: Dict[Tuple[int, int], np.ndarray] = {}
    for level in range(tree.max_level, 0, -1):
        for index, cnode in enumerate(tree.level_nodes(level)):
            proxies[(level, index)] = _proxy_indices(
                cnode.start, cnode.stop, tree.n, n_proxy, rng
            )
    return proxies


# ---- per-node construction steps ---------------------------------------------
# Each basis step fills one node's basis fields and returns the *basis info*
# its parent's translation and its sibling coupling read: a ``(skeleton, G)`` pair
# for the interpolative construction (``G`` the row-weight factor with
# ``E^T A[I, J] ~= G A[skeleton, J]``), the expanded cluster basis for
# ``dense_rows`` (whose sibling coupling is ``E_i^T A[I_i, I_j] E_j``,
# :func:`dense_coupling`).  :func:`build_hss` and
# the construction task graph (:class:`repro.compress.hss.HSSCompressBuilder`)
# both call these.

SkeletonInfo = Tuple[np.ndarray, np.ndarray]


def interpolative_leaf_basis(
    kernel_matrix: KernelMatrix, node: HSSNode, proxy: np.ndarray, max_rank, tol
) -> SkeletonInfo:
    """Leaf skeleton basis: row ID of the proxy block row, then QR of the interpolant."""
    block_row = kernel_matrix.block(slice(node.start, node.stop), proxy)
    sel, p = interpolative_rows(block_row, rank=max_rank, tol=tol)
    q, r = np.linalg.qr(p)
    node.U, node.rank, node.skeleton = q, q.shape[1], np.arange(node.start, node.stop)[sel]
    return node.skeleton, r


def interpolative_translation(
    kernel_matrix: KernelMatrix, node: HSSNode, info1: SkeletonInfo,
    info2: SkeletonInfo, proxy: np.ndarray, max_rank, tol,
) -> SkeletonInfo:
    """Parent transfer matrix from the children's ``(skeleton, G)`` (Eq. 6)."""
    (skel1, g1), (skel2, g2) = info1, info2
    union_skel = np.concatenate([skel1, skel2])
    sel, p = interpolative_rows(kernel_matrix.block(union_skel, proxy), rank=max_rank, tol=tol)
    r1, r2 = g1.shape[0], g2.shape[0]
    g_children = np.zeros((r1 + r2, r1 + r2))
    g_children[:r1, :r1] = g1
    g_children[r1:, r1:] = g2
    q, r = np.linalg.qr(g_children @ p)
    node.U, node.rank, node.skeleton = q, q.shape[1], union_skel[sel]
    return node.skeleton, r


def interpolative_coupling(
    kernel_matrix: KernelMatrix, info_i: SkeletonInfo, info_j: SkeletonInfo
) -> np.ndarray:
    """Sibling coupling ``G_i A[skeleton_i, skeleton_j] G_j^T``."""
    (skel_i, g_i), (skel_j, g_j) = info_i, info_j
    return g_i @ kernel_matrix.block(skel_i, skel_j) @ g_j.T


def dense_leaf_basis(kernel_matrix: KernelMatrix, node: HSSNode, max_rank, tol) -> np.ndarray:
    """Leaf basis from the full off-diagonal block row: the BLR2 shared basis (Eq. 2)."""
    u = row_basis(far_block_row(kernel_matrix, node), rank=max_rank, tol=tol)
    node.U, node.rank = u, u.shape[1]
    return u


def dense_translation(
    kernel_matrix: KernelMatrix, node: HSSNode, c1: HSSNode, c2: HSSNode,
    e1: np.ndarray, e2: np.ndarray, max_rank, tol,
) -> np.ndarray:
    """Parent transfer matrix from the children's compressed block rows.

    ``c1`` / ``c2`` give the children's index ranges and ``e1`` / ``e2``
    their expanded bases; returns the parent's expanded basis.
    """
    comp = _complement(node.start, node.stop, kernel_matrix.n)
    w1 = e1.T @ kernel_matrix.block(slice(c1.start, c1.stop), comp)
    w2 = e2.T @ kernel_matrix.block(slice(c2.start, c2.stop), comp)
    u = row_basis(np.vstack([w1, w2]), rank=max_rank, tol=tol)
    node.U, node.rank = u, u.shape[1]
    r1 = e1.shape[1]
    return np.vstack([e1 @ u[:r1], e2 @ u[r1:]])


def dense_coupling(
    kernel_matrix: KernelMatrix, ci, cj, e_i: np.ndarray, e_j: np.ndarray
) -> np.ndarray:
    """Sibling coupling ``E_i^T A[I_i, I_j] E_j`` of clusters ``ci``, ``cj``."""
    block = kernel_matrix.block(slice(ci.start, ci.stop), slice(cj.start, cj.stop))
    return e_i.T @ block @ e_j


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
    n_proxy = check_construction(tree, method, max_rank, n_proxy)
    max_level = tree.max_level
    dense = method == "dense_rows"
    proxies = {} if dense else draw_proxies(tree, n_proxy, seed)

    nodes: Dict[Tuple[int, int], HSSNode] = {}
    couplings: Dict[Tuple[int, int, int], np.ndarray] = {}
    # Basis info per cluster (see the per-node steps above).
    info: Dict[Tuple[int, int], object] = {}

    for level in range(max_level + 1):
        for index, cnode in enumerate(tree.level_nodes(level)):
            nodes[(level, index)] = HSSNode(
                level=level, index=index, start=cnode.start, stop=cnode.stop
            )

    # ---- leaf level -------------------------------------------------------
    for i in range(len(tree.leaves)):
        key = (max_level, i)
        node = nodes[key]
        rows = slice(node.start, node.stop)
        node.D = kernel_matrix.block(rows, rows)
        if dense:
            info[key] = dense_leaf_basis(kernel_matrix, node, max_rank, tol)
        else:
            info[key] = interpolative_leaf_basis(
                kernel_matrix, node, proxies[key], max_rank, tol
            )

    # ---- internal levels (bottom-up transfers) -----------------------------
    for level in range(max_level - 1, 0, -1):
        for index in range(2**level):
            key, k1, k2 = (level, index), (level + 1, 2 * index), (level + 1, 2 * index + 1)
            if dense:
                info[key] = dense_translation(
                    kernel_matrix, nodes[key], nodes[k1], nodes[k2],
                    info[k1], info[k2], max_rank, tol,
                )
            else:
                info[key] = interpolative_translation(
                    kernel_matrix, nodes[key], info[k1], info[k2],
                    proxies[key], max_rank, tol,
                )

    # ---- sibling couplings --------------------------------------------------
    for level in range(1, max_level + 1):
        for k in range(2 ** (level - 1)):
            ki, kj = (level, 2 * k + 1), (level, 2 * k)
            if dense:
                s = dense_coupling(kernel_matrix, nodes[ki], nodes[kj], info[ki], info[kj])
            else:
                s = interpolative_coupling(kernel_matrix, info[ki], info[kj])
            couplings[(level, 2 * k + 1, 2 * k)] = s

    return HSSMatrix(tree=tree, nodes=nodes, couplings=couplings)


@dataclass
class HSSStructure:
    """Structural (rank/size only) description of a matrix the ULV engine factors.

    The one interface :class:`~repro.pipeline.factorize.HSSULVFactorizeBuilder`
    records from (:attr:`levels`, :meth:`block_size`, :meth:`rank` and
    :meth:`merges`).  Built from a matrix (:meth:`from_matrix`) it shapes
    the graph that executes; passed to the builder directly, it yields the
    same graph symbolically, so the distributed-machine simulator replays
    paper-scale problem sizes without any numerical work.

    An HSS matrix factors every level ``max_level .. 1`` and merges sibling
    pairs (Alg. 2).  A BLR2 matrix is a one-level tree: it factors its leaf
    level only, and the root merges all of its rows (Alg. 1).

    Attributes
    ----------
    n:
        Matrix dimension.
    leaf_size:
        Leaf cluster size.
    max_level:
        Depth of the leaf level.
    ranks:
        Mapping ``(level, index) -> skeleton rank`` of the factored levels.
    leaf_sizes:
        Mapping ``leaf index -> rows`` of a structure taken from a matrix
        (the cluster tree splits at index midpoints, so leaves of a ragged
        ``n`` differ in size); empty for a uniform structure, whose leaves
        all have ``n // 2**max_level`` rows.
    levels:
        The factored tree levels, leaves first (default: ``max_level .. 1``).
    """

    n: int
    leaf_size: int
    max_level: int
    ranks: Dict[Tuple[int, int], int] = field(default_factory=dict)
    leaf_sizes: Dict[int, int] = field(default_factory=dict)
    levels: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.levels:
            self.levels = tuple(range(self.max_level, 0, -1))

    @classmethod
    def from_matrix(cls, matrix) -> "HSSStructure":
        """Extract the structure of a constructed :class:`HSSMatrix` or BLR2 matrix."""
        tree = matrix.tree
        levels = (tree.max_level,) if isinstance(matrix, BLR2Matrix) else ()
        return cls(
            n=tree.n, leaf_size=tree.leaf_size, max_level=tree.max_level,
            ranks={
                (level, i): matrix.node_basis(level, i).shape[1]
                for level in levels or range(tree.max_level, 0, -1)
                for i in range(2**level)
            },
            leaf_sizes={i: leaf.size for i, leaf in enumerate(tree.leaves)},
            levels=levels,
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
        ranks = {
            (level, index): rank
            for level in range(1, max_level + 1)
            for index in range(2**level)
        }
        return cls(n=n, leaf_size=leaf_size, max_level=max_level, ranks=ranks)

    def rank(self, level: int, index: int) -> int:
        """Skeleton rank of node ``(level, index)``."""
        return self.ranks[(level, index)]

    def children(self, level: int, index: int) -> range:
        """The nodes merged into node ``(level, index)``.

        They are the nodes ``i`` of the next factored level ``l`` below
        ``level`` with ``i >> (l - level) == index``: two siblings for HSS,
        every block row for the BLR2 root.
        """
        shift = min(l for l in self.levels if l > level) - level
        return range(index << shift, (index + 1) << shift)

    def merges(self, level: int):
        """``(parent, k, nodes)`` per merge of factored ``level``'s ``nodes`` into ``(parent, k)``.

        ``parent`` is the next factored level up, or the root level 0.
        """
        parent = max((p for p in self.levels if p < level), default=0)
        for k in range(2**parent):
            yield parent, k, self.children(parent, k)

    def block_size(self, level: int, index: int) -> int:
        """ULV working-block size of node ``(level, index)``: the leaf size, or
        the sum of its children's ranks (the merged block)."""
        if level == self.max_level:
            return self.leaf_sizes.get(index, self.n // 2**self.max_level)
        child = min(l for l in self.levels if l > level)
        return sum(self.rank(child, i) for i in self.children(level, index))

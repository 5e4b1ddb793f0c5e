"""Level-stacked ULV factors and the one implementation of the ULV substitution.

HSS-ULV is level-synchronous (Alg. 2): every node of a tree level does the
same-shaped work -- rotate with ``U = [U^R U^S]``, eliminate the redundant
unknowns with ``L^RR``, update the skeleton unknowns with ``L^SR`` -- and no
node of a level depends on another.  A BLR2 factor (Alg. 1) is the
one-level case of the same tree.

The square ``U`` is never stored: only ``U^S`` carries information, so each
node keeps the compact-WY Householder QR ``U^S = Q_S R`` (Schreiber & Van
Loan; LAPACK ``dgeqrt``) -- reflectors ``V`` and ``T`` with
``Q = [Q_S Q_R] = I - V T V^T``, and ``R`` -- and rotates with
``[Q_R Q_S R]``, so the skeleton coordinates stay in the ``U^S`` basis the
couplings and the merge use.

:class:`LevelFactors` stores one level's factors as stacked arrays, the nodes
grouped by shape ``(m, r)``: ``V`` as ``(g, m, r)``, ``T`` and ``R`` as
``(g, r, r)``, ``L_rr`` as ``(g, m - r, m - r)``, ``L_sr`` as
``(g, r, m - r)`` and the skeleton Schur complements as ``(g, r, r)``.  A
uniform level (every leaf of an ``n = 2^p`` problem, every node above a
fixed-rank leaf level) is one group; a ragged level has one group per
distinct shape.  Nothing is padded.

A level's right-hand side travels as one *flat* ``(rows, k)`` block holding
the node blocks in node order.  Because a parent's working block is its
children's skeleton blocks stacked (the merge), the flat skeleton output of
a factored level *is* the flat input of the next one up; for a uniform
level the per-node blocks are zero-copy reshapes of the flat block.

:func:`forward_level`, :func:`backward_level` and :func:`root_solve` are the
substitution of Eq. 15/17 for a chunk of consecutive nodes of a level.  The
sequential reference (:meth:`HSSULVFactor.solve
<repro.core.hss_ulv.HSSULVFactor.solve>`, every format) runs each level as one chunk;
the task-graph solve builders of :mod:`repro.pipeline.solve` run a level as one
task per owner chunk.  Each product is one ``np.matmul`` over (transposed)
*views* of the stacks, which numpy runs as one BLAS call per node with the
same operands and strides as the per-node product (``V.T @ w``), plus one
LAPACK ``trtrs`` per node, so every chunking of a level yields the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgeqrt, dtrtrs

from repro.core.partial_cholesky import PartialCholeskyResult, partial_cholesky
from repro.lowrank.lapack import dsyr2k

__all__ = [
    "NodeGroup",
    "LevelFactors",
    "check_finite",
    "solve_triangular",
    "square_basis",
    "forward_level",
    "backward_level",
    "root_solve",
    "ulv_solve",
]


def solve_triangular(a: np.ndarray, b: np.ndarray, *, lower: bool) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, lower=lower)`` without its wrapper.

    Makes the LAPACK ``trtrs`` call scipy makes -- a C-ordered ``a`` goes in
    transposed with ``trans=1``, since ``trtrs`` expects Fortran order -- so
    the result has the same bits, but skips the argument conversion and the
    ``check_finite`` scans (right-hand sides are checked once at entry,
    :func:`repro.core.rhs.validate_rhs`; factors once after factorization,
    :func:`check_finite`).
    """
    if b.size == 0:
        return np.empty_like(b)
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=lower)
    else:
        x, info = dtrtrs(a.T, b, lower=not lower, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (trtrs info={info})")
    return x


def square_basis(v: np.ndarray, t: np.ndarray, skeleton: np.ndarray) -> np.ndarray:
    """The square ``[Q_R U^S]`` a node rotates with, built from its reflectors.

    For inspection only: the factors never store it.  ``Q_R`` is the
    trailing ``m - r`` columns of ``I - V T V^T``; the skeleton columns are
    ``skeleton`` itself.
    """
    m, r = v.shape
    q_r = np.eye(m)[:, r:] - v @ (t @ v[r:].T)
    return np.hstack([q_r, skeleton])


@dataclass
class NodeGroup:
    """The stacked factors of the nodes of one level that share a shape.

    ``nodes`` holds the (sorted) level indices of the group's nodes; slice
    ``j`` of every stack belongs to node ``nodes[j]``.
    """

    nodes: np.ndarray
    size: int
    rank: int
    V: np.ndarray
    T: np.ndarray
    R: np.ndarray
    L_rr: np.ndarray
    L_sr: np.ndarray
    schur: np.ndarray

    @classmethod
    def empty(cls, nodes: Sequence[int], size: int, rank: int) -> "NodeGroup":
        g, nr = len(nodes), size - rank
        return cls(
            nodes=np.asarray(nodes, dtype=np.intp),
            size=size,
            rank=rank,
            V=np.empty((g, size, rank)),
            T=np.empty((g, rank, rank)),
            R=np.empty((g, rank, rank)),
            L_rr=np.empty((g, nr, nr)),
            L_sr=np.empty((g, rank, nr)),
            schur=np.empty((g, rank, rank)),
        )

    @property
    def stacks(self) -> Tuple[np.ndarray, ...]:
        """``(V, T, R, L_rr, L_sr, schur)``, the order of a node's arrays everywhere."""
        return self.V, self.T, self.R, self.L_rr, self.L_sr, self.schur

    @property
    def solve_stacks(self) -> Tuple[np.ndarray, ...]:
        """The stacks the solve reads: all but the Schur complements."""
        return self.stacks[:5]


class LevelFactors:
    """ULV factors of one tree level, stacked per node shape.

    Built empty from the level's block sizes and ranks; the factorization
    writes each node's factors into its slot (:meth:`set_basis`,
    :meth:`set_partial`).  :meth:`node_views` returns views into the stacks.
    """

    def __init__(self, sizes: Sequence[int], ranks: Sequence[int]) -> None:
        self.sizes = np.asarray(sizes, dtype=np.intp)
        self.ranks = np.asarray(ranks, dtype=np.intp)
        if self.sizes.shape != self.ranks.shape or np.any(self.ranks > self.sizes):
            raise ValueError("a level needs one rank <= block size per node")
        #: Row offset of each node's block in the level's flat input (and output).
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        #: Row offset of each node's skeleton block in the flat skeleton output.
        self.skeleton_offsets = np.concatenate([[0], np.cumsum(self.ranks)])
        by_shape: dict = {}
        for i, shape in enumerate(zip(self.sizes.tolist(), self.ranks.tolist())):
            by_shape.setdefault(shape, []).append(i)
        self.groups: List[NodeGroup] = [
            NodeGroup.empty(nodes, m, r) for (m, r), nodes in by_shape.items()
        ]
        self._slot = {
            int(i): (group, pos)
            for group in self.groups
            for pos, i in enumerate(group.nodes)
        }
        self._views = None

    @property
    def num_nodes(self) -> int:
        return len(self.sizes)

    def __repr__(self) -> str:
        shapes = ", ".join(f"{len(g.nodes)}x({g.size}, {g.rank})" for g in self.groups)
        return f"LevelFactors({shapes})"

    # -- factorization writes ------------------------------------------------
    def set_basis(self, i: int, skeleton: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Write ``U^S = Q_S R`` of node ``i`` (``dgeqrt``); return the rotated block ``Q^T D Q``.

        The diagonal product (Eq. 3-4) of the symmetric working block ``d``
        in the Householder basis, skeleton rows and columns first, as a copy
        of ``d`` of which only the lower triangle is updated: the two-sided
        update ``Q^T D Q = D - (Z V^T + V Z^T)`` with ``Y = D V T`` and
        ``Z = Y - V (T^T V^T Y) / 2`` is one ``dsyr2k``, ``O(m^2 r)`` flops.
        :meth:`set_partial` eliminates it.
        """
        group, pos = self._slot[i]
        r = group.rank
        v, t, rr = group.V[pos], group.T[pos], group.R[pos]
        rotated = np.array(d, dtype=np.float64, order="C")
        if not r:
            return rotated
        qr, t[...], info = dgeqrt(r, skeleton)
        if info != 0:
            raise np.linalg.LinAlgError(f"basis QR failed (geqrt info={info})")
        rr[...] = np.triu(qr[:r])
        v[...] = np.tril(qr, -1)
        v[np.diag_indices(r)] = 1.0
        y = d @ v @ t
        z = y - 0.5 * (v @ (t.T @ (v.T @ y)))
        # Column-major, the C-ordered copy is D^T, and its lower triangle is
        # the upper triangle of that.
        dsyr2k("U", "T", -1.0, z.T, v.T, 1.0, rotated.T)
        return rotated

    def set_partial(self, i: int, rotated: np.ndarray, *, level: Optional[int] = None) -> np.ndarray:
        """Eliminate node ``i``'s rotated block and write its factors; returns the Schur complement slot.

        :func:`~repro.core.partial_cholesky.partial_cholesky` of
        :meth:`set_basis`'s output with the node's ``R``; ``level`` names the
        tree level in a :class:`~repro.core.partial_cholesky.NotPositiveDefinite`.
        """
        group, pos = self._slot[i]
        part = partial_cholesky(rotated, group.rank, group.R[pos], level=level, node=i)
        group.L_rr[pos] = part.L_rr
        group.L_sr[pos] = part.L_sr
        group.schur[pos] = part.schur_ss
        return group.schur[pos]

    def store(self, i: int, arrays: Tuple[np.ndarray, ...]) -> None:
        """Write ``(V, T, R, L_rr, L_sr, schur)`` of node ``i`` (a shipped fragment)."""
        group, pos = self._slot[i]
        for stack, value in zip(group.stacks, arrays):
            stack[pos] = value

    # -- views ---------------------------------------------------------------
    def node_arrays(self, i: int) -> Tuple[np.ndarray, ...]:
        """``(V, T, R, L_rr, L_sr, schur)`` of node ``i`` as views into the stacks."""
        group, pos = self._slot[i]
        return tuple(stack[pos] for stack in group.stacks)

    def node_views(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, PartialCholeskyResult]]:
        """``(V, T, R, partial)`` per node, as views into the stacks (built once, not pickled)."""
        if self._views is None:
            self._views = []
            for i in range(self.num_nodes):
                v, t, rr, l_rr, l_sr, schur = self.node_arrays(i)
                part = PartialCholeskyResult(L_rr=l_rr, L_sr=l_sr, schur_ss=schur)
                self._views.append((v, t, rr, part))
        return self._views

    def __getstate__(self) -> dict:
        # Pickle the stacks only: a view pickles as a copy of its data.
        state = dict(self.__dict__)
        state["_views"] = None
        return state

    # -- chunking --------------------------------------------------------------
    def chunk_groups(self, lo: int, hi: int) -> Iterator[Tuple[NodeGroup, int, int]]:
        """``(group, a, b)`` per group with nodes in ``lo..hi-1``: its stack rows ``a..b-1``.

        A chunk is a range of consecutive nodes, so its members of one group
        are a contiguous range of that group's (sorted) stack.
        """
        for group in self.groups:
            a, b = np.searchsorted(group.nodes, (lo, hi))
            if a < b:
                yield group, int(a), int(b)


def check_finite(levels: Sequence[LevelFactors], root_chol: np.ndarray) -> None:
    """Raise :class:`numpy.linalg.LinAlgError` if a factor entry is NaN/Inf.

    Run once at the end of a factorization: the solve kernels skip
    per-call finiteness scans.
    """
    stacks = [s for level in levels for g in level.groups for s in g.solve_stacks]
    for stack in stacks + [root_chol]:
        if not np.isfinite(stack).all():
            raise np.linalg.LinAlgError(
                "the ULV factors contain non-finite values; the matrix is not "
                "numerically SPD"
            )


# -- flat-block gather/scatter for chunks that hold more than one shape -------
def _block_rows(offsets: np.ndarray, nodes: np.ndarray, width: int, lo: int) -> np.ndarray:
    return (offsets[nodes] - offsets[lo])[:, None] + np.arange(width)


def forward_level(
    level: LevelFactors, w: np.ndarray, lo: int = 0, hi: Optional[int] = None
) -> Tuple[list, np.ndarray]:
    """Forward substitution (rotate, eliminate redundant unknowns) of nodes ``lo..hi-1``.

    ``w`` is the chunk's flat input ``(offsets[hi] - offsets[lo], k)``.
    Returns ``(z, s)``: ``z`` the redundant solutions, one stack per group
    (consumed by :func:`backward_level` on the same chunk), and ``s`` the
    flat skeleton block, which is the parent level's flat input.
    """
    hi = level.num_nodes if hi is None else hi
    k = w.shape[1]
    parts = list(level.chunk_groups(lo, hi))
    # One shape in the chunk: its node blocks are w itself, reshaped.
    uniform = len(parts) == 1
    if not uniform:
        s = np.empty((level.skeleton_offsets[hi] - level.skeleton_offsets[lo], k))
    z = []
    for group, a, b in parts:
        nodes, m, r = group.nodes[a:b], group.size, group.rank
        wg = w.reshape(b - a, m, k) if uniform else w[_block_rows(level.offsets, nodes, m, lo)]
        v = group.V[a:b]
        # y = Q^T w = w - V T^T (V^T w): rows r.. are Q_R^T w, rows ..r Q_S^T w.
        vtw = np.matmul(v.transpose(0, 2, 1), wg)
        y = wg - np.matmul(v, np.matmul(group.T[a:b].transpose(0, 2, 1), vtw))
        # The skeleton part in the U^S basis: (Q_S R)^T w = R^T y[:r].
        bs = np.matmul(group.R[a:b].transpose(0, 2, 1), y[:, :r])
        if m - r:
            zg = np.empty((b - a, m - r, k))
            for j in range(b - a):
                zg[j] = solve_triangular(group.L_rr[a + j], y[j, r:], lower=True)
            sg = bs - np.matmul(group.L_sr[a:b], zg)
        else:
            zg, sg = y[:, :0], bs
        z.append(zg)
        if uniform:
            s = sg.reshape(-1, k)
        else:
            s[_block_rows(level.skeleton_offsets, nodes, r, lo)] = sg
    return z, s


def backward_level(
    level: LevelFactors, z: list, y: np.ndarray, lo: int = 0, hi: Optional[int] = None
) -> np.ndarray:
    """Backward substitution (back-substitute, rotate back) of nodes ``lo..hi-1``.

    ``z`` is :func:`forward_level`'s output for the same chunk; ``y`` the
    chunk's flat skeleton solution (rows of the parent level's flat
    solution).  Returns the chunk's flat solution block.
    """
    hi = level.num_nodes if hi is None else hi
    k = y.shape[1]
    parts = list(level.chunk_groups(lo, hi))
    uniform = len(parts) == 1
    if not uniform:
        x = np.empty((level.offsets[hi] - level.offsets[lo], k))
    for (group, a, b), zg in zip(parts, z):
        nodes, m, r = group.nodes[a:b], group.size, group.rank
        ys = (
            y.reshape(b - a, r, k)
            if uniform
            else y[_block_rows(level.skeleton_offsets, nodes, r, lo)]
        )
        if m - r:
            rhs = zg - np.matmul(group.L_sr[a:b].transpose(0, 2, 1), ys)
            yr = np.empty_like(rhs)
            for j in range(b - a):
                yr[j] = solve_triangular(group.L_rr[a + j].T, rhs[j], lower=False)
        else:
            yr = zg
        # x = [Q_R Q_S R] [yr; ys] = Q u with u = [R ys; yr], Q u = u - V T (V^T u).
        v = group.V[a:b]
        u = np.concatenate([np.matmul(group.R[a:b], ys), yr], axis=1)
        xg = u - np.matmul(v, np.matmul(group.T[a:b], np.matmul(v.transpose(0, 2, 1), u)))
        if uniform:
            x = xg.reshape(-1, k)
        else:
            x[_block_rows(level.offsets, nodes, m, lo)] = xg
    return x


def root_solve(chol: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense solve with the root (merged skeleton) Cholesky factor: ``(L L^T)^{-1} w``."""
    y = solve_triangular(chol, w, lower=True)
    # C order, like every other flat block, so the child level sees one layout.
    return np.ascontiguousarray(solve_triangular(chol.T, y, lower=False))


def ulv_solve(levels: Sequence[LevelFactors], root_chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The whole ULV solve (Eq. 15/17), ``levels`` ordered leaves first.

    ``b`` is a C-ordered ``(n, k)`` block; returns the ``(n, k)`` solution.
    """
    zs, w = [], b
    for level in levels:
        z, w = forward_level(level, w)
        zs.append(z)
    y = root_solve(root_chol, w)
    for level, z in zip(reversed(levels), reversed(zs)):
        y = backward_level(level, z, y)
    return y

"""HSS construction as a task graph (nested bases, paper Sec. 2 + 4.2).

The sequential :func:`repro.formats.hss.build_hss` walks the cluster tree in
three sweeps -- leaf bases, bottom-up transfer (translation) matrices,
sibling couplings.  :class:`HSSCompressBuilder` records the same operations
as DTD tasks:

``ASSEMBLE_DIAG[L;i]``
    Evaluate the dense leaf diagonal block ``D_i`` (kernel assembly only).
``COMPRESS_BASIS[L;i]``
    Leaf skeleton basis: interpolative row selection against the sampled
    far-field proxy (or the exact dense block row), producing ``U_i``, the
    skeleton points and the row-weight factor ``G_i``.
``TRANSLATE[l;i]``
    Parent transfer matrix from the two children's skeletons/weights -- the
    nested-basis translation op (Eq. 6).  Depends on both children's basis
    tasks, which is what gives the graph its tree-shaped critical path.
``COUPLING[l;i,j]``
    Sibling skeleton coupling ``S_{l;i,j}`` from kernel evaluations on the
    two skeleton point sets; depends on both siblings' basis info.

Proxy-column sampling consumes the RNG at *record* time, in exactly the
order the sequential builder draws (leaves ascending, then internal levels
bottom-up), so the per-task inputs -- and therefore the compressed matrix --
are bit-identical to ``build_hss`` on every backend.

Cross-task data (skeleton indices + row weights per cluster) moves through
handle-bound stores, so the distributed backend ships exactly that basis
info between worker processes; the dense diagonal blocks and couplings are
terminal task outputs gathered through the fragment collect/merge hooks.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.compress.builder import CompressGraphBuilder, compress_through_builder
from repro.formats.hss import HSSMatrix, HSSNode, _proxy_indices
from repro.lowrank.interpolative import interpolative_rows
from repro.lowrank.qr import row_basis
from repro.runtime.task import AccessMode

__all__ = ["HSSCompressBuilder", "build_hss_dtd"]


class HSSCompressBuilder(CompressGraphBuilder):
    """Record (and execute) the HSS construction task graph."""

    default_method = "interpolative"

    def __init__(
        self,
        kernel_matrix,
        *,
        leaf_size: int = 256,
        max_rank: Optional[int] = 100,
        tol: Optional[float] = None,
        method: Optional[str] = None,
        n_proxy: Optional[int] = None,
        seed: int = 0,
        tree=None,
        policy=None,
    ) -> None:
        super().__init__(
            kernel_matrix,
            leaf_size=leaf_size,
            max_rank=max_rank,
            tol=tol,
            method=method,
            seed=seed,
            tree=tree,
            policy=policy,
        )
        if self.tree.max_level < 1:
            raise ValueError(
                "HSS requires at least one level of partitioning; "
                "decrease leaf_size or increase N"
            )
        if self.method not in ("interpolative", "dense_rows"):
            raise ValueError(f"unknown construction method {self.method!r}")
        self.max_level = self.tree.max_level
        self.n_proxy = (
            n_proxy if n_proxy is not None else max(2 * (self.max_rank or 64), 128)
        )
        #: Result stores: node shells filled by the task bodies (fields set
        #: only in the process that ran the task -- the distributed locality
        #: marker), plus the sibling couplings.
        self.nodes: Dict[Tuple[int, int], HSSNode] = {}
        self.couplings: Dict[Tuple[int, int, int], np.ndarray] = {}
        # Handle-bound transport store of per-cluster basis info: for the
        # interpolative construction a ``(skeleton, G)`` pair, for dense_rows
        # the expanded cluster basis.  This is the only data that crosses
        # tasks (and, distributed, process boundaries).
        self._basis: Dict[Tuple[int, int], object] = {}
        # Data handles.
        self._b: Dict[Tuple[int, int], object] = {}
        self._d: Dict[int, object] = {}
        self._s: Dict[Tuple[int, int, int], object] = {}
        # Proxy columns per cluster, sampled at record time in the exact
        # sequential RNG order (leaves ascending, then levels bottom-up).
        self._proxy: Dict[Tuple[int, int], np.ndarray] = {}
        if self.method == "interpolative":
            rng = np.random.default_rng(self.rng_seed)
            for i, leaf in enumerate(self.tree.leaves):
                self._proxy[(self.max_level, i)] = _proxy_indices(
                    leaf.start, leaf.stop, self.n, self.n_proxy, rng
                )
            for level in range(self.max_level - 1, 0, -1):
                for index, cnode in enumerate(self.tree.level_nodes(level)):
                    self._proxy[(level, index)] = _proxy_indices(
                        cnode.start, cnode.stop, self.n, self.n_proxy, rng
                    )

    # -- scaffold hooks -------------------------------------------------------
    def declare_handles(self) -> None:
        ml = self.max_level
        for level in range(ml + 1):
            for index, cnode in enumerate(self.tree.level_nodes(level)):
                self.nodes[(level, index)] = HSSNode(
                    level=level, index=index, start=cnode.start, stop=cnode.stop
                )
                if level == ml:
                    m = cnode.stop - cnode.start
                    self._d[index] = self.handle(
                        f"D[{ml};{index}]", 8 * m * m, level=ml, row=index
                    )
                if level > 0:
                    m = cnode.stop - cnode.start
                    self._b[(level, index)] = self.handle(
                        f"B[{level};{index}]",
                        self.basis_nbytes(m),
                        level=level,
                        row=index,
                    ).bind_item(self._basis, (level, index))
        for level in range(1, ml + 1):
            for k in range(2 ** (level - 1)):
                j, i = 2 * k, 2 * k + 1
                ni, nj = self.nodes[(level, i)], self.nodes[(level, j)]
                self._s[(level, i, j)] = self.handle(
                    f"S[{level};{i},{j}]",
                    self.coupling_nbytes(ni.size, nj.size),
                    level=level,
                    row=i,
                    col=j,
                )

    def record_tasks(self) -> None:
        kmat, ml, n = self.kernel_matrix, self.max_level, self.n
        nodes, basis, couplings = self.nodes, self._basis, self.couplings
        max_rank, tol = self.max_rank, self.tol

        # ---- leaf level: diagonal blocks + skeleton bases -------------------
        self.set_phase(0)
        for i, leaf in enumerate(self.tree.leaves):
            m = leaf.stop - leaf.start

            def assemble_diag(i=i, leaf=leaf) -> None:
                rows = slice(leaf.start, leaf.stop)
                nodes[(ml, i)].D = kmat.block(rows, rows)

            self.insert(
                assemble_diag,
                [(self._d[i], AccessMode.WRITE)],
                name=f"ASSEMBLE_DIAG[{ml};{i}]",
                kind="ASSEMBLE_DIAG",
                flops=float(m * m),
            )

            if self.method == "dense_rows":

                def leaf_basis(i=i, leaf=leaf) -> None:
                    comp = np.concatenate(
                        [np.arange(0, leaf.start), np.arange(leaf.stop, n)]
                    )
                    block_row = kmat.block(slice(leaf.start, leaf.stop), comp)
                    u = row_basis(block_row, rank=max_rank, tol=tol)
                    node = nodes[(ml, i)]
                    node.U = u
                    node.rank = u.shape[1]
                    basis[(ml, i)] = u

            else:

                def leaf_basis(i=i, leaf=leaf, proxy=self._proxy[(ml, i)]) -> None:
                    block_row = kmat.block(slice(leaf.start, leaf.stop), proxy)
                    sel, p = interpolative_rows(block_row, rank=max_rank, tol=tol)
                    q, r = np.linalg.qr(p)
                    node = nodes[(ml, i)]
                    node.U = q
                    node.rank = q.shape[1]
                    node.skeleton = np.arange(leaf.start, leaf.stop)[sel]
                    basis[(ml, i)] = (node.skeleton, r)

            self.insert(
                leaf_basis,
                [(self._b[(ml, i)], AccessMode.WRITE)],
                name=f"COMPRESS_BASIS[{ml};{i}]",
                kind="COMPRESS_BASIS",
                flops=float(2 * m * self.n_proxy * self.rank_cap(m)),
            )

        # ---- internal levels: bottom-up transfer (translation) matrices -----
        for level in range(ml - 1, 0, -1):
            self.set_phase(ml - level)
            for index, cnode in enumerate(self.tree.level_nodes(level)):
                key, k1, k2 = (level, index), (level + 1, 2 * index), (level + 1, 2 * index + 1)

                if self.method == "dense_rows":

                    def translate(key=key, k1=k1, k2=k2, cnode=cnode) -> None:
                        e1, e2 = basis[k1], basis[k2]
                        c1, c2 = nodes[k1], nodes[k2]
                        comp = np.concatenate(
                            [np.arange(0, cnode.start), np.arange(cnode.stop, n)]
                        )
                        w1 = e1.T @ kmat.block(slice(c1.start, c1.stop), comp)
                        w2 = e2.T @ kmat.block(slice(c2.start, c2.stop), comp)
                        w = np.vstack([w1, w2])
                        u = row_basis(w, rank=max_rank, tol=tol)
                        node = nodes[key]
                        node.U = u
                        node.rank = u.shape[1]
                        r1 = e1.shape[1]
                        basis[key] = np.vstack([e1 @ u[:r1], e2 @ u[r1:]])

                else:

                    def translate(key=key, k1=k1, k2=k2, proxy=self._proxy[key]) -> None:
                        skel1, g1 = basis[k1]
                        skel2, g2 = basis[k2]
                        union_skel = np.concatenate([skel1, skel2])
                        b = kmat.block(union_skel, proxy)
                        sel, p = interpolative_rows(b, rank=max_rank, tol=tol)
                        r1, r2 = g1.shape[0], g2.shape[0]
                        g_children = np.zeros((r1 + r2, r1 + r2))
                        g_children[:r1, :r1] = g1
                        g_children[r1:, r1:] = g2
                        t = g_children @ p
                        q, r = np.linalg.qr(t)
                        node = nodes[key]
                        node.U = q
                        node.rank = q.shape[1]
                        node.skeleton = union_skel[sel]
                        basis[key] = (node.skeleton, r)

                m = cnode.stop - cnode.start
                self.insert(
                    translate,
                    [
                        (self._b[k1], AccessMode.READ),
                        (self._b[k2], AccessMode.READ),
                        (self._b[key], AccessMode.WRITE),
                    ],
                    name=f"TRANSLATE[{level};{index}]",
                    kind="TRANSLATE",
                    flops=float(2 * m * self.n_proxy * self.rank_cap(m)),
                )

        # ---- sibling couplings ----------------------------------------------
        self.set_phase(ml)
        for level in range(1, ml + 1):
            for k in range(2 ** (level - 1)):
                j, i = 2 * k, 2 * k + 1
                ki, kj = (level, i), (level, j)

                if self.method == "dense_rows":

                    def coupling(level=level, i=i, j=j, ki=ki, kj=kj) -> None:
                        ni, nj = nodes[ki], nodes[kj]
                        block = kmat.block(
                            slice(ni.start, ni.stop), slice(nj.start, nj.stop)
                        )
                        couplings[(level, i, j)] = basis[ki].T @ block @ basis[kj]

                else:

                    def coupling(level=level, i=i, j=j, ki=ki, kj=kj) -> None:
                        skel_i, g_i = basis[ki]
                        skel_j, g_j = basis[kj]
                        kss = kmat.block(skel_i, skel_j)
                        couplings[(level, i, j)] = g_i @ kss @ g_j.T

                ni, nj = self.nodes[ki], self.nodes[kj]
                self.insert(
                    coupling,
                    [
                        (self._b[ki], AccessMode.READ),
                        (self._b[kj], AccessMode.READ),
                        (self._s[(level, i, j)], AccessMode.WRITE),
                    ],
                    name=f"COUPLING[{level};{i},{j}]",
                    kind="COUPLING",
                    flops=float(2 * self.rank_cap(ni.size) * self.rank_cap(nj.size)),
                )

    # -- distributed fragments ------------------------------------------------
    # Runs inside each worker: ship back the node fields and couplings its
    # local tasks produced.  Received basis messages only land in the
    # transport store, never on the HSSNode shells, so a non-None field is an
    # exact local-computation marker.
    def collect_local(self):
        frag_nodes: Dict[Tuple[int, int], dict] = {}
        for key, node in self.nodes.items():
            fields = {}
            if node.U is not None:
                fields.update(U=node.U, rank=node.rank, skeleton=node.skeleton)
            if node.D is not None:
                fields["D"] = node.D
            if fields:
                frag_nodes[key] = fields
        return {"nodes": frag_nodes, "couplings": dict(self.couplings)}

    def merge_fragment(self, fragment) -> None:
        for key, fields in fragment["nodes"].items():
            node = self.nodes[key]
            if "U" in fields:
                node.U = fields["U"]
                node.rank = fields["rank"]
                node.skeleton = fields["skeleton"]
            if "D" in fields:
                node.D = fields["D"]
        self.couplings.update(fragment["couplings"])

    def result(self) -> HSSMatrix:
        return HSSMatrix(tree=self.tree, nodes=self.nodes, couplings=self.couplings)


def build_hss_dtd(
    kernel_matrix,
    *,
    leaf_size: int = 256,
    max_rank: Optional[int] = 100,
    tol: Optional[float] = None,
    method: Optional[str] = None,
    n_proxy: Optional[int] = None,
    seed: int = 0,
    tree=None,
    policy=None,
):
    """Task-graph HSS construction; returns ``(HSSMatrix, DTDRuntime)``.

    Bit-identical to :func:`repro.formats.hss.build_hss` with the same
    arguments, on every execution backend of the ``policy``.
    """
    return compress_through_builder(
        HSSCompressBuilder,
        kernel_matrix,
        policy=policy,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method,
        n_proxy=n_proxy,
        seed=seed,
        tree=tree,
    )

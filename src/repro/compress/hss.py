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

Every task body is one call of the per-node construction step
``build_hss`` itself calls (:func:`~repro.formats.hss.interpolative_leaf_basis`,
:func:`~repro.formats.hss.interpolative_translation`,
:func:`~repro.formats.hss.interpolative_coupling` and their ``dense_rows``
counterparts), and the proxy columns are drawn up front by the same
:func:`~repro.formats.hss.draw_proxies`, so the compressed matrix is
bit-identical to ``build_hss`` on every backend.

Cross-task data (skeleton indices + row weights per cluster) moves through
handle-bound stores, so the distributed backend ships exactly that basis
info between worker processes; the dense diagonal blocks and couplings are
terminal task outputs gathered through the fragment collect/merge hooks.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.compress.builder import CompressGraphBuilder, compress_through_builder
from repro.formats.hss import (
    HSSMatrix,
    HSSNode,
    check_construction,
    dense_coupling,
    dense_leaf_basis,
    dense_translation,
    draw_proxies,
    interpolative_coupling,
    interpolative_leaf_basis,
    interpolative_translation,
)
from repro.runtime.task import AccessMode

__all__ = ["HSSCompressBuilder", "build_hss_dtd"]


class HSSCompressBuilder(CompressGraphBuilder):
    """Record (and execute) the HSS construction task graph."""

    default_method = "interpolative"

    def __init__(self, kernel_matrix, *, n_proxy: Optional[int] = None, **kwargs) -> None:
        super().__init__(kernel_matrix, **kwargs)
        self.n_proxy = check_construction(self.tree, self.method, self.max_rank, n_proxy)
        self.max_level = self.tree.max_level
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
        # Proxy columns per cluster, drawn up front in the sequential RNG order.
        self._proxy: Dict[Tuple[int, int], np.ndarray] = (
            draw_proxies(self.tree, self.n_proxy, self.rng_seed)
            if self.method == "interpolative"
            else {}
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
        kmat, ml = self.kernel_matrix, self.max_level
        nodes, basis, couplings = self.nodes, self._basis, self.couplings
        max_rank, tol, proxies = self.max_rank, self.tol, self._proxy
        dense = self.method == "dense_rows"

        # ---- leaf level: diagonal blocks + skeleton bases -------------------
        self.set_phase(0)
        for i in range(len(self.tree.leaves)):
            key = (ml, i)
            node = nodes[key]
            m = node.size

            def assemble_diag(node=node) -> None:
                rows = slice(node.start, node.stop)
                node.D = kmat.block(rows, rows)

            self.insert(
                assemble_diag,
                [(self._d[i], AccessMode.WRITE)],
                name=f"ASSEMBLE_DIAG[{ml};{i}]",
                kind="ASSEMBLE_DIAG",
                flops=float(m * m),
            )

            def leaf_basis(key=key, node=node, proxy=proxies.get(key)) -> None:
                if dense:
                    basis[key] = dense_leaf_basis(kmat, node, max_rank, tol)
                else:
                    basis[key] = interpolative_leaf_basis(kmat, node, proxy, max_rank, tol)

            self.insert(
                leaf_basis,
                [(self._b[key], AccessMode.WRITE)],
                name=f"COMPRESS_BASIS[{ml};{i}]",
                kind="COMPRESS_BASIS",
                flops=float(2 * m * self.n_proxy * self.rank_cap(m)),
            )

        # ---- internal levels: bottom-up transfer (translation) matrices -----
        for level in range(ml - 1, 0, -1):
            self.set_phase(ml - level)
            for index in range(2**level):
                key, k1, k2 = (level, index), (level + 1, 2 * index), (level + 1, 2 * index + 1)

                def translate(key=key, k1=k1, k2=k2, proxy=proxies.get(key)) -> None:
                    if dense:
                        basis[key] = dense_translation(
                            kmat, nodes[key], nodes[k1], nodes[k2],
                            basis[k1], basis[k2], max_rank, tol,
                        )
                    else:
                        basis[key] = interpolative_translation(
                            kmat, nodes[key], basis[k1], basis[k2], proxy, max_rank, tol
                        )

                m = nodes[key].size
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

                def coupling(level=level, i=i, j=j, ki=ki, kj=kj) -> None:
                    if dense:
                        s = dense_coupling(kmat, nodes[ki], nodes[kj], basis[ki], basis[kj])
                    else:
                        s = interpolative_coupling(kmat, basis[ki], basis[kj])
                    couplings[(level, i, j)] = s

                ni, nj = nodes[ki], nodes[kj]
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

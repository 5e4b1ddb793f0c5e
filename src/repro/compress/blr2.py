"""BLR2 construction as a task graph (shared row bases, paper Eq. 1-5).

The sequential :func:`repro.formats.blr2.build_blr2` walks the block rows
once: the dense diagonal block, the shared row basis (Eq. 2) with the row's
projection ``P_i = (U_i^S)^T A_{i,<}``, then the row's couplings sliced out
of that projection -- every kernel entry is evaluated once.
:class:`BLR2CompressBuilder` records the same operations as DTD tasks:

``ASSEMBLE_DIAG[i]`` / ``COMPRESS_BASIS[i]``
    Per block row: the dense diagonal block, and the shared skeleton basis
    ``U_i^S`` of the full admissible block row (randomized range finder by
    default, seeded with the run's seed, rows of one width sharing the
    build's test matrix; full SVD for ``method="svd"``) together with the
    projection ``P_i``.  Independent across rows -- the embarrassingly
    parallel bulk of the construction.
``COUPLING[i,j]``
    Skeleton coupling ``S_{i,j} = P_i[:, J_j] U_j^S`` for ``j < i``; reads
    row ``i``'s projection (written by the same owner under row-cyclic
    distribution) and row ``j``'s basis, which is where the distributed
    backend's basis transfers come from.

Both task bodies call the step ``build_blr2`` calls
(:func:`~repro.formats.blr2.shared_basis`,
:func:`~repro.formats.blr2.skeleton_coupling`), so the result is
bit-identical to it on every backend.  The projections and test matrices are
scratch, dropped once the graph has executed.

The block rows are the leaves of the cluster tree, tagged with its leaf
level ``tree.max_level`` like the nodes of the factorize/solve graphs, so all
three phases of one BLR2 problem distribute identically.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.compress.builder import CompressGraphBuilder, compress_through_builder
from repro.formats.blr2 import (
    DEFAULT_METHOD,
    BLR2Matrix,
    check_method,
    shared_basis,
    skeleton_coupling,
)
from repro.runtime.task import AccessMode

__all__ = ["BLR2CompressBuilder", "build_blr2_dtd"]


class BLR2CompressBuilder(CompressGraphBuilder):
    """Record (and execute) the BLR2 construction task graph."""

    default_method = DEFAULT_METHOD

    def __init__(self, kernel_matrix, **kwargs) -> None:
        super().__init__(kernel_matrix, **kwargs)
        self.tree.require_partitioned("BLR2")
        check_method(self.method)
        self.nblocks = len(self.tree.leaves)
        self.max_level = self.tree.max_level
        #: Result stores, filled by the task bodies (local-computation markers
        #: for the distributed fragment collection).
        self.diag: Dict[int, np.ndarray] = {}
        self.bases: Dict[int, np.ndarray] = {}
        self.couplings: Dict[Tuple[int, int], np.ndarray] = {}
        # Handle-bound transport stores: the shared bases and the row
        # projections read by the coupling tasks (the only cross-task -- and
        # cross-process -- data).
        self._bx: Dict[int, np.ndarray] = {}
        self._px: Dict[int, np.ndarray] = {}
        # Data handles.
        self._d: Dict[int, object] = {}
        self._b: Dict[int, object] = {}
        self._p: Dict[int, object] = {}
        self._s: Dict[Tuple[int, int], object] = {}

    def declare_handles(self) -> None:
        level = self.max_level
        for i, leaf in enumerate(self.tree.leaves):
            m = leaf.stop - leaf.start
            self._d[i] = self.handle(f"D[{i}]", 8 * m * m, level=level, row=i)
            self._b[i] = self.handle(
                f"B[{i}]", self.basis_nbytes(m), level=level, row=i
            ).bind_item(self._bx, i)
            self._p[i] = self.handle(
                f"P[{i}]", 8 * self.rank_cap(m) * leaf.start, level=level, row=i
            ).bind_item(self._px, i)
        for i, li in enumerate(self.tree.leaves):
            for j in range(i):
                lj = self.tree.leaves[j]
                self._s[(i, j)] = self.handle(
                    f"S[{i},{j}]",
                    self.coupling_nbytes(li.stop - li.start, lj.stop - lj.start),
                    level=level,
                    row=i,
                    col=j,
                )

    def record_tasks(self) -> None:
        kmat, n = self.kernel_matrix, self.n
        diag, bases, bx, px, couplings = self.diag, self.bases, self._bx, self._px, self.couplings
        max_rank, tol, method, seed = self.max_rank, self.tol, self.method, self.rng_seed
        sketches = self.sketches
        leaves = self.tree.leaves

        self.set_phase(0)
        for i, leaf in enumerate(leaves):
            m = leaf.stop - leaf.start

            def assemble_diag(i=i, leaf=leaf) -> None:
                rows = slice(leaf.start, leaf.stop)
                diag[i] = kmat.block(rows, rows)

            self.insert(
                assemble_diag,
                [(self._d[i], AccessMode.WRITE)],
                name=f"ASSEMBLE_DIAG[{i}]",
                kind="ASSEMBLE_DIAG",
                flops=float(m * m),
            )

            def compress_row(i=i, leaf=leaf) -> None:
                bx[i], px[i] = shared_basis(kmat, leaf, max_rank, tol, method, seed, sketches)
                bases[i] = bx[i]

            r = self.rank_cap(m)
            self.insert(
                compress_row,
                [(self._b[i], AccessMode.WRITE), (self._p[i], AccessMode.WRITE)],
                name=f"COMPRESS_BASIS[{i}]",
                kind="COMPRESS_BASIS",
                flops=float(2 * m * (n - m) * r + 2 * r * m * leaf.start),
            )

        self.set_phase(1)
        for i, li in enumerate(leaves):
            for j in range(i):
                lj = leaves[j]

                def coupling(i=i, j=j, lj=lj) -> None:
                    couplings[(i, j)] = skeleton_coupling(px[i], lj, bx[j])

                mj = lj.stop - lj.start
                self.insert(
                    coupling,
                    [
                        (self._p[i], AccessMode.READ),
                        (self._b[j], AccessMode.READ),
                        (self._s[(i, j)], AccessMode.WRITE),
                    ],
                    name=f"COUPLING[{i},{j}]",
                    kind="COUPLING",
                    flops=float(2 * self.rank_cap(li.stop - li.start) * mj * self.rank_cap(mj)),
                )

    def execute(self, *, timeout: Optional[float] = None):
        report = super().execute(timeout=timeout)
        self._px.clear()
        return report

    # -- distributed fragments ------------------------------------------------
    def collect_local(self):
        return {
            "diag": dict(self.diag),
            "bases": dict(self.bases),
            "couplings": dict(self.couplings),
        }

    def merge_fragment(self, fragment) -> None:
        self.diag.update(fragment["diag"])
        self.bases.update(fragment["bases"])
        self.couplings.update(fragment["couplings"])

    def result(self) -> BLR2Matrix:
        return BLR2Matrix(
            tree=self.tree, diag=self.diag, bases=self.bases, couplings=self.couplings
        )


def build_blr2_dtd(
    kernel_matrix,
    *,
    leaf_size: int = 256,
    max_rank: Optional[int] = 100,
    tol: Optional[float] = None,
    method: Optional[str] = None,
    seed: int = 0,
    tree=None,
    policy=None,
):
    """Task-graph BLR2 construction; returns ``(BLR2Matrix, DTDRuntime)``.

    Bit-identical to :func:`repro.formats.blr2.build_blr2` with the same
    ``seed`` (``method`` maps onto its ``basis_method``) on every execution
    backend of the ``policy``.
    """
    return compress_through_builder(
        BLR2CompressBuilder,
        kernel_matrix,
        policy=policy,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method,
        seed=seed,
        tree=tree,
    )

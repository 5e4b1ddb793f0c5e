"""HODLR construction as a task graph (independent off-diagonal blocks).

HODLR shares no bases between blocks or levels, so its construction graph is
the degenerate -- and maximally parallel -- case: one ``ASSEMBLE_DIAG`` task
per leaf and one ``COMPRESS_LOWRANK`` task per internal node of the
recursive 2x2 partition, with no dependency edges at all.  Each compression
task evaluates its kernel block and factors it with
:func:`repro.formats.hodlr.compress_offdiagonal`, the function the
sequential :func:`~repro.formats.hodlr.build_hodlr` calls (truncated SVD,
randomized SVD or ACA, randomized methods seeded per call), so the output is
bit-identical on every backend regardless of execution order.

The symmetric lower blocks are derived from the upper factors during result
assembly (``A_21 = A_12^T``), mirroring the sequential construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.compress.builder import CompressGraphBuilder, compress_through_builder
from repro.formats.hodlr import HODLRMatrix, HODLRNode, compress_offdiagonal
from repro.lowrank.block import LowRankBlock
from repro.runtime.task import AccessMode

__all__ = ["HODLRCompressBuilder", "build_hodlr_dtd"]


class HODLRCompressBuilder(CompressGraphBuilder):
    """Record (and execute) the HODLR construction task graph."""

    default_method = "svd"

    def __init__(self, kernel_matrix, **kwargs) -> None:
        super().__init__(kernel_matrix, **kwargs)
        self.tree.require_partitioned("HODLR")
        if self.method not in ("svd", "rsvd", "aca"):
            raise ValueError(f"unknown compression method {self.method!r}")
        self.max_level = self.tree.max_level
        #: Result stores keyed by cluster-tree position, filled by the tasks.
        self._dense: Dict[Tuple[int, int], np.ndarray] = {}
        self._upper: Dict[Tuple[int, int], LowRankBlock] = {}
        # Data handles (placement only: no task reads another's output).
        self._h: Dict[Tuple[int, int], object] = {}

    def declare_handles(self) -> None:
        for cnode in self.tree:
            key = (cnode.level, cnode.index)
            m = cnode.stop - cnode.start
            if cnode.is_leaf:
                self._h[key] = self.handle(
                    f"D[{cnode.level};{cnode.index}]",
                    8 * m * m,
                    level=cnode.level,
                    row=cnode.index,
                )
            else:
                self._h[key] = self.handle(
                    f"LR[{cnode.level};{cnode.index}]",
                    2 * self.basis_nbytes(m // 2),
                    level=cnode.level,
                    row=cnode.index,
                )

    def record_tasks(self) -> None:
        # Task bodies close over locals only, never over the builder, so a
        # dropped builder and its runtime are freed without a GC pass.
        kmat = self.kernel_matrix
        dense, upper = self._dense, self._upper
        method, max_rank, tol, seed = self.method, self.max_rank, self.tol, self.rng_seed

        for cnode in self.tree:
            key = (cnode.level, cnode.index)
            self.set_phase(cnode.level)
            if cnode.is_leaf:

                def assemble_diag(cnode=cnode, key=key) -> None:
                    rows = slice(cnode.start, cnode.stop)
                    dense[key] = kmat.block(rows, rows)

                m = cnode.stop - cnode.start
                self.insert(
                    assemble_diag,
                    [(self._h[key], AccessMode.WRITE)],
                    name=f"ASSEMBLE_DIAG[{cnode.level};{cnode.index}]",
                    kind="ASSEMBLE_DIAG",
                    flops=float(m * m),
                )
                continue

            left, right = cnode.children

            def compress_block(left=left, right=right, key=key) -> None:
                block = kmat.block(
                    slice(left.start, left.stop), slice(right.start, right.stop)
                )
                upper[key] = compress_offdiagonal(block, method, max_rank, tol, seed)

            mi = left.stop - left.start
            mj = right.stop - right.start
            self.insert(
                compress_block,
                [(self._h[key], AccessMode.WRITE)],
                name=f"COMPRESS_LOWRANK[{cnode.level};{cnode.index}]",
                kind="COMPRESS_LOWRANK",
                flops=float(2 * mi * mj * self.rank_cap(min(mi, mj))),
            )

    # -- distributed fragments ------------------------------------------------
    def collect_local(self):
        return {"dense": dict(self._dense), "upper": dict(self._upper)}

    def merge_fragment(self, fragment) -> None:
        self._dense.update(fragment["dense"])
        self._upper.update(fragment["upper"])

    def _assemble(self, cnode) -> HODLRNode:
        key = (cnode.level, cnode.index)
        if cnode.is_leaf:
            return HODLRNode(
                start=cnode.start, stop=cnode.stop, dense=self._dense[key]
            )
        up = self._upper[key]
        return HODLRNode(
            start=cnode.start,
            stop=cnode.stop,
            upper=up,
            lower=LowRankBlock(up.V.copy(), up.U.copy()),  # symmetry: A_21 = A_12^T
            left=self._assemble(cnode.children[0]),
            right=self._assemble(cnode.children[1]),
        )

    def result(self) -> HODLRMatrix:
        return HODLRMatrix(self._assemble(self.tree.root), self.tree)


def build_hodlr_dtd(
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
    """Task-graph HODLR construction; returns ``(HODLRMatrix, DTDRuntime)``.

    Bit-identical to :func:`repro.formats.hodlr.build_hodlr` with the same
    arguments, on every execution backend of the ``policy``.
    """
    return compress_through_builder(
        HODLRCompressBuilder,
        kernel_matrix,
        policy=policy,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method,
        seed=seed,
        tree=tree,
    )

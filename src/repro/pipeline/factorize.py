"""Factorization graph builders on the shared scaffold.

Two builders cover every format:

:class:`HSSULVFactorizeBuilder`
    The multi-level HSS-ULV graph (Fig. 8): per-node diagonal-product and
    partial-factorization tasks walking the tree from the leaves to the root,
    sibling Schur complements merged into the parent, one final root POTRF.
    HODLR matrices use it through their exact HSS form
    (:func:`~repro.core.hodlr_ulv.hodlr_to_hss`).
    :func:`build_hss_ulv_taskgraph` records the same graph *symbolically*
    from an :class:`~repro.formats.hss.HSSStructure` (sizes and ranks only)
    for the distributed-machine simulator.

:class:`LeafULVFactorizeBuilder`
    The single-level leaf-ULV graph (Alg. 1) over a *leaf system*
    (:mod:`repro.core.leaf_ulv`): per-row diagonal-product / partial-factor
    tasks, per-row merge of the permuted skeleton system, one merged POTRF.
    BLR2 matrices use it.

Every backend branch lives in :meth:`ExecutionPolicy.execute
<repro.pipeline.policy.ExecutionPolicy.execute>`; these builders only record
tasks and define the distributed result fragments.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.hss_ulv import HSSULVFactor, merge_siblings
from repro.core.leaf_ulv import assemble_merged_row
from repro.core.partial_cholesky import partial_cholesky
from repro.distribution.strategies import DistributionStrategy, RowCyclicDistribution
from repro.formats.hss import HSSStructure
from repro.pipeline.builder import GraphBuilder
from repro.runtime.dtd import DTDRuntime
from repro.runtime.flops import (
    flops_diag_product,
    flops_partial_factor,
    flops_potrf,
)
from repro.runtime.task import AccessMode

__all__ = [
    "HSSULVFactorizeBuilder",
    "build_hss_ulv_taskgraph",
    "LeafULVFactorizeBuilder",
    "leaf_virtual_level",
]


def leaf_virtual_level(nblocks: int) -> int:
    """Virtual tree depth a flat set of block rows is mapped onto.

    Deep enough to hold ``nblocks`` rows, so the row-cyclic strategy spreads
    all of them (shared by the leaf factorize and solve builders so both
    graphs of one problem distribute identically).
    """
    return max(1, math.ceil(math.log2(max(nblocks, 2))))


class HSSULVFactorizeBuilder(GraphBuilder):
    """Record (and execute) the HSS-ULV factorization task graph."""

    def __init__(self, hss, *, policy=None) -> None:
        super().__init__(policy=policy)
        self.hss = hss
        self.max_level = hss.max_level
        self.factor = HSSULVFactor(hss=hss)
        # Mutable stores the task bodies operate on.
        self._diag: Dict[Tuple[int, int], np.ndarray] = {}
        self._schur: Dict[Tuple[int, int], np.ndarray] = {}
        # Nodes whose factors this process has written (shipped by collect_local).
        self._done: set = set()
        # Data handles.
        self._d: Dict[Tuple[int, int], object] = {}
        self._s: Dict[Tuple[int, int], object] = {}
        self._schur_h: Dict[Tuple[int, int], object] = {}
        self._u: Dict[Tuple[int, int], object] = {}

    def declare_handles(self) -> None:
        hss, max_level = self.hss, self.max_level
        for level in range(max_level, -1, -1):
            for i in range(2**level):
                m = hss.block_size(level, i)
                # The D/SCHUR handles are bound to the mutable stores so the
                # distributed backend can move their values between processes.
                self._d[(level, i)] = self.handle(
                    f"D[{level};{i}]", 8 * m * m, level=level, row=i
                ).bind_item(self._diag, (level, i))
                if level > 0:
                    node = hss.node(level, i)
                    self._u[(level, i)] = self.handle(
                        f"U[{level};{i}]", 8 * m * node.rank, level=level, row=i
                    )
                    self._schur_h[(level, i)] = self.handle(
                        f"SCHUR[{level};{i}]", 8 * node.rank**2, level=level, row=i
                    ).bind_item(self._schur, (level, i))
        for level in range(1, max_level + 1):
            for k in range(2 ** (level - 1)):
                ri = hss.node(level, 2 * k + 1).rank
                rj = hss.node(level, 2 * k).rank
                self._s[(level, k)] = self.handle(
                    f"S[{level};{2 * k + 1},{2 * k}]",
                    8 * ri * rj,
                    level=level,
                    row=2 * k + 1,
                    col=2 * k,
                )

    def seed(self) -> None:
        # The task bodies replace D blocks, never write into them.
        for i in range(2**self.max_level):
            self._diag[(self.max_level, i)] = self.hss.node(self.max_level, i).D

    def record_tasks(self) -> None:
        hss, max_level = self.hss, self.max_level
        factor, diag, schur, done = self.factor, self._diag, self._schur, self._done
        for level in range(max_level, 0, -1):
            # Phases increase as the factorization walks leaves -> root.
            self.set_phase(max_level - level)
            for i in range(2**level):
                node = hss.node(level, i)
                m = hss.block_size(level, i)

                def diag_product(level=level, i=i, node=node) -> None:
                    diag[(level, i)] = factor.levels[level].set_basis(i, node.U, diag[(level, i)])

                self.insert(
                    diag_product,
                    [
                        (self._u[(level, i)], AccessMode.READ),
                        (self._d[(level, i)], AccessMode.RW),
                    ],
                    name=f"DIAG_PRODUCT[{level};{i}]",
                    kind="DIAG_PRODUCT",
                    flops=flops_diag_product(m, node.rank),
                )

                def partial_factor(level=level, i=i, node=node) -> None:
                    part = partial_cholesky(diag[(level, i)], node.rank)
                    schur[(level, i)] = factor.levels[level].set_partial(i, part)
                    done.add((level, i))

                self.insert(
                    partial_factor,
                    [
                        (self._d[(level, i)], AccessMode.RW),
                        (self._schur_h[(level, i)], AccessMode.WRITE),
                    ],
                    name=f"PARTIAL_FACTOR[{level};{i}]",
                    kind="PARTIAL_FACTOR",
                    flops=flops_partial_factor(m, node.rank),
                )

            for k in range(2 ** (level - 1)):

                def merge(level=level, k=k) -> None:
                    diag[(level - 1, k)] = merge_siblings(
                        schur[(level, 2 * k)],
                        schur[(level, 2 * k + 1)],
                        hss.coupling(level, 2 * k + 1, 2 * k),
                    )

                self.insert(
                    merge,
                    [
                        (self._schur_h[(level, 2 * k)], AccessMode.READ),
                        (self._schur_h[(level, 2 * k + 1)], AccessMode.READ),
                        (self._s[(level, k)], AccessMode.READ),
                        (self._d[(level - 1, k)], AccessMode.WRITE),
                    ],
                    name=f"MERGE[{level - 1};{k}]",
                    kind="MERGE",
                )

        def root_factor() -> None:
            factor.root_chol = np.linalg.cholesky(diag[(0, 0)])

        self.set_phase(max_level)
        self.insert(
            root_factor,
            [(self._d[(0, 0)], AccessMode.RW)],
            name="ROOT_POTRF",
            kind="POTRF",
            flops=flops_potrf(hss.block_size(0, 0)),
        )

    # Runs inside each worker: ship back the factor pieces its local tasks
    # produced (a node is complete once its PARTIAL_FACTOR has run, which
    # happens on the D-block owner).
    def collect_local(self):
        levels = self.factor.levels
        return {
            "nodes": {(l, i): levels[l].node_arrays(i) for l, i in self._done},
            "root_chol": self.factor.root_chol if self.factor.root_chol.size else None,
        }

    def merge_fragment(self, fragment) -> None:
        for (level, i), arrays in fragment["nodes"].items():
            self.factor.levels[level].store(i, arrays)
        if fragment["root_chol"] is not None:
            self.factor.root_chol = fragment["root_chol"]

    def execute(self, *, timeout: Optional[float] = None):
        report = super().execute(timeout=timeout)
        self.factor.check_finite()
        return report

    def result(self) -> HSSULVFactor:
        return self.factor


def build_hss_ulv_taskgraph(
    structure: HSSStructure,
    *,
    nodes: int = 1,
    distribution: Optional[DistributionStrategy] = None,
) -> DTDRuntime:
    """Build the HSS-ULV task graph symbolically from a structural description.

    The graph has exactly the same tasks, dependencies, flop counts, handle
    sizes and owners as :class:`HSSULVFactorizeBuilder` records for the
    matrix the structure describes, but no numerical payloads -- so the
    distributed-machine simulator can replay paper-scale problems (N up to
    262,144) without any numerical work.
    """
    rt = DTDRuntime(execution="symbolic")
    max_level = structure.max_level

    d_handle: Dict[Tuple[int, int], object] = {}
    s_handle: Dict[Tuple[int, int], object] = {}
    schur_handle: Dict[Tuple[int, int], object] = {}
    u_handle: Dict[Tuple[int, int], object] = {}

    for level in range(max_level, -1, -1):
        for i in range(structure.num_blocks(level)):
            m = structure.block_size(level, i)
            d_handle[(level, i)] = rt.new_handle(
                f"D[{level};{i}]", nbytes=8 * m * m, level=level, row=i, max_level=max_level
            )
            if level > 0:
                r = structure.rank(level, i)
                u_handle[(level, i)] = rt.new_handle(
                    f"U[{level};{i}]", nbytes=8 * m * r, level=level, row=i, max_level=max_level
                )
                schur_handle[(level, i)] = rt.new_handle(
                    f"SCHUR[{level};{i}]", nbytes=8 * r * r, level=level, row=i, max_level=max_level
                )
    for level in range(1, max_level + 1):
        for k in range(2 ** (level - 1)):
            ri = structure.rank(level, 2 * k + 1)
            rj = structure.rank(level, 2 * k)
            s_handle[(level, k)] = rt.new_handle(
                f"S[{level};{2 * k + 1},{2 * k}]",
                nbytes=8 * ri * rj,
                level=level,
                row=2 * k + 1,
                col=2 * k,
                max_level=max_level,
            )

    strategy = distribution if distribution is not None else RowCyclicDistribution(nodes, max_level=max_level)
    strategy.assign(rt.handles)

    for level in range(max_level, 0, -1):
        phase = max_level - level
        for i in range(structure.num_blocks(level)):
            m = structure.block_size(level, i)
            r = structure.rank(level, i)
            rt.insert_task(
                None,
                [
                    (u_handle[(level, i)], AccessMode.READ),
                    (d_handle[(level, i)], AccessMode.RW),
                ],
                name=f"DIAG_PRODUCT[{level};{i}]",
                kind="DIAG_PRODUCT",
                flops=flops_diag_product(m, r),
                phase=phase,
            )
            rt.insert_task(
                None,
                [
                    (d_handle[(level, i)], AccessMode.RW),
                    (schur_handle[(level, i)], AccessMode.WRITE),
                ],
                name=f"PARTIAL_FACTOR[{level};{i}]",
                kind="PARTIAL_FACTOR",
                flops=flops_partial_factor(m, r),
                phase=phase,
            )
        for k in range(2 ** (level - 1)):
            rt.insert_task(
                None,
                [
                    (schur_handle[(level, 2 * k)], AccessMode.READ),
                    (schur_handle[(level, 2 * k + 1)], AccessMode.READ),
                    (s_handle[(level, k)], AccessMode.READ),
                    (d_handle[(level - 1, k)], AccessMode.WRITE),
                ],
                name=f"MERGE[{level - 1};{k}]",
                kind="MERGE",
                flops=0.0,
                phase=phase,
            )

    m0 = structure.block_size(0, 0)
    rt.insert_task(
        None,
        [(d_handle[(0, 0)], AccessMode.RW)],
        name="ROOT_POTRF",
        kind="POTRF",
        flops=flops_potrf(m0),
        phase=max_level,
    )
    return rt


class LeafULVFactorizeBuilder(GraphBuilder):
    """Record (and execute) the leaf-ULV factorization graph over a leaf system.

    ``factor`` is the format's factor object (the ``level`` stacks and
    ``merged_chol``, filled in place); ``system`` is the leaf system being
    factorized.
    The recorded tasks are exactly the operations of
    :func:`repro.core.leaf_ulv.leaf_ulv_factorize_into`, so every backend is
    bit-identical to that sequential reference.
    """

    def __init__(self, system, factor, *, policy=None) -> None:
        super().__init__(policy=policy)
        self.system = system
        self.factor = factor
        # The flat block rows are mapped onto a virtual tree level deep
        # enough to hold them so the row-cyclic strategy spreads all rows.
        self.max_level = leaf_virtual_level(system.nblocks)
        self._offsets = factor._skeleton_offsets()
        self._merged = np.zeros((self._offsets[-1], self._offsets[-1]))
        # Mutable stores the task bodies operate on.
        self._diag: Dict[int, np.ndarray] = {}
        self._schur: Dict[int, np.ndarray] = {}
        # Rows whose factors this process has written (shipped by collect_local).
        self._done: set = set()
        # Data handles.
        self._d: Dict[int, object] = {}
        self._u: Dict[int, object] = {}
        self._schur_h: Dict[int, object] = {}
        self._row: Dict[int, object] = {}
        self._s: Dict[Tuple[int, int], object] = {}
        self._chol = None

    def declare_handles(self) -> None:
        system, level, offsets = self.system, self.max_level, self._offsets
        merged = self._merged
        for i in range(system.nblocks):
            rng = system.block_range(i)
            m = rng.stop - rng.start
            r = system.rank(i)
            # Mutable handles are bound to their stores so the distributed
            # backend can move their values between worker processes.
            self._d[i] = self.handle(
                f"D[{i}]", 8 * m * m, level=level, row=i
            ).bind_item(self._diag, i)
            self._u[i] = self.handle(f"U[{i}]", 8 * m * r, level=level, row=i)
            self._schur_h[i] = self.handle(
                f"SCHUR[{i}]", 8 * r * r, level=level, row=i
            ).bind_item(self._schur, i)
            self._row[i] = self.handle(
                f"MERGED_ROW[{i}]", 8 * r * offsets[-1], level=level, row=i
            ).bind(
                # The merged-row strip lives inside the shared `merged` array,
                # so the accessors copy the block-row slice in and out.
                lambda i=i: merged[offsets[i] : offsets[i + 1], :].copy(),
                lambda value, i=i: merged.__setitem__(
                    (slice(offsets[i], offsets[i + 1]), slice(None)), value
                ),
            )
        for i in range(system.nblocks):
            for j in range(i):
                self._s[(i, j)] = self.handle(
                    f"S[{i},{j}]",
                    8 * system.rank(i) * system.rank(j),
                    level=level,
                    row=i,
                    col=j,
                )
        self._chol = self.handle("CHOL", 8 * offsets[-1] ** 2, level=0, row=0)

    def seed(self) -> None:
        # The task bodies replace D blocks, never write into them.
        for i in range(self.system.nblocks):
            self._diag[i] = self.system.diag[i]

    def record_tasks(self) -> None:
        system, factor = self.system, self.factor
        diag, schur, merged, offsets = self._diag, self._schur, self._merged, self._offsets
        done = self._done
        nb = system.nblocks

        self.set_phase(0)
        for i in range(nb):

            def diag_product(i=i) -> None:
                diag[i] = factor.level.set_basis(i, system.bases[i], diag[i])

            rng = system.block_range(i)
            m = rng.stop - rng.start
            self.insert(
                diag_product,
                [(self._u[i], AccessMode.READ), (self._d[i], AccessMode.RW)],
                name=f"DIAG_PRODUCT[{i}]",
                kind="DIAG_PRODUCT",
                flops=flops_diag_product(m, system.rank(i)),
            )

            def partial_factor(i=i) -> None:
                part = partial_cholesky(diag[i], system.rank(i))
                schur[i] = factor.level.set_partial(i, part)
                done.add(i)

            self.insert(
                partial_factor,
                [(self._d[i], AccessMode.RW), (self._schur_h[i], AccessMode.WRITE)],
                name=f"PARTIAL_FACTOR[{i}]",
                kind="PARTIAL_FACTOR",
                flops=flops_partial_factor(m, system.rank(i)),
            )

        # Assemble the permuted skeleton system (Fig. 4) one block row at a
        # time; the rows write disjoint slices of `merged`, so they run
        # concurrently.
        self.set_phase(1)
        for i in range(nb):

            def merge_row(i=i) -> None:
                assemble_merged_row(merged, offsets, i, schur[i], system)

            accesses = [(self._schur_h[i], AccessMode.READ)]
            accesses += [
                (self._s[(max(i, j), min(i, j))], AccessMode.READ)
                for j in range(nb)
                if j != i
            ]
            accesses += [(self._row[i], AccessMode.WRITE)]
            self.insert(
                merge_row, accesses, name=f"MERGE[{i}]", kind="MERGE"
            )

        def root_factor() -> None:
            factor.merged_chol = np.linalg.cholesky(merged)

        self.set_phase(2)
        self.insert(
            root_factor,
            [(self._row[i], AccessMode.READ) for i in range(nb)]
            + [(self._chol, AccessMode.WRITE)],
            name="ROOT_POTRF",
            kind="POTRF",
            flops=flops_potrf(offsets[-1]),
        )

    # Runs inside each worker: ship back the per-row factor pieces produced
    # locally plus the root Cholesky if this worker ran it.
    def collect_local(self):
        return {
            "rows": {i: self.factor.level.node_arrays(i) for i in self._done},
            "merged_chol": self.factor.merged_chol if self.factor.merged_chol.size else None,
        }

    def merge_fragment(self, fragment) -> None:
        for i, arrays in fragment["rows"].items():
            self.factor.level.store(i, arrays)
        if fragment["merged_chol"] is not None:
            self.factor.merged_chol = fragment["merged_chol"]

    def execute(self, *, timeout: Optional[float] = None):
        report = super().execute(timeout=timeout)
        self.factor.check_finite()
        return report

    def result(self):
        return self.factor

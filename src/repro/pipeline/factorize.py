"""The factorization graph builder on the shared scaffold.

:class:`HSSULVFactorizeBuilder` records the ULV graph of every format
(Fig. 8): per-node diagonal-product and partial-factorization tasks walking
the factored levels from the leaves to the root, one MERGE task per parent
assembling its children's Schur complements and couplings, one final root
POTRF.  HSS factors every level and merges sibling pairs (Alg. 2); HODLR
uses it through its exact HSS form
(:func:`~repro.core.hodlr_ulv.hodlr_to_hss`); BLR2 is a one-level tree whose
single ``MERGE[0;0]`` assembles every block row (Alg. 1).  Given an
:class:`~repro.formats.hss.HSSStructure` (sizes and ranks only) instead of a
matrix, the same builder records the same graph *symbolically*, for the
distributed-machine simulator.

Every backend branch lives in :meth:`ExecutionPolicy.execute
<repro.pipeline.policy.ExecutionPolicy.execute>`; the builder only records
tasks and defines the distributed result fragments.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.hss_ulv import HSSULVFactor, merge_children
from repro.core.partial_cholesky import cholesky, partial_cholesky
from repro.formats.hss import HSSStructure
from repro.pipeline.builder import GraphBuilder
from repro.runtime.dtd import DTDRuntime
from repro.runtime.flops import (
    flops_diag_product,
    flops_partial_factor,
    flops_potrf,
)
from repro.runtime.task import AccessMode

__all__ = ["HSSULVFactorizeBuilder"]


class HSSULVFactorizeBuilder(GraphBuilder):
    """Record (and execute) the ULV factorization task graph of any format.

    ``matrix`` is an :class:`~repro.formats.hss.HSSMatrix`, a
    :class:`~repro.formats.blr2.BLR2Matrix` or an
    :class:`~repro.formats.hss.HSSStructure`.  Recording reads only the
    structure (factored levels, block sizes, ranks, children); the task
    bodies read the matrix.  Given a structure, the builder records the same
    graph into a ``symbolic`` runtime, which drops the bodies and allocates
    no factor: that is the graph the distributed-machine simulator replays
    at paper scale (N up to 262,144).  A symbolic graph cannot execute.
    """

    def __init__(self, matrix, *, policy=None) -> None:
        super().__init__(policy=policy)
        if isinstance(matrix, HSSStructure):
            self.matrix, self.structure, self.factor = None, matrix, None
            self.runtime = DTDRuntime(execution="symbolic")
        else:
            self.matrix, self.structure = matrix, HSSStructure.from_matrix(matrix)
            self.factor = HSSULVFactor(matrix=matrix)
        self.max_level = self.structure.max_level
        # Mutable stores the task bodies operate on.
        self._diag: Dict[Tuple[int, int], np.ndarray] = {}
        self._schur: Dict[Tuple[int, int], np.ndarray] = {}
        # Nodes whose factors this process has written (shipped by collect_local).
        self._done: set = set()
        # Data handles.
        self._d: Dict[Tuple[int, int], object] = {}
        self._s: Dict[Tuple[int, int, int], object] = {}
        self._schur_h: Dict[Tuple[int, int], object] = {}
        self._u: Dict[Tuple[int, int], object] = {}

    def declare_handles(self) -> None:
        st = self.structure
        for level in st.levels + (0,):
            for i in range(2**level):
                m = st.block_size(level, i)
                # The D/SCHUR handles are bound to the mutable stores so the
                # distributed backend can move their values between processes.
                self._d[(level, i)] = self.handle(
                    f"D[{level};{i}]", 8 * m * m, level=level, row=i
                ).bind_item(self._diag, (level, i))
                if level > 0:
                    r = st.rank(level, i)
                    self._u[(level, i)] = self.handle(
                        f"U[{level};{i}]", 8 * m * r, level=level, row=i
                    )
                    self._schur_h[(level, i)] = self.handle(
                        f"SCHUR[{level};{i}]", 8 * r * r, level=level, row=i
                    ).bind_item(self._schur, (level, i))
        for level in reversed(st.levels):
            for _, _, nodes in st.merges(level):
                for i in nodes:
                    for j in range(nodes.start, i):
                        self._s[(level, i, j)] = self.handle(
                            f"S[{level};{i},{j}]",
                            8 * st.rank(level, i) * st.rank(level, j),
                            level=level,
                            row=i,
                            col=j,
                        )

    def seed(self) -> None:
        if self.matrix is None:
            return
        # The task bodies replace D blocks, never write into them.
        for i in range(2**self.max_level):
            self._diag[(self.max_level, i)] = self.matrix.leaf_block(i)

    def record_tasks(self) -> None:
        matrix, st = self.matrix, self.structure
        factor, diag, schur, done = self.factor, self._diag, self._schur, self._done
        for phase, level in enumerate(st.levels):
            # Phases increase as the factorization walks leaves -> root.
            self.set_phase(phase)
            for i in range(2**level):
                m, r = st.block_size(level, i), st.rank(level, i)

                def diag_product(level=level, i=i) -> None:
                    diag[(level, i)] = factor.levels[level].set_basis(
                        i, matrix.node_basis(level, i), diag[(level, i)]
                    )

                self.insert(
                    diag_product,
                    [
                        (self._u[(level, i)], AccessMode.READ),
                        (self._d[(level, i)], AccessMode.RW),
                    ],
                    name=f"DIAG_PRODUCT[{level};{i}]",
                    kind="DIAG_PRODUCT",
                    flops=flops_diag_product(m, r),
                )

                def partial_factor(level=level, i=i, r=r) -> None:
                    part = partial_cholesky(diag[(level, i)], r, level=level, node=i)
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
                    flops=flops_partial_factor(m, r),
                )

            for parent, k, nodes in st.merges(level):

                def merge(level=level, parent=parent, k=k, nodes=nodes) -> None:
                    diag[(parent, k)] = merge_children(
                        [schur[(level, i)] for i in nodes],
                        nodes,
                        lambda i, j: matrix.node_coupling(level, i, j),
                    )

                self.insert(
                    merge,
                    [(self._schur_h[(level, i)], AccessMode.READ) for i in nodes]
                    + [
                        (self._s[(level, i, j)], AccessMode.READ)
                        for i in nodes
                        for j in range(nodes.start, i)
                    ]
                    + [(self._d[(parent, k)], AccessMode.WRITE)],
                    name=f"MERGE[{parent};{k}]",
                    kind="MERGE",
                )

        def root_factor() -> None:
            factor.root_chol = cholesky(diag[(0, 0)], level=0, node=0)

        self.set_phase(len(st.levels))
        self.insert(
            root_factor,
            [(self._d[(0, 0)], AccessMode.RW)],
            name="ROOT_POTRF",
            kind="POTRF",
            flops=flops_potrf(st.block_size(0, 0)),
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
        self._require_matrix()
        report = super().execute(timeout=timeout)
        self.factor.check_finite()
        return report

    def result(self) -> HSSULVFactor:
        self._require_matrix()
        return self.factor

    def _require_matrix(self) -> None:
        if self.matrix is None:
            raise RuntimeError(
                "a graph recorded from an HSSStructure is symbolic; it cannot run "
                "and has no factor"
            )

"""Solve graph builders on the shared scaffold (factorize once, solve many).

The three ULV solve phases -- forward elimination of the redundant unknowns,
the small dense root solve, and back-substitution -- recorded as
``insert_task`` graphs that *read* the immutable factor pieces and read/write
per-panel right-hand-side blocks:

:class:`HSSULVSolveBuilder`
    The multi-level graph (Eq. 17) over an
    :class:`~repro.core.hss_ulv.HSSULVFactor`.

:class:`LeafULVSolveBuilder`
    The single-level graph (Eq. 15) over any leaf-ULV factor
    (:class:`~repro.core.blr2_ulv.BLR2ULVFactor`,
    :class:`~repro.core.hodlr_ulv.HODLRULVFactor`).

Multi-RHS blocks are split into independent column panels, each carrying its
own forward/root/backward task chain (scaffolded by
:class:`~repro.pipeline.builder.SolveGraphBuilder`); every backend produces
solutions bit-identical to the sequential reference solves.
:func:`solve_through_builder` is the shared entry point behind every
format's ``solve_dtd``: plan replay and the optional one-step iterative
refinement.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np
import scipy.linalg

from repro.pipeline.builder import SolveGraphBuilder
from repro.pipeline.factorize import leaf_virtual_level
from repro.pipeline.panels import refine_once
from repro.pipeline.plans import SolvePlans
from repro.pipeline.policy import ExecutionPolicy
from repro.runtime.dtd import DTDRuntime
from repro.runtime.flops import (
    flops_solve_backward,
    flops_solve_forward,
    flops_solve_root,
)
from repro.runtime.task import AccessMode

__all__ = [
    "HSSULVSolveBuilder",
    "LeafULVSolveBuilder",
    "solve_through_builder",
]


def solve_through_builder(
    builder_cls: Type[SolveGraphBuilder],
    factor,
    b: np.ndarray,
    *,
    policy: ExecutionPolicy,
    refine: bool = False,
    matvec=None,
    default_op=None,
    plans: Optional[SolvePlans] = None,
) -> Tuple[np.ndarray, DTDRuntime]:
    """Record (or replay), execute and post-process one task-graph solve.

    Returns ``(x, runtime)`` with ``x`` shaped like ``b``.  With ``plans``
    (the caller's :class:`~repro.pipeline.plans.SolvePlans`) a graph already
    recorded for this right-hand-side width and policy is rebound to ``b``
    and run again instead of being re-recorded; without, every call records.
    ``refine=True`` solves the residual against ``matvec`` (default:
    ``default_op``, the factorized operator) on the same backend -- through
    the same graph where it can be replayed -- and adds the correction.
    """
    if plans is None:
        plans = SolvePlans()  # nobody to keep the recording for: record, run, drop
    with plans.checkout(builder_cls, factor, b, policy) as builder:
        x = builder.run()
        single = builder.single
        if refine:
            op = matvec if matvec is not None else default_op

            def solve_residual(r: np.ndarray) -> np.ndarray:
                if builder.replayable:
                    builder.rebind(r)
                    return builder.run()
                # Immediate bodies already ran: record the residual solve afresh.
                return builder_cls(factor, r, policy=policy).run()

            x = refine_once(solve_residual, op, builder.bm, x)
    return (x[:, 0] if single else x), builder.runtime


class HSSULVSolveBuilder(SolveGraphBuilder):
    """The forward/root/backward HSS-ULV solve graph for one RHS block."""

    def __init__(self, factor, b, *, policy=None) -> None:
        super().__init__(factor, b, policy=policy)
        self.max_level = factor.hss.max_level
        # Mutable per-panel stores the task bodies operate on.
        self._work: Dict[Tuple[int, int, int], np.ndarray] = self.store()
        self._zs: Dict[Tuple[int, int, int], np.ndarray] = self.store()
        self._bs: Dict[Tuple[int, int, int], np.ndarray] = self.store()
        # Handles.
        self._fac: Dict[Tuple[int, int], object] = {}
        self._root = None
        self._work_h: Dict[Tuple[int, int, int], object] = {}
        self._z_h: Dict[Tuple[int, int, int], object] = {}
        self._s_h: Dict[Tuple[int, int, int], object] = {}
        self._sol_h: Dict[Tuple[int, int, int], object] = {}

    @property
    def n(self) -> int:
        return self.factor.hss.n

    def declare_handles(self) -> None:
        factor, max_level = self.factor, self.max_level
        # Immutable factor handles: read-only inputs of every solve task.
        # They have no writer, so they never cross a process boundary (forked
        # workers inherit the factors), but declaring them keeps the recorded
        # graph an honest description of the data each task touches.
        for (level, i), nf in sorted(factor.node_factors.items()):
            self._fac[(level, i)] = self.handle(
                f"ULV[{level};{i}]",
                nf.U.nbytes + nf.partial.L_rr.nbytes + nf.partial.L_sr.nbytes,
                level=level,
                row=i,
            )
        self._root = self.handle(
            "ULV_ROOT", factor.root_chol.nbytes, level=0, row=0
        )
        # Per-panel RHS/solution handles, bound to the stores so the
        # distributed backend can move their values between processes.
        for p, cols in enumerate(self.panels):
            pw = cols.stop - cols.start
            for level in range(max_level, -1, -1):
                for i in range(2**level):
                    if level > 0:
                        nf = factor.node_factors[(level, i)]
                        m, r = nf.block_size, nf.rank
                    else:
                        m = r = factor.root_chol.shape[0]
                    self._work_h[(p, level, i)] = self.handle(
                        f"B[{level};{i};p{p}]", 8 * m * pw,
                        level=level, row=i, panel=p,
                    ).bind_item(self._work, (p, level, i))
                    self._sol_h[(p, level, i)] = self.handle(
                        f"X[{level};{i};p{p}]", 8 * m * pw,
                        level=level, row=i, panel=p,
                    ).bind_item(self.sol, (p, level, i))
                    if level > 0:
                        self._z_h[(p, level, i)] = self.handle(
                            f"Z[{level};{i};p{p}]", 8 * (m - r) * pw,
                            level=level, row=i, panel=p,
                        ).bind_item(self._zs, (p, level, i))
                        self._s_h[(p, level, i)] = self.handle(
                            f"BS[{level};{i};p{p}]", 8 * r * pw,
                            level=level, row=i, panel=p,
                        ).bind_item(self._bs, (p, level, i))

    def seed(self) -> None:
        # Leaf RHS blocks (inherited by forked workers).
        hss = self.factor.hss
        for p, cols in enumerate(self.panels):
            for i in range(2**self.max_level):
                node = hss.node(self.max_level, i)
                self._work[(p, self.max_level, i)] = self.bm[node.start : node.stop, cols].copy()

    def record_tasks(self) -> None:
        factor, max_level = self.factor, self.max_level
        work, zs, bs, sol = self._work, self._zs, self._bs, self.sol
        for p, cols in enumerate(self.panels):
            pw = cols.stop - cols.start

            # Forward pass: rotate, eliminate redundant unknowns, merge upward.
            for level in range(max_level, 0, -1):
                self.set_phase(max_level - level)
                for i in range(2**level):
                    nf = factor.node_factors[(level, i)]

                    def forward(p=p, level=level, i=i, nf=nf) -> None:
                        bhat = nf.U.T @ work[(p, level, i)]
                        nr = nf.redundant_size
                        br, bsi = bhat[:nr], bhat[nr:]
                        if nr > 0:
                            z = scipy.linalg.solve_triangular(nf.partial.L_rr, br, lower=True)
                            bsi = bsi - nf.partial.L_sr @ z
                        else:
                            z = br
                        zs[(p, level, i)] = z
                        bs[(p, level, i)] = bsi

                    self.insert(
                        forward,
                        [
                            (self._fac[(level, i)], AccessMode.READ),
                            (self._work_h[(p, level, i)], AccessMode.READ),
                            (self._z_h[(p, level, i)], AccessMode.WRITE),
                            (self._s_h[(p, level, i)], AccessMode.WRITE),
                        ],
                        name=f"FWD[{level};{i};p{p}]",
                        kind="SOLVE_FWD",
                        flops=flops_solve_forward(nf.block_size, nf.rank, pw),
                    )
                for k in range(2 ** (level - 1)):

                    def merge_rhs(p=p, level=level, k=k) -> None:
                        work[(p, level - 1, k)] = np.vstack(
                            [bs[(p, level, 2 * k)], bs[(p, level, 2 * k + 1)]]
                        )

                    self.insert(
                        merge_rhs,
                        [
                            (self._s_h[(p, level, 2 * k)], AccessMode.READ),
                            (self._s_h[(p, level, 2 * k + 1)], AccessMode.READ),
                            (self._work_h[(p, level - 1, k)], AccessMode.WRITE),
                        ],
                        name=f"MERGE_RHS[{level - 1};{k};p{p}]",
                        kind="MERGE_RHS",
                    )

            # Root dense solve.
            def root_solve(p=p) -> None:
                y0 = scipy.linalg.solve_triangular(factor.root_chol, work[(p, 0, 0)], lower=True)
                sol[(p, 0, 0)] = scipy.linalg.solve_triangular(
                    factor.root_chol.T, y0, lower=False
                )

            self.set_phase(max_level)
            self.insert(
                root_solve,
                [
                    (self._root, AccessMode.READ),
                    (self._work_h[(p, 0, 0)], AccessMode.READ),
                    (self._sol_h[(p, 0, 0)], AccessMode.WRITE),
                ],
                name=f"ROOT_SOLVE[p{p}]",
                kind="SOLVE_ROOT",
                flops=flops_solve_root(factor.root_chol.shape[0], pw),
            )

            # Backward pass: un-merge, back-substitute, rotate back.
            for level in range(1, max_level + 1):
                self.set_phase(max_level + level)
                for i in range(2**level):
                    nf = factor.node_factors[(level, i)]
                    r_left = factor.node_factors[(level, 2 * (i // 2))].rank

                    def backward(p=p, level=level, i=i, nf=nf, r_left=r_left) -> None:
                        parent = sol[(p, level - 1, i // 2)]
                        ys = parent[:r_left] if i % 2 == 0 else parent[r_left:]
                        nr = nf.redundant_size
                        if nr > 0:
                            rhs = zs[(p, level, i)] - nf.partial.L_sr.T @ ys
                            yr = scipy.linalg.solve_triangular(nf.partial.L_rr.T, rhs, lower=False)
                        else:
                            yr = zs[(p, level, i)][:0]
                        sol[(p, level, i)] = nf.U @ np.vstack([yr, ys])

                    self.insert(
                        backward,
                        [
                            (self._fac[(level, i)], AccessMode.READ),
                            (self._sol_h[(p, level - 1, i // 2)], AccessMode.READ),
                            (self._z_h[(p, level, i)], AccessMode.READ),
                            (self._sol_h[(p, level, i)], AccessMode.WRITE),
                        ],
                        name=f"BWD[{level};{i};p{p}]",
                        kind="SOLVE_BWD",
                        flops=flops_solve_backward(nf.block_size, nf.rank, pw),
                    )

    # Ship only the leaf solution blocks (the ones gather() reads); the
    # interior sol entries are per-worker scratch.
    def collect_local(self):
        leaf_keys = [
            (p, self.max_level, i)
            for p in range(len(self.panels))
            for i in range(2**self.max_level)
        ]
        return {key: self.sol[key] for key in leaf_keys if key in self.sol}

    def gather(self) -> np.ndarray:
        hss = self.factor.hss
        x = np.empty_like(self.bm)
        for p, cols in enumerate(self.panels):
            for i in range(2**self.max_level):
                node = hss.node(self.max_level, i)
                x[node.start : node.stop, cols] = self.sol[(p, self.max_level, i)]
        return x


class LeafULVSolveBuilder(SolveGraphBuilder):
    """The forward/root/backward leaf-ULV solve graph for one RHS block.

    Works for any leaf-ULV factor (``system`` / ``bases`` / ``partials`` /
    ``merged_chol``): per block row one forward task, one root task against
    the merged Cholesky factor per panel, and per block row one
    back-substitution task.
    """

    def __init__(self, factor, b, *, policy=None) -> None:
        super().__init__(factor, b, policy=policy)
        # Same virtual tree level as the factorization graph, so the
        # row-cyclic strategy spreads the flat block rows identically.
        self.max_level = leaf_virtual_level(factor.system.nblocks)
        self._offsets = factor._skeleton_offsets()
        # Mutable per-panel stores the task bodies operate on.
        self._bin: Dict[Tuple[int, int], np.ndarray] = self.store()
        self._zs: Dict[Tuple[int, int], np.ndarray] = self.store()
        self._bs: Dict[Tuple[int, int], np.ndarray] = self.store()
        self._ys: Dict[int, np.ndarray] = self.store()
        # Handles.
        self._fac: Dict[int, object] = {}
        self._root = None
        self._bin_h: Dict[Tuple[int, int], object] = {}
        self._z_h: Dict[Tuple[int, int], object] = {}
        self._s_h: Dict[Tuple[int, int], object] = {}
        self._y_h: Dict[int, object] = {}
        self._sol_h: Dict[Tuple[int, int], object] = {}

    @property
    def n(self) -> int:
        return self.factor.system.n

    def declare_handles(self) -> None:
        factor, level = self.factor, self.max_level
        system = factor.system
        nb = system.nblocks
        # Immutable factor handles (no writers: inherited by forked workers).
        for i in range(nb):
            part = factor.partials[i]
            self._fac[i] = self.handle(
                f"ULV[{i}]",
                factor.bases[i].nbytes + part.L_rr.nbytes + part.L_sr.nbytes,
                level=level,
                row=i,
            )
        self._root = self.handle(
            "ULV_ROOT", factor.merged_chol.nbytes, level=0, row=0
        )
        for p, cols in enumerate(self.panels):
            pw = cols.stop - cols.start
            for i in range(nb):
                rng = system.block_range(i)
                m = rng.stop - rng.start
                r = system.rank(i)
                self._bin_h[(p, i)] = self.handle(
                    f"B[{i};p{p}]", 8 * m * pw, level=level, row=i, panel=p
                ).bind_item(self._bin, (p, i))
                self._z_h[(p, i)] = self.handle(
                    f"Z[{i};p{p}]", 8 * (m - r) * pw, level=level, row=i, panel=p
                ).bind_item(self._zs, (p, i))
                self._s_h[(p, i)] = self.handle(
                    f"BS[{i};p{p}]", 8 * r * pw, level=level, row=i, panel=p
                ).bind_item(self._bs, (p, i))
                self._sol_h[(p, i)] = self.handle(
                    f"X[{i};p{p}]", 8 * m * pw, level=level, row=i, panel=p
                ).bind_item(self.sol, (p, i))
            self._y_h[p] = self.handle(
                f"Y[p{p}]", 8 * self._offsets[-1] * pw, level=0, row=0, panel=p
            ).bind_item(self._ys, p)

    def seed(self) -> None:
        system = self.factor.system
        for p, cols in enumerate(self.panels):
            for i in range(system.nblocks):
                self._bin[(p, i)] = self.bm[system.block_range(i), cols].copy()

    def record_tasks(self) -> None:
        factor, offsets = self.factor, self._offsets
        system = factor.system
        nb = system.nblocks
        bin_store, zs, bs, ys, sol = self._bin, self._zs, self._bs, self._ys, self.sol
        for p, cols in enumerate(self.panels):
            pw = cols.stop - cols.start

            self.set_phase(0)
            for i in range(nb):

                def forward(p=p, i=i) -> None:
                    bhat = factor.bases[i].T @ bin_store[(p, i)]
                    nr = factor.partials[i].redundant_size
                    br, bsi = bhat[:nr], bhat[nr:]
                    if nr > 0:
                        z = scipy.linalg.solve_triangular(factor.partials[i].L_rr, br, lower=True)
                        bsi = bsi - factor.partials[i].L_sr @ z
                    else:
                        z = br
                    zs[(p, i)] = z
                    bs[(p, i)] = bsi

                rng = system.block_range(i)
                m = rng.stop - rng.start
                self.insert(
                    forward,
                    [
                        (self._fac[i], AccessMode.READ),
                        (self._bin_h[(p, i)], AccessMode.READ),
                        (self._z_h[(p, i)], AccessMode.WRITE),
                        (self._s_h[(p, i)], AccessMode.WRITE),
                    ],
                    name=f"FWD[{i};p{p}]",
                    kind="SOLVE_FWD",
                    flops=flops_solve_forward(m, system.rank(i), pw),
                )

            def root_solve(p=p) -> None:
                # Stacking the skeleton blocks in row order yields exactly the
                # merged_rhs array of the sequential reference.
                merged_rhs = np.vstack([bs[(p, i)] for i in range(nb)])
                y = scipy.linalg.solve_triangular(factor.merged_chol, merged_rhs, lower=True)
                ys[p] = scipy.linalg.solve_triangular(factor.merged_chol.T, y, lower=False)

            self.set_phase(1)
            self.insert(
                root_solve,
                [(self._s_h[(p, i)], AccessMode.READ) for i in range(nb)]
                + [(self._root, AccessMode.READ), (self._y_h[p], AccessMode.WRITE)],
                name=f"ROOT_SOLVE[p{p}]",
                kind="SOLVE_ROOT",
                flops=flops_solve_root(offsets[-1], pw),
            )

            self.set_phase(2)
            for i in range(nb):

                def backward(p=p, i=i) -> None:
                    ysi = ys[p][offsets[i] : offsets[i + 1]]
                    nr = factor.partials[i].redundant_size
                    if nr > 0:
                        rhs = zs[(p, i)] - factor.partials[i].L_sr.T @ ysi
                        yr = scipy.linalg.solve_triangular(factor.partials[i].L_rr.T, rhs, lower=False)
                    else:
                        yr = zs[(p, i)][:0]
                    sol[(p, i)] = factor.bases[i] @ np.vstack([yr, ysi])

                rng = system.block_range(i)
                m = rng.stop - rng.start
                self.insert(
                    backward,
                    [
                        (self._fac[i], AccessMode.READ),
                        (self._y_h[p], AccessMode.READ),
                        (self._z_h[(p, i)], AccessMode.READ),
                        (self._sol_h[(p, i)], AccessMode.WRITE),
                    ],
                    name=f"BWD[{i};p{p}]",
                    kind="SOLVE_BWD",
                    flops=flops_solve_backward(m, system.rank(i), pw),
                )

    def gather(self) -> np.ndarray:
        system = self.factor.system
        x = np.empty_like(self.bm)
        for p, cols in enumerate(self.panels):
            for i in range(system.nblocks):
                x[system.block_range(i), cols] = self.sol[(p, i)]
        return x

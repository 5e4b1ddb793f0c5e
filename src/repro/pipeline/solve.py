"""The solve graph builder on the shared scaffold (factorize once, solve many).

The three ULV solve phases -- forward elimination of the redundant unknowns,
the small dense root solve, and back-substitution -- recorded as
``insert_task`` graphs that *read* the immutable factor pieces and read/write
per-panel right-hand-side blocks.  :class:`HSSULVSolveBuilder` records one
task per factored tree level (per owner chunk of a level when the policy has
several nodes or workers) running the level kernels of
:mod:`repro.core.level_ulv`, the same code the sequential reference runs, over
an :class:`~repro.core.hss_ulv.HSSULVFactor` of any format: the multi-level
graph (Eq. 17) of an HSS matrix or of a HODLR matrix's truncated HSS form, and
the one-level graph (Eq. 15) of a BLR2 matrix.

Multi-RHS blocks are split into independent column panels, each carrying its
own forward/root/backward task chain (scaffolded by
:class:`~repro.pipeline.builder.SolveGraphBuilder`); every backend produces
solutions bit-identical to the sequential reference solves.
:func:`solve_through_builder` is the shared entry point behind every
format's ``solve_dtd``: plan replay and the optional one-step iterative
refinement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.level_ulv import LevelFactors, backward_level, forward_level, root_solve
from repro.pipeline.builder import SolveGraphBuilder
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

__all__ = ["HSSULVSolveBuilder", "solve_through_builder"]


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
                builder.rebind(r)
                return builder.run()

            x = refine_once(solve_residual, op, builder.bm, x)
    return (x[:, 0] if single else x), builder.runtime


def _chunks(nodes: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``nodes`` consecutive nodes into ``min(parts, nodes)`` contiguous chunks."""
    count = min(parts, nodes)
    return [(c * nodes // count, (c + 1) * nodes // count) for c in range(count)]


def _bounds(offsets: np.ndarray, chunks: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Row range ``(offsets[lo], offsets[hi])`` of every chunk."""
    return [(int(offsets[lo]), int(offsets[hi])) for lo, hi in chunks]


def _chunk_flops(flops, level: LevelFactors, lo: int, hi: int, k: int) -> float:
    """The per-node flop model ``flops(m, r, k)`` summed over nodes ``lo..hi-1``."""
    return sum(
        flops(int(m), int(r), k) for m, r in zip(level.sizes[lo:hi], level.ranks[lo:hi])
    )


def _overlapping(bounds: Sequence[Tuple[int, int]], lo: int, hi: int) -> List[int]:
    """Indices of the row ranges in ``bounds`` that overlap rows ``lo..hi-1``."""
    return [c for c, (a, b) in enumerate(bounds) if a < hi and b > lo]


def _take_rows(pieces: Sequence[np.ndarray], start: int, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo..hi-1`` of the stacked ``pieces``, the first piece starting at row ``start``.

    A consumer covered by exactly one producer chunk gets that chunk's block
    itself (the zero-copy merge of a uniform level).
    """
    block = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    if start == lo and block.shape[0] == hi - lo:
        return block
    return block[lo - start : hi - start]


class HSSULVSolveBuilder(SolveGraphBuilder):
    """The forward/root/backward ULV solve graph (Eq. 15/17) for one RHS block.

    Per RHS panel: one forward task per factored level chunk (leaves first),
    one root solve, one backward task per level chunk, each running the
    level kernel of :mod:`repro.core.level_ulv` on its chunk.  A level is
    split into contiguous owner chunks only when the policy has more than
    one node or worker; a chunk's flat skeleton output is read directly by
    the parent level's chunks covering the same rows, so there are no merge
    tasks.  Tasks and handles are tagged with the tree level they belong to
    (names and distribution metadata).
    """

    def __init__(self, factor, b, *, policy=None) -> None:
        self.max_level = factor.matrix.max_level
        self.tags = sorted(factor.levels, reverse=True)
        self.levels = [factor.levels[level] for level in self.tags]
        self.root_chol = factor.root_chol
        super().__init__(factor, b, policy=policy)
        policy = self.policy
        threads = policy.n_workers if policy.backend == "parallel" else 1
        parts = max(1, policy.ranks, threads)
        self._chunks = [_chunks(level.num_nodes, parts) for level in self.levels]
        # Row ranges per chunk: rows[t] in level t's flat block (its input
        # and its solution), skeleton[t] in level t + 1's.  The root is one
        # more "level" of one chunk.
        self._rows = [
            _bounds(level.offsets, chunks) for level, chunks in zip(self.levels, self._chunks)
        ] + [[(0, self.root_chol.shape[0])]]
        self._skeleton = [
            _bounds(level.skeleton_offsets, chunks)
            for level, chunks in zip(self.levels, self._chunks)
        ]
        # Mutable per-panel stores the task bodies operate on: leaf RHS
        # chunks, redundant and skeleton forward outputs, interior
        # solutions (the leaf-level solution chunks go into self.sol).
        self._b: Dict[Tuple[int, int], np.ndarray] = self.store()
        self._z: Dict[Tuple[int, int, int], list] = self.store()
        self._s: Dict[Tuple[int, int, int], np.ndarray] = self.store()
        self._x: Dict[Tuple[int, int, int], np.ndarray] = self.store()
        # Handles.
        self._fac: Dict[Tuple[int, int], object] = {}
        self._root = None
        self._b_h: Dict[Tuple[int, int], object] = {}
        self._z_h: Dict[Tuple[int, int, int], object] = {}
        self._s_h: Dict[Tuple[int, int, int], object] = {}
        self._x_h: Dict[Tuple[int, int, int], object] = {}

    def declare_handles(self) -> None:
        top = len(self.levels)
        # Immutable factor handles: read-only inputs of every solve task.
        # They have no writer, so they never cross a process boundary (forked
        # workers inherit the factors), but declaring them keeps the recorded
        # graph an honest description of the data each task touches.
        for t, (level, tag) in enumerate(zip(self.levels, self.tags)):
            for c, (lo, hi) in enumerate(self._chunks[t]):
                nbytes = sum(
                    stack[a:b].nbytes
                    for g, a, b in level.chunk_groups(lo, hi)
                    for stack in g.solve_stacks
                )
                self._fac[(t, c)] = self.handle(f"ULV[{tag};{c}]", nbytes, level=tag, row=c)
        self._root = self.handle("ULV_ROOT", self.root_chol.nbytes, level=0, row=0)
        # Per-panel RHS/solution handles, bound to the stores so the
        # distributed backend can move their values between processes.
        for p, cols in enumerate(self.panels):
            pw = cols.stop - cols.start
            for c, (lo, hi) in enumerate(self._rows[0]):
                self._b_h[(c, p)] = self.handle(
                    f"B[{c};p{p}]", 8 * (hi - lo) * pw, level=self.tags[0], row=c, panel=p
                ).bind_item(self._b, (c, p))
            for t, tag in enumerate(self.tags):
                xs = self.sol if t == 0 else self._x
                for c, ((lo, hi), (slo, shi)) in enumerate(zip(self._rows[t], self._skeleton[t])):
                    meta = dict(level=tag, row=c, panel=p)
                    self._z_h[(t, c, p)] = self.handle(
                        f"Z[{tag};{c};p{p}]", 8 * (hi - lo - shi + slo) * pw, **meta
                    ).bind_item(self._z, (t, c, p))
                    self._s_h[(t, c, p)] = self.handle(
                        f"BS[{tag};{c};p{p}]", 8 * (shi - slo) * pw, **meta
                    ).bind_item(self._s, (t, c, p))
                    self._x_h[(t, c, p)] = self.handle(
                        f"X[{tag};{c};p{p}]", 8 * (hi - lo) * pw, **meta
                    ).bind_item(xs, (t, c, p))
            self._x_h[(top, 0, p)] = self.handle(
                f"Y[p{p}]", 8 * self.root_chol.shape[0] * pw, level=0, row=0, panel=p
            ).bind_item(self._x, (top, 0, p))

    def seed(self) -> None:
        # Leaf RHS chunks (inherited by forked workers); C order is the
        # layout the kernels and the sequential reference both see.
        for p, cols in enumerate(self.panels):
            for c, (lo, hi) in enumerate(self._rows[0]):
                self._b[(c, p)] = np.ascontiguousarray(self.bm[lo:hi, cols])

    def record_tasks(self) -> None:
        # Task bodies close over these locals, never over self: a
        # builder -> runtime -> task -> builder cycle would keep a dropped
        # plan (and its factor) alive until a gc pass.
        levels, tags, chol = self.levels, self.tags, self.root_chol
        rows, skeleton, top = self._rows, self._skeleton, len(self.levels)
        bstore, zs, ss, xs = self._b, self._z, self._s, self._x
        for p, cols in enumerate(self.panels):
            pw = cols.stop - cols.start

            # Forward pass, leaves first, then the root: each chunk reads
            # the skeleton blocks of the child chunks covering its rows.
            for t in range(top + 1):
                self.set_phase(t)
                for c, (rlo, rhi) in enumerate(rows[t]):
                    if t == 0:
                        inputs, start = [(bstore, (c, p))], rlo
                        reads = [self._b_h[(c, p)]]
                    else:
                        kids = _overlapping(skeleton[t - 1], rlo, rhi)
                        inputs = [(ss, (t - 1, k, p)) for k in kids]
                        start = skeleton[t - 1][kids[0]][0]
                        reads = [self._s_h[(t - 1, k, p)] for k in kids]

                    if t == top:

                        def root(p=p, inputs=inputs, start=start, m0=rhi) -> None:
                            w = _take_rows([store[key] for store, key in inputs], start, 0, m0)
                            xs[(top, 0, p)] = root_solve(chol, w)

                        self.insert(
                            root,
                            [(self._root, AccessMode.READ)]
                            + [(h, AccessMode.READ) for h in reads]
                            + [(self._x_h[(top, 0, p)], AccessMode.WRITE)],
                            name=f"ROOT_SOLVE[p{p}]",
                            kind="SOLVE_ROOT",
                            flops=flops_solve_root(rhi, pw),
                        )
                    else:
                        lo, hi = self._chunks[t][c]

                        def forward(t=t, p=p, c=c, lo=lo, hi=hi, inputs=inputs,
                                    start=start, rlo=rlo, rhi=rhi) -> None:
                            w = _take_rows([store[key] for store, key in inputs], start, rlo, rhi)
                            zs[(t, c, p)], ss[(t, c, p)] = forward_level(levels[t], w, lo, hi)

                        self.insert(
                            forward,
                            [(self._fac[(t, c)], AccessMode.READ)]
                            + [(h, AccessMode.READ) for h in reads]
                            + [
                                (self._z_h[(t, c, p)], AccessMode.WRITE),
                                (self._s_h[(t, c, p)], AccessMode.WRITE),
                            ],
                            name=f"FWD[{tags[t]};{c};p{p}]",
                            kind="SOLVE_FWD",
                            flops=_chunk_flops(flops_solve_forward, levels[t], lo, hi, pw),
                        )

            # Backward pass, root first: each chunk reads the parent chunks
            # holding its skeleton rows.
            for t in range(top - 1, -1, -1):
                self.set_phase(2 * top - t)
                out = self.sol if t == 0 else xs
                for c, (slo, shi) in enumerate(skeleton[t]):
                    parents = _overlapping(rows[t + 1], slo, shi)
                    start = rows[t + 1][parents[0]][0]
                    lo, hi = self._chunks[t][c]

                    def backward(t=t, p=p, c=c, lo=lo, hi=hi, parents=parents,
                                 start=start, slo=slo, shi=shi, out=out) -> None:
                        y = _take_rows([xs[(t + 1, k, p)] for k in parents], start, slo, shi)
                        out[(t, c, p)] = backward_level(levels[t], zs[(t, c, p)], y, lo, hi)

                    self.insert(
                        backward,
                        [(self._fac[(t, c)], AccessMode.READ)]
                        + [(self._x_h[(t + 1, k, p)], AccessMode.READ) for k in parents]
                        + [
                            (self._z_h[(t, c, p)], AccessMode.READ),
                            (self._x_h[(t, c, p)], AccessMode.WRITE),
                        ],
                        name=f"BWD[{tags[t]};{c};p{p}]",
                        kind="SOLVE_BWD",
                        flops=_chunk_flops(flops_solve_backward, levels[t], lo, hi, pw),
                    )

    def gather(self) -> np.ndarray:
        x = np.empty_like(self.bm)
        for p, cols in enumerate(self.panels):
            for c, (lo, hi) in enumerate(self._rows[0]):
                x[lo:hi, cols] = self.sol[(0, c, p)]
        return x

    @property
    def n(self) -> int:
        return self.factor.matrix.n

"""Shared randomized cross-backend harness for the compression pipeline.

The compression subsystem's acceptance contract is sweep-shaped: for every
(format x kernel x backend x nodes) combination, graph-built compression
must be *bit*-identical to the sequential ``formats.build_*`` reference, the
distributed communication ledger must match the static transfer plan, and
the end-to-end compress -> factorize -> solve pipeline must reproduce the
dense reference solution.  This module centralizes that sweep so
``tests/test_compress_dtd.py`` (and any future backend test) drives one
shared, *seeded* case generator instead of hand-picked examples:
:func:`sample_cases` draws the kernel and compression seed of each case from
a fixed-seed RNG (override with ``REPRO_HARNESS_SEED``), making the sweep
randomized but exactly reproducible.

Reference builds, dense matrices and sequential pipeline solutions are
cached per case, so the sweep's cost is dominated by the backend runs under
test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.api import StructuredSolver
from repro.compress.verify import assert_compressed_identical
from repro.core.hss_ulv import HSSULVFactor
from repro.core.partial_cholesky import partial_cholesky
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
from repro.pipeline.factorize import HSSULVFactorizeBuilder
from repro.pipeline.panels import column_panels
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import available_formats, get_format
from repro.runtime.distributed import measured_vs_planned_comm

__all__ = [
    "HARNESS_SEED",
    "KERNELS",
    "CompressCase",
    "sample_cases",
    "kernel_matrix_for",
    "reference_build",
    "dense_reference",
    "graph_build",
    "assert_case_bit_identical",
    "assert_comm_matches_plan",
    "run_pipeline",
    "sequential_pipeline",
    "assert_replay_bit_identical",
    "SolveCase",
    "SOLVE_CASES",
    "solve_case_solver",
    "factorize_graph",
    "recorded_factorize",
    "graph_census",
    "solve_graph",
    "alg1_reference",
]

#: Seed of the case generator; override with REPRO_HARNESS_SEED to explore
#: other draws (every case's identity is printed in the pytest ids).
HARNESS_SEED = int(os.environ.get("REPRO_HARNESS_SEED", "20230810"))

#: Kernels the generator draws from (all SPD on the uniform 2D grid).
KERNELS = ("yukawa", "laplace2d", "matern")


@dataclass(frozen=True)
class CompressCase:
    """One sampled problem of the sweep (hashable, so results cache per case)."""

    format: str
    kernel: str
    n: int
    leaf_size: int
    max_rank: int
    seed: int

    @property
    def id(self) -> str:
        return f"{self.format}-{self.kernel}-n{self.n}-s{self.seed}"


def sample_cases(
    formats: Optional[Sequence[str]] = None,
    *,
    n: int = 256,
    leaf_size: int = 32,
    max_rank: int = 16,
    rng_seed: int = HARNESS_SEED,
) -> Tuple[CompressCase, ...]:
    """One randomized (kernel, seed) case per format, from a seeded RNG.

    The draw order is fixed (formats sorted as the registry lists them), so
    the same ``rng_seed`` always yields the same sweep.
    """
    rng = np.random.default_rng(rng_seed)
    names = tuple(formats) if formats else tuple(
        f for f in available_formats() if get_format(f).compress_graph is not None
    )
    cases = []
    for name in names:
        kernel = str(rng.choice(KERNELS))
        seed = int(rng.integers(0, 2**16))
        cases.append(
            CompressCase(
                format=name, kernel=kernel, n=n, leaf_size=leaf_size,
                max_rank=max_rank, seed=seed,
            )
        )
    return tuple(cases)


@lru_cache(maxsize=None)
def kernel_matrix_for(case: CompressCase) -> KernelMatrix:
    """The (cached) lazily assembled SPD kernel matrix of one case."""
    return KernelMatrix(kernel_by_name(case.kernel), uniform_grid_2d(case.n))


@lru_cache(maxsize=None)
def reference_build(case: CompressCase):
    """The (cached) sequential ``formats.build_*`` output -- the bit-identity oracle."""
    spec = get_format(case.format)
    return spec.build(
        kernel_matrix_for(case),
        leaf_size=case.leaf_size,
        max_rank=case.max_rank,
        tol=None,
        method=None,
        seed=case.seed,
    )


@lru_cache(maxsize=None)
def dense_reference(case: CompressCase) -> np.ndarray:
    """The (cached) dense SPD matrix of one case (end-to-end residual oracle)."""
    return kernel_matrix_for(case).dense()


def _policy(
    backend: str,
    *,
    nodes: int = 1,
    n_workers: int = 2,
    fusion: bool = False,
    data_plane: Optional[str] = None,
) -> ExecutionPolicy:
    return ExecutionPolicy(
        backend=backend, nodes=nodes, n_workers=n_workers, fusion=fusion,
        data_plane=data_plane,
    )


def graph_build(
    case: CompressCase,
    backend: str,
    *,
    nodes: int = 1,
    n_workers: int = 2,
    fusion: bool = False,
    data_plane: Optional[str] = None,
):
    """Compress one case through the registry's ``compress_graph`` on ``backend``.

    Returns ``(matrix, runtime)``.  ``data_plane`` selects the distributed
    transfer representation ("shm" or "pickle"); bit-identity must hold on
    either.
    """
    spec = get_format(case.format)
    return spec.compress_graph(
        kernel_matrix_for(case),
        leaf_size=case.leaf_size,
        max_rank=case.max_rank,
        tol=None,
        method=None,
        seed=case.seed,
        policy=_policy(
            backend, nodes=nodes, n_workers=n_workers, fusion=fusion,
            data_plane=data_plane,
        ),
    )


def assert_case_bit_identical(case: CompressCase, matrix) -> None:
    """The graph-built matrix must equal the sequential reference bit for bit."""
    assert_compressed_identical(case.format, reference_build(case), matrix)


def assert_comm_matches_plan(runtime, nodes: int) -> None:
    """A distributed run's measured ledger must equal the static transfer plan."""
    report = runtime.last_distributed_report
    assert report is not None and report.ok
    measured, planned = measured_vs_planned_comm(runtime.graph, report, nodes)
    assert measured == planned, (
        f"measured comm {measured} does not match the static plan {planned}"
    )


def _case_rhs(case: CompressCase, k: int) -> np.ndarray:
    rng = np.random.default_rng(case.seed + 1)
    return rng.standard_normal((case.n, k))


def run_pipeline(
    case: CompressCase,
    backend: str,
    *,
    nodes: int = 1,
    n_workers: int = 2,
    k: int = 3,
    fusion: bool = False,
    data_plane: Optional[str] = None,
) -> Tuple[np.ndarray, float]:
    """Compress -> factorize -> solve one case entirely on ``backend``.

    Returns the solution block and its relative residual against the *dense*
    reference operator (``||A_dense x - b|| / ||b||``).
    """
    spec = get_format(case.format)
    policy = _policy(
        backend, nodes=nodes, n_workers=n_workers, fusion=fusion,
        data_plane=data_plane,
    )
    matrix, _ = spec.compress_graph(
        kernel_matrix_for(case),
        leaf_size=case.leaf_size,
        max_rank=case.max_rank,
        tol=None,
        method=None,
        seed=case.seed,
        policy=policy,
    )
    factor, _ = spec.factorize_dtd(matrix, policy=policy)
    b = _case_rhs(case, k)
    x, _ = spec.solve_dtd(factor, b, policy=policy)
    dense = dense_reference(case)
    residual = float(np.linalg.norm(dense @ x - b) / np.linalg.norm(b))
    return x, residual


@lru_cache(maxsize=None)
def sequential_pipeline(case: CompressCase, k: int = 3) -> np.ndarray:
    """The (cached) fully sequential pipeline solution of one case."""
    spec = get_format(case.format)
    factor = spec.factorize(reference_build(case))
    return factor.solve(_case_rhs(case, k))


def assert_replay_bit_identical(
    solver: StructuredSolver,
    backend: str,
    *,
    k: int,
    panel_size: Optional[int] = None,
    nodes: int = 1,
    n_workers: int = 2,
    solves: int = 3,
) -> None:
    """``solves`` different RHS through one solver: bit-identical, one recording.

    Every solution must equal the sequential ``factor.solve`` (panel by panel
    when ``panel_size`` splits the block -- the panel width is what BLAS
    sees); the first solve records the graph and every later one must run
    that same runtime object again with an unchanged task count.
    """
    factor = solver.factorize()
    rng = np.random.default_rng(HARNESS_SEED + 17 * k + nodes)
    recorded = None
    for _ in range(solves):
        b = rng.standard_normal(solver.n if k == 1 else (solver.n, k))
        x = solver.solve(
            b, use_runtime=backend, nodes=nodes, n_workers=n_workers, panel_size=panel_size
        )
        if k == 1:
            ref = factor.solve(b)
        else:
            ref = np.hstack([factor.solve(b[:, cols]) for cols in column_panels(k, panel_size)])
        assert x.shape == b.shape
        assert np.array_equal(x, ref)
        runtime = solver.solve_runtime
        if recorded is None:
            recorded = (runtime, runtime.num_tasks)
        else:
            assert runtime is recorded[0], "a later solve re-recorded instead of replaying"
            assert runtime.num_tasks == recorded[1]


@dataclass(frozen=True)
class SolveCase:
    """One problem of the solve sweep (hashable, so its solver caches per case).

    The sweep's point is the shapes the level kernels see: ``n`` not a
    power-of-two multiple of ``leaf_size`` gives ragged leaves (several
    shape groups per level) and ``tol`` gives adaptive, node-dependent ranks
    (up to one group per node).
    """

    format: str
    n: int
    leaf_size: int
    max_rank: int
    tol: Optional[float] = None

    @property
    def id(self) -> str:
        tol = f"-tol{self.tol:g}" if self.tol is not None else ""
        return f"{self.format}-n{self.n}-leaf{self.leaf_size}-r{self.max_rank}{tol}"


#: The solve sweep: ragged leaves (n=1000: 62/63 rows, n=3000: 93/94 rows),
#: tol-adaptive ranks, the leaf format BLR2, and HODLR through its exact HSS
#: form (125-row leaves of rank 120: ranks sum over the ancestors).
SOLVE_CASES = (
    SolveCase("hss", 1000, 64, 30),
    SolveCase("hss", 1000, 64, 48, tol=1e-5),
    SolveCase("hss", 3000, 128, 40),
    SolveCase("hss", 3000, 128, 64, tol=1e-5),
    SolveCase("blr2", 1000, 64, 48, tol=1e-5),
    SolveCase("hodlr", 1000, 128, 40),
)


@lru_cache(maxsize=None)
def solve_case_solver(case: SolveCase) -> StructuredSolver:
    """The (cached, factorized) sequential solver of one sweep case."""
    solver = StructuredSolver.from_kernel(
        "yukawa", n=case.n, format=case.format, leaf_size=case.leaf_size,
        max_rank=case.max_rank, tol=case.tol,
    )
    solver.factorize()
    return solver


def factorize_graph(fmt: str, matrix, backend: str = "deferred", **policy):
    """``get_format(fmt).factorize_dtd`` under ``ExecutionPolicy(backend, **policy)``.

    Returns ``(factor, runtime)``.
    """
    return get_format(fmt).factorize_dtd(
        matrix, policy=ExecutionPolicy(backend=backend, **policy)
    )


def recorded_factorize(hss, **policy):
    """A recorded, not yet executed, HSS-ULV factorize builder under a ``deferred`` policy.

    ``hss`` is an ``HSSMatrix`` or an ``HSSStructure`` (a symbolic graph);
    the recorded graph is ``.runtime``.
    """
    return HSSULVFactorizeBuilder(
        hss, policy=ExecutionPolicy(backend="deferred", **policy)
    ).record()


def graph_census(runtime):
    """Everything the simulator reads of a recorded graph, in a comparable form.

    Returns ``(tasks, edges, handles)``: each task's name, kind, phase, flops
    and owner in insertion order; the edge set as (predecessor name, task
    name); each handle's name, byte size and owner in declaration order.
    """
    graph = runtime.graph
    tasks = [(t.name, t.kind, t.phase, t.flops, t.owner_process()) for t in graph.tasks]
    edges = {
        (graph.task(p).name, t.name) for t in graph.tasks for p in graph.predecessors(t.tid)
    }
    handles = [(h.name, h.nbytes, h.owner) for h in runtime.handles]
    return tasks, edges, handles


def solve_graph(
    fmt: str, factor, b, backend: str = "deferred", *, refine: bool = False,
    matvec=None, **policy,
):
    """``get_format(fmt).solve_dtd`` under ``ExecutionPolicy(backend, **policy)``.

    Returns ``(x, runtime)``; every call records (no plan cache).
    """
    return get_format(fmt).solve_dtd(
        factor, b, policy=ExecutionPolicy(backend=backend, **policy),
        refine=refine, matvec=matvec,
    )


def alg1_reference(blr2):
    """The per-row BLR2-ULV loop of Alg. 1, kept as the reference the engine must match.

    Factors every block row, then assembles the permuted skeleton system
    (Fig. 4) one block row at a time and Cholesky-factors it.  It shares the
    factor storage and per-node kernels with the library but none of its
    tree walk or merge code, so an engine that reorders or drops a coupling
    block no longer matches it bit for bit.
    """
    factor = HSSULVFactor(matrix=blr2)
    level = factor.levels[blr2.max_level]
    schur = {}
    for i in range(blr2.nblocks):
        part = partial_cholesky(level.set_basis(i, blr2.bases[i], blr2.diag[i]), blr2.rank(i))
        schur[i] = level.set_partial(i, part)
    offsets = level.skeleton_offsets
    merged = np.zeros((offsets[-1], offsets[-1]))
    for i in range(blr2.nblocks):
        rows = slice(offsets[i], offsets[i + 1])
        merged[rows, rows] = schur[i]
        for j in range(blr2.nblocks):
            if j != i:
                merged[rows, offsets[j] : offsets[j + 1]] = blr2.coupling(i, j)
    factor.root_chol = np.linalg.cholesky(merged)
    return factor

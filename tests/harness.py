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
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
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
    fusion: Optional[bool] = None,
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
    fusion: Optional[bool] = None,
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
    fusion: Optional[bool] = None,
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

"""Micro-benchmarks of the core primitives (construction, factorization, solve).

These are not paper figures; they time the building blocks so regressions in
the numerical kernels are visible independently of the simulated experiments.
"""

import numpy as np
import pytest

from repro.core.hss_ulv import hss_ulv_factorize
from repro.formats.blr import build_blr
from repro.formats.hss import build_hss
from repro.baselines.lorapo_like import blr_cholesky_factorize
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import Yukawa
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format

N = 2048
LEAF = 256
RANK = 64


@pytest.fixture(scope="module")
def kmat():
    return KernelMatrix(Yukawa(), uniform_grid_2d(N))


@pytest.fixture(scope="module")
def hss(kmat):
    return build_hss(kmat, leaf_size=LEAF, max_rank=RANK)


def test_bench_hss_construction(benchmark, kmat):
    result = benchmark.pedantic(
        lambda: build_hss(kmat, leaf_size=LEAF, max_rank=RANK), rounds=3, iterations=1
    )
    assert result.n == N


def test_bench_hss_ulv_factorization(benchmark, hss):
    factor = benchmark.pedantic(lambda: hss_ulv_factorize(hss), rounds=3, iterations=1)
    assert factor.root_chol.shape[0] > 0


def test_bench_hss_ulv_factorization_dtd(benchmark, hss):
    policy = ExecutionPolicy(backend="deferred", nodes=4)
    factor, rt = benchmark.pedantic(
        lambda: get_format("hss").factorize_dtd(hss, policy=policy), rounds=3, iterations=1
    )
    assert rt.num_tasks > 0


def test_bench_hss_matvec(benchmark, hss):
    x = np.random.default_rng(0).standard_normal(N)
    y = benchmark(hss.matvec, x)
    assert y.shape == (N,)


def test_bench_ulv_solve(benchmark, hss):
    factor = hss_ulv_factorize(hss)
    b = np.random.default_rng(1).standard_normal(N)
    x = benchmark(factor.solve, b)
    assert np.linalg.norm(x) > 0


def test_bench_blr_cholesky(benchmark, kmat):
    blr = build_blr(kmat, leaf_size=512, tol=1e-8)
    factor, _ = benchmark.pedantic(
        lambda: blr_cholesky_factorize(blr.copy(), tol=1e-10), rounds=1, iterations=1
    )
    assert factor.max_rank() > 0


def test_bench_kernel_assembly(benchmark, kmat):
    block = benchmark(kmat.block, slice(0, LEAF), slice(LEAF, N))
    assert block.shape == (LEAF, N - LEAF)

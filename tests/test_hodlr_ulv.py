"""Tests for the HODLR-ULV factorization: the leaf view, the sequential
reference, and bit-identity of the task-graph backends -- the scenario that
proves the pipeline abstraction gives a new format every backend for free."""

import os

import numpy as np
import pytest
from harness import factorize_graph, solve_graph

from repro.core.hodlr_ulv import HODLRLeafSystem, hodlr_ulv_factorize
from repro.formats.hodlr import build_hodlr
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import Yukawa

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)


@pytest.fixture(scope="module")
def hodlr(points_medium):
    kmat = KernelMatrix(Yukawa(), points_medium)
    return build_hodlr(kmat, leaf_size=128, max_rank=40)


@pytest.fixture(scope="module")
def hodlr_factor(hodlr):
    return hodlr_ulv_factorize(hodlr)


def _rhs(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n if k == 1 else (n, k))


class TestLeafSystem:
    """The leaf view must reproduce the HODLR operator exactly (no approximation)."""

    def test_off_diagonal_blocks_exact(self, hodlr):
        system = HODLRLeafSystem(hodlr)
        dense = hodlr.to_dense()
        for i in range(system.nblocks):
            for j in range(system.nblocks):
                ri, rj = system.block_range(i), system.block_range(j)
                if i == j:
                    np.testing.assert_array_equal(dense[ri, ri], system.diag[i])
                else:
                    approx = system.bases[i] @ system.coupling(i, j) @ system.bases[j].T
                    np.testing.assert_allclose(dense[ri, rj], approx, atol=1e-12)

    def test_bases_orthonormal(self, hodlr):
        system = HODLRLeafSystem(hodlr)
        for i in range(system.nblocks):
            q = system.bases[i]
            np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)

    def test_construction_deterministic(self, hodlr):
        a, b = HODLRLeafSystem(hodlr), HODLRLeafSystem(hodlr)
        for i in range(a.nblocks):
            np.testing.assert_array_equal(a.bases[i], b.bases[i])
            for j in range(a.nblocks):
                if i != j:
                    np.testing.assert_array_equal(a.coupling(i, j), b.coupling(i, j))

    def test_matvec_delegates(self, hodlr, rng):
        system = HODLRLeafSystem(hodlr)
        x = rng.standard_normal(system.n)
        np.testing.assert_array_equal(system.matvec(x), hodlr.matvec(x))


class TestSequentialReference:
    def test_solve_at_machine_precision_vs_hodlr(self, hodlr, hodlr_factor):
        b = _rhs(hodlr.n, 4)
        x = hodlr_factor.solve(b)
        resid = np.linalg.norm(hodlr.matvec(x) - b) / np.linalg.norm(b)
        assert resid < 1e-10  # exact leaf view: direct-solver accuracy

    def test_vector_rhs_shape(self, hodlr_factor):
        b = _rhs(hodlr_factor.system.n, 1)
        assert hodlr_factor.solve(b).shape == b.shape

    def test_logdet_matches_dense(self, hodlr, hodlr_factor):
        sign, ld = np.linalg.slogdet(hodlr.to_dense())
        assert sign > 0
        assert hodlr_factor.logdet() == pytest.approx(ld, rel=1e-10)


class TestBitIdentityAcrossBackends:
    """HODLR, k in {1, 4}, every backend bit-identical to the sequential reference."""

    @pytest.mark.parametrize("k", (1, 4))
    @pytest.mark.parametrize("execution", ("deferred", "parallel"))
    def test_factorize_and_solve(self, hodlr, hodlr_factor, execution, k):
        factor, rt = factorize_graph("hodlr", hodlr, execution, n_workers=4)
        assert rt.num_tasks > 0
        b = _rhs(hodlr.n, k)
        np.testing.assert_array_equal(factor.solve(b), hodlr_factor.solve(b))
        x, _ = solve_graph("hodlr", hodlr_factor, b, execution, n_workers=4)
        np.testing.assert_array_equal(x, hodlr_factor.solve(b))

    @needs_fork
    @pytest.mark.parametrize("k", (1, 4))
    @pytest.mark.parametrize("nodes", (2, 4))
    def test_distributed(self, hodlr, hodlr_factor, nodes, k):
        factor, rt = factorize_graph("hodlr", hodlr, "distributed", nodes=nodes)
        assert rt.last_distributed_report is not None
        b = _rhs(hodlr.n, k)
        np.testing.assert_array_equal(factor.solve(b), hodlr_factor.solve(b))
        x, _ = solve_graph("hodlr", hodlr_factor, b, "distributed", nodes=nodes)
        np.testing.assert_array_equal(x, hodlr_factor.solve(b))

    def test_panels_and_refine(self, hodlr, hodlr_factor):
        b = _rhs(hodlr.n, 8)
        ref = hodlr_factor.solve(b)
        x, _ = solve_graph("hodlr", hodlr_factor, b, "parallel", panel_size=3)
        np.testing.assert_allclose(x, ref, atol=1e-10)
        xr, _ = solve_graph("hodlr", hodlr_factor, b, "deferred", refine=True)
        resid = np.linalg.norm(hodlr.matvec(xr) - b) / np.linalg.norm(b)
        assert resid < 1e-10

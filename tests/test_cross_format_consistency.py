"""Cross-format consistency: HSS / BLR2 / HODLR / BLR against the dense matrix.

One kernel matrix (the shared N=256 Yukawa fixture), four compressed formats,
several leaf sizes and compressors: matvec must agree with the dense operator
to compression accuracy, and the two direct solvers (HSS-ULV, BLR2-ULV) must
agree with the dense solve and with each other -- including multi-RHS blocks
and the task-graph solve path on every execution backend.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from harness import solve_graph

from repro.api import StructuredSolver
from repro.core.blr2_ulv import blr2_ulv_factorize
from repro.core.hss_ulv import hss_ulv_factorize
from repro.formats.blr import build_blr
from repro.formats.blr2 import build_blr2
from repro.formats.hodlr import build_hodlr
from repro.formats.hss import build_hss
from repro.pipeline.policy import BACKENDS
from repro.pipeline.registry import available_formats

LEAF_SIZES = (32, 64)
MAX_RANK = 40
MATVEC_TOL = 1e-5
SOLVE_TOL = 1e-6


def _matvec_error(fmt, dense, rng) -> float:
    x = rng.standard_normal(dense.shape[0])
    y_ref = dense @ x
    return float(np.linalg.norm(fmt.matvec(x) - y_ref) / np.linalg.norm(y_ref))


@pytest.fixture(scope="module")
def rhs(dense_small):
    return np.random.default_rng(99).standard_normal(dense_small.shape[0])


class TestMatvecAgainstDense:
    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_hss(self, kmat_small, dense_small, rng, leaf_size):
        hss = build_hss(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK)
        assert _matvec_error(hss, dense_small, rng) < MATVEC_TOL

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_blr2(self, kmat_small, dense_small, rng, leaf_size):
        blr2 = build_blr2(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK)
        assert _matvec_error(blr2, dense_small, rng) < MATVEC_TOL

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_hodlr(self, kmat_small, dense_small, rng, leaf_size):
        hodlr = build_hodlr(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK)
        assert _matvec_error(hodlr, dense_small, rng) < MATVEC_TOL

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_blr(self, kmat_small, dense_small, rng, leaf_size):
        blr = build_blr(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK, tol=1e-10)
        assert _matvec_error(blr, dense_small, rng) < MATVEC_TOL

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_all_formats_agree_pairwise(self, kmat_small, rng, leaf_size):
        """All four compressed operators apply the same matrix."""
        formats = [
            build_hss(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK),
            build_blr2(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK),
            build_hodlr(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK),
            build_blr(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK, tol=1e-10),
        ]
        x = rng.standard_normal(kmat_small.n)
        ys = [f.matvec(x) for f in formats]
        scale = np.linalg.norm(ys[0])
        for y in ys[1:]:
            assert np.linalg.norm(y - ys[0]) / scale < 2 * MATVEC_TOL


class TestCompressors:
    """One format per compressor: each low-rank engine reproduces the matrix."""

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    @pytest.mark.parametrize("compressor", ["svd", "rsvd", "aca", "interpolative"])
    def test_compressor_matvec(self, kmat_small, dense_small, rng, leaf_size, compressor):
        if compressor == "interpolative":
            fmt = build_hss(
                kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK, method="interpolative"
            )
        else:
            fmt = build_hodlr(
                kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK, method=compressor
            )
        assert _matvec_error(fmt, dense_small, rng) < MATVEC_TOL

    @pytest.mark.parametrize("basis_method", ["svd", "rsvd"])
    def test_blr2_basis_methods(self, kmat_small, dense_small, rng, basis_method):
        blr2 = build_blr2(kmat_small, leaf_size=32, max_rank=MAX_RANK, basis_method=basis_method)
        assert _matvec_error(blr2, dense_small, rng) < MATVEC_TOL

    @pytest.mark.parametrize("method", ["interpolative", "dense_rows"])
    def test_hss_constructions(self, kmat_small, dense_small, rng, method):
        hss = build_hss(kmat_small, leaf_size=32, max_rank=MAX_RANK, method=method)
        assert _matvec_error(hss, dense_small, rng) < MATVEC_TOL


class TestSolveAgainstDense:
    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_hss_ulv_solve(self, kmat_small, dense_small, rhs, leaf_size):
        hss = build_hss(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK)
        x = hss_ulv_factorize(hss).solve(rhs)
        x_ref = np.linalg.solve(dense_small, rhs)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < SOLVE_TOL

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_blr2_ulv_solve(self, kmat_small, dense_small, rhs, leaf_size):
        blr2 = build_blr2(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK)
        x = blr2_ulv_factorize(blr2).solve(rhs)
        x_ref = np.linalg.solve(dense_small, rhs)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < SOLVE_TOL

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_hss_and_blr2_solvers_agree(self, kmat_small, rhs, leaf_size):
        hss = build_hss(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK)
        blr2 = build_blr2(kmat_small, leaf_size=leaf_size, max_rank=MAX_RANK)
        x_hss = hss_ulv_factorize(hss).solve(rhs)
        x_blr2 = blr2_ulv_factorize(blr2).solve(rhs)
        assert np.linalg.norm(x_hss - x_blr2) / np.linalg.norm(x_hss) < 2 * SOLVE_TOL

    def test_solve_consistency_roundtrip(self, kmat_small, rng):
        """solve(matvec(x)) == x within each factorized format."""
        for build, factorize in (
            (build_hss, hss_ulv_factorize),
            (build_blr2, blr2_ulv_factorize),
        ):
            fmt = build(kmat_small, leaf_size=32, max_rank=MAX_RANK)
            factor = factorize(fmt)
            x = rng.standard_normal(kmat_small.n)
            roundtrip = factor.solve(fmt.matvec(x))
            assert np.linalg.norm(roundtrip - x) / np.linalg.norm(x) < 1e-9


# Multi-RHS solves through the task-graph backends, all against the dense solve.
_SOLVE_BACKENDS = [("deferred", 1), ("parallel", 1)]
if hasattr(os, "fork"):
    _SOLVE_BACKENDS.append(("distributed", 2))


class TestMultiRHSSolveAcrossBackends:
    """factor.solve(B) and the task-graph solves vs np.linalg.solve, k > 1."""

    @pytest.fixture(scope="class")
    def factors(self, kmat_small):
        hss = build_hss(kmat_small, leaf_size=32, max_rank=MAX_RANK)
        blr2 = build_blr2(kmat_small, leaf_size=32, max_rank=MAX_RANK)
        return hss_ulv_factorize(hss), blr2_ulv_factorize(blr2)

    @pytest.fixture(scope="class")
    def block_rhs(self, dense_small):
        return np.random.default_rng(123).standard_normal((dense_small.shape[0], 8))

    def test_sequential_multi_rhs_matches_dense(self, factors, dense_small, block_rhs):
        x_ref = np.linalg.solve(dense_small, block_rhs)
        for factor in factors:
            x = factor.solve(block_rhs)
            assert x.shape == block_rhs.shape
            assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < SOLVE_TOL

    @pytest.mark.parametrize("execution,nodes", _SOLVE_BACKENDS)
    @pytest.mark.parametrize("nrhs", [1, 4, 16])
    def test_hss_taskgraph_multi_rhs(self, factors, dense_small, execution, nodes, nrhs):
        hss_factor, _ = factors
        b = np.random.default_rng(nrhs).standard_normal((dense_small.shape[0], nrhs))
        x, _ = solve_graph("hss", hss_factor, b, execution, nodes=nodes)
        x_ref = np.linalg.solve(dense_small, b)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < SOLVE_TOL
        assert np.array_equal(x, hss_factor.solve(b))

    @pytest.mark.parametrize("execution,nodes", _SOLVE_BACKENDS)
    @pytest.mark.parametrize("nrhs", [1, 4, 16])
    def test_blr2_taskgraph_multi_rhs(self, factors, dense_small, execution, nodes, nrhs):
        _, blr2_factor = factors
        b = np.random.default_rng(nrhs).standard_normal((dense_small.shape[0], nrhs))
        x, _ = solve_graph("blr2", blr2_factor, b, execution, nodes=nodes)
        x_ref = np.linalg.solve(dense_small, b)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < SOLVE_TOL
        assert np.array_equal(x, blr2_factor.solve(b))

    @pytest.mark.parametrize("nrhs", [4, 16])
    def test_hss_and_blr2_agree_multi_rhs(self, factors, dense_small, nrhs):
        hss_factor, blr2_factor = factors
        b = np.random.default_rng(7).standard_normal((dense_small.shape[0], nrhs))
        x_hss = hss_factor.solve(b)
        x_blr2 = blr2_factor.solve(b)
        assert np.linalg.norm(x_hss - x_blr2) / np.linalg.norm(x_hss) < 2 * SOLVE_TOL


class TestSingleLeafRefused:
    """n <= leaf_size has no partitioning: every format refuses it at build time."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fmt", available_formats())
    def test_typed_error_on_every_compress_backend(self, fmt, backend):
        with pytest.raises(ValueError, match="at least one level of partitioning"):
            StructuredSolver.from_kernel(
                "yukawa", 100, format=fmt, leaf_size=128, max_rank=16,
                compress_runtime=backend, compress_nodes=2, compress_workers=2,
            )

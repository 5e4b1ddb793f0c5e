"""Tests for the LORAPO-like BLR tile Cholesky baseline."""

import numpy as np
import pytest

from repro.baselines.lorapo_like import blr_cholesky_factorize, build_blr_cholesky_taskgraph
from repro.formats.blr import build_blr


@pytest.fixture(scope="module")
def blr_factor(kmat_small):
    blr = build_blr(kmat_small, leaf_size=64, tol=1e-10)
    factor, rt = blr_cholesky_factorize(blr, tol=1e-12, nodes=4)
    return blr, factor, rt


class TestNumerics:
    def test_solve_recovers_rhs(self, blr_factor, rng):
        blr, factor, _ = blr_factor
        b = rng.standard_normal(blr.n)
        x = factor.solve(blr.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-8

    def test_solve_approximates_dense_system(self, blr_factor, dense_small, rng):
        _, factor, _ = blr_factor
        b = rng.standard_normal(dense_small.shape[0])
        x = factor.solve(b)
        assert np.linalg.norm(dense_small @ x - b) / np.linalg.norm(b) < 1e-6

    def test_logdet_close_to_dense(self, blr_factor, dense_small):
        _, factor, _ = blr_factor
        _, expected = np.linalg.slogdet(dense_small)
        assert factor.logdet() == pytest.approx(expected, rel=1e-6)

    def test_factor_structure(self, blr_factor):
        blr, factor, _ = blr_factor
        nb = blr.nblocks
        assert len(factor.diag) == nb
        assert len(factor.lower) == nb * (nb - 1) // 2
        for d in factor.diag.values():
            np.testing.assert_allclose(d, np.tril(d))

    def test_max_rank_reported(self, blr_factor):
        _, factor, _ = blr_factor
        assert factor.max_rank() > 0

    def test_rank_cap_enforced(self, kmat_small, rng):
        blr = build_blr(kmat_small, leaf_size=64, tol=1e-10)
        factor, _ = blr_cholesky_factorize(blr, tol=None, max_rank=10)
        assert factor.max_rank() <= 10
        # With a hard rank cap the solve is approximate but still reasonable.
        b = rng.standard_normal(blr.n)
        x = factor.solve(blr.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-1

    def test_matches_dense_cholesky_solution(self, blr_factor, rng):
        blr, factor, _ = blr_factor
        dense = blr.to_dense()
        b = rng.standard_normal(blr.n)
        np.testing.assert_allclose(factor.solve(b), np.linalg.solve(dense, b), rtol=1e-5, atol=1e-7)


class TestTaskGraph:
    def test_recorded_graph_valid(self, blr_factor):
        _, _, rt = blr_factor
        rt.validate()
        kinds = {t.kind for t in rt.graph.tasks}
        assert {"POTRF", "TRSM", "SYRK", "GEMM"} <= kinds

    def test_task_count_formula(self):
        """nb POTRF + nb(nb-1)/2 TRSM + nb(nb-1)/2 SYRK + nb(nb-1)(nb-2)/6 GEMM."""
        nb = 8
        rt = build_blr_cholesky_taskgraph(nb * 128, 128, 32, nodes=4)
        kinds = [t.kind for t in rt.graph.tasks]
        assert kinds.count("POTRF") == nb
        assert kinds.count("TRSM") == nb * (nb - 1) // 2
        assert kinds.count("SYRK") == nb * (nb - 1) // 2
        assert kinds.count("GEMM") == nb * (nb - 1) * (nb - 2) // 6

    def test_symbolic_flops_superlinear(self):
        f = [
            build_blr_cholesky_taskgraph(n, 512, 64, nodes=4).graph.total_flops()
            for n in (4096, 8192, 16384)
        ]
        assert f[1] / f[0] > 2.5
        assert f[2] / f[1] > 2.5

    def test_more_flops_than_hss(self):
        """The BLR tile Cholesky does asymptotically more work than HSS-ULV (Table 1)."""
        from repro.pipeline.factorize import build_hss_ulv_taskgraph
        from repro.formats.hss import HSSStructure

        n = 32768
        blr = build_blr_cholesky_taskgraph(n, 2048, 256, nodes=4).graph.total_flops()
        hss = build_hss_ulv_taskgraph(HSSStructure.synthetic(n, 512, 100), nodes=4).graph.total_flops()
        assert blr > 3 * hss

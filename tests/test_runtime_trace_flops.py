"""Tests for the flop-count models and the simulation trace containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.flops import (
    flops_diag_product,
    flops_gemm,
    flops_partial_factor,
    flops_potrf,
    flops_qr,
    flops_svd,
    flops_syrk,
    flops_trsm,
)
from repro.runtime.trace import SimulationResult, WorkerBreakdown


class TestFlopModels:
    def test_potrf_cubic(self):
        assert flops_potrf(100) / flops_potrf(50) == pytest.approx(8.0, rel=0.1)

    def test_gemm_formula(self):
        assert flops_gemm(10, 20, 30) == 2 * 10 * 20 * 30

    def test_trsm_formula(self):
        assert flops_trsm(16, 4) == 16 * 16 * 4

    def test_syrk_formula(self):
        assert flops_syrk(8, 3) == 8 * 8 * 3

    def test_qr_positive_and_monotone(self):
        assert 0 < flops_qr(64, 16) < flops_qr(128, 16)

    def test_svd_positive(self):
        assert flops_svd(50, 20) > 0
        assert flops_svd(20, 50) == flops_svd(50, 20)

    def test_diag_product_counts_the_compact_wy_kernel(self):
        """QR of the m x r basis and the O(m^2 r) two-sided update (its syr2k
        counted as the one m x m x r GEMM it replaces)."""
        m, r = 256, 60
        update = (
            flops_gemm(m, r, m) + flops_gemm(m, m, r) + 2 * flops_gemm(m, r, r)
            + flops_gemm(r, r, m) + flops_gemm(r, r, r)
        )
        expected = flops_qr(m, r) + m * r * r + update
        assert flops_diag_product(m, r) == pytest.approx(expected)
        # well under the two square GEMMs of an explicit U^T A U at leaf ranks
        assert flops_diag_product(m, r) < 0.5 * 2 * flops_gemm(m, m, m)

    def test_diag_product_rank_zero_is_free(self):
        assert flops_diag_product(64, 0) == 0

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 256), r=st.integers(0, 255))
    def test_diag_product_grows_with_rank(self, m, r):
        r = min(r, m - 1)
        assert 0 <= flops_diag_product(m, r) < flops_diag_product(m, r + 1)

    def test_partial_factor_degenerate_cases(self):
        # rank == n: nothing to eliminate; only the skeleton block's R^T B R.
        assert flops_partial_factor(16, 16) == pytest.approx(2 * flops_gemm(16, 16, 16))
        # rank == 0: a full Cholesky.
        assert flops_partial_factor(16, 0) == pytest.approx(flops_potrf(16))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 256), r=st.integers(0, 256))
    def test_partial_factor_nonnegative(self, n, r):
        assert flops_partial_factor(n, min(r, n)) >= 0

    def test_partial_factor_less_than_full_cholesky_plus_updates(self):
        """Eliminating only part of a block never costs more than the pieces imply."""
        n, r = 128, 32
        rotate = flops_gemm(n - r, r, r) + 2 * flops_gemm(r, r, r)
        total = flops_potrf(n - r) + rotate + flops_trsm(n - r, r) + flops_syrk(r, n - r)
        assert flops_partial_factor(n, r) == pytest.approx(total)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 256), r=st.integers(0, 256))
    def test_node_total_counts_the_rotation_once(self, m, r):
        """The R rotation moved from the diagonal product to the partial
        factor: a node's two tasks together count what they did before."""
        r = min(r, m)
        before = (
            flops_qr(m, r) + m * r * r + 2 * flops_gemm(m, m, r) + 3 * flops_gemm(m, r, r)
            + flops_gemm(r, m - r, r) + 3 * flops_gemm(r, r, r)
            + flops_potrf(m - r) + flops_trsm(m - r, r) + flops_syrk(r, m - r)
        )
        assert flops_diag_product(m, r) + flops_partial_factor(m, r) == pytest.approx(before)


class TestSimulationResult:
    def _result(self, **kw):
        defaults = dict(
            makespan=2.0,
            policy="async",
            nodes=4,
            workers=8,
            num_tasks=10,
            total_compute=4.0,
            total_communication=1.0,
            total_runtime_overhead=2.0,
            total_mpi=3.0,
        )
        defaults.update(kw)
        return SimulationResult(**defaults)

    def test_per_worker_averages(self):
        res = self._result()
        assert res.compute_task_time == pytest.approx(0.5)
        assert res.compute_time == res.compute_task_time
        assert res.runtime_overhead == pytest.approx((2.0 + 1.0) / 8)
        assert res.mpi_time == pytest.approx(3.0 / 8)

    def test_breakdown_keys(self):
        b = self._result().breakdown()
        assert set(b) == {"makespan", "compute_task_time", "runtime_overhead", "mpi_time"}

    def test_zero_workers_guard(self):
        res = self._result(workers=0)
        assert np.isfinite(res.compute_task_time)

    def test_worker_breakdown_defaults(self):
        wb = WorkerBreakdown()
        assert wb.compute == wb.overhead == wb.communication == wb.idle == 0.0

    def test_repr(self):
        assert "async" in repr(self._result())


class TestFactorizeFlopAccounting:
    """The symbolic graph, the recorded graph and ``factor_flops`` share one model."""

    @pytest.fixture(scope="class")
    def recorded(self, kmat_small):
        from repro.formats.hss import build_hss
        from repro.pipeline.factorize import HSSULVFactorizeBuilder
        from repro.pipeline.policy import ExecutionPolicy

        hss = build_hss(kmat_small, leaf_size=32, max_rank=12)
        builder = HSSULVFactorizeBuilder(hss, policy=ExecutionPolicy(backend="deferred"))
        return hss, builder.record()

    def test_symbolic_graph_flops_equal_the_recorded_graph(self, recorded):
        from repro.formats.hss import HSSStructure
        from harness import recorded_factorize

        hss, builder = recorded
        symbolic = recorded_factorize(HSSStructure.from_matrix(hss)).runtime.graph
        real = {t.name: t.flops for t in builder.runtime.graph.tasks}
        assert {t.name: t.flops for t in symbolic.tasks} == real
        assert any(name.startswith("DIAG_PRODUCT") and f > 0 for name, f in real.items())

    def test_factor_flops_equal_the_recorded_tasks(self, recorded):
        _, builder = recorded
        builder.execute()
        tasks = builder.runtime.graph.tasks
        assert builder.result().factor_flops() == pytest.approx(
            sum(t.flops for t in tasks), rel=1e-12
        )

"""Tests for the task-based BLR2-ULV factorization (DTD runtime)."""

import numpy as np
import pytest
from harness import factorize_graph

from repro.core.blr2_ulv import BLR2ULVFactor, blr2_ulv_factorize
from repro.formats.blr2 import build_blr2
from repro.pipeline.factorize import LeafULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy


@pytest.fixture(scope="module")
def blr2(kmat_small):
    return build_blr2(kmat_small, leaf_size=32, max_rank=20)


class TestNumericalEquivalence:
    def test_immediate_matches_sequential_reference(self, blr2, rng):
        seq = blr2_ulv_factorize(blr2)
        dtd, _ = factorize_graph("blr2", blr2, nodes=4)
        b = rng.standard_normal(blr2.n)
        np.testing.assert_allclose(dtd.solve(b), seq.solve(b), atol=1e-10)

    def test_deferred_matches_sequential_reference(self, blr2, rng):
        seq = blr2_ulv_factorize(blr2)
        dtd, _ = factorize_graph("blr2", blr2, "deferred")
        b = rng.standard_normal(blr2.n)
        np.testing.assert_allclose(dtd.solve(b), seq.solve(b), atol=1e-10)

    def test_parallel_matches_sequential_reference(self, blr2, rng):
        """Acceptance: out-of-order thread-pool execution, n_workers >= 4."""
        seq = blr2_ulv_factorize(blr2)
        dtd, rt = factorize_graph("blr2", blr2, "parallel", n_workers=4)
        b = rng.standard_normal(blr2.n)
        assert np.max(np.abs(dtd.solve(b) - seq.solve(b))) <= 1e-10

    def test_parallel_solve_recovers_rhs(self, blr2, rng):
        factor, _ = factorize_graph("blr2", blr2, "parallel", n_workers=4)
        b = rng.standard_normal(blr2.n)
        x = factor.solve(blr2.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-10

    def test_logdet_matches(self, blr2):
        seq = blr2_ulv_factorize(blr2)
        dtd, _ = factorize_graph("blr2", blr2, "parallel", n_workers=4)
        assert dtd.logdet() == pytest.approx(seq.logdet(), rel=1e-12)

    def test_recorded_deferred_then_run(self, blr2, rng):
        builder = LeafULVFactorizeBuilder(
            blr2, BLR2ULVFactor(blr2=blr2), policy=ExecutionPolicy(backend="deferred")
        ).record()
        factor, rt = builder.result(), builder.runtime
        assert factor.merged_chol.size == 0  # nothing ran yet
        report = rt.run_parallel(n_workers=4)
        assert report.ok
        seq = blr2_ulv_factorize(blr2)
        b = rng.standard_normal(blr2.n)
        np.testing.assert_allclose(factor.solve(b), seq.solve(b), atol=1e-10)


class TestTaskGraph:
    def test_graph_is_acyclic_and_ordered(self, blr2):
        _, rt = factorize_graph("blr2", blr2, nodes=4)
        rt.validate()
        assert rt.graph.is_acyclic()

    def test_task_count(self, blr2):
        """DIAG_PRODUCT + PARTIAL_FACTOR + MERGE per block row, plus the root POTRF."""
        _, rt = factorize_graph("blr2", blr2)
        assert rt.num_tasks == 3 * blr2.nblocks + 1

    def test_kinds_present(self, blr2):
        _, rt = factorize_graph("blr2", blr2)
        kinds = {t.kind for t in rt.graph.tasks}
        assert kinds == {"DIAG_PRODUCT", "PARTIAL_FACTOR", "MERGE", "POTRF"}

    def test_root_depends_on_every_merge(self, blr2):
        _, rt = factorize_graph("blr2", blr2)
        graph = rt.graph
        root = [t for t in graph.tasks if t.kind == "POTRF"][0]
        pred_kinds = [graph.task(p).kind for p in graph.predecessors(root.tid)]
        assert pred_kinds.count("MERGE") == blr2.nblocks

    def test_block_rows_are_independent(self, blr2):
        """DIAG_PRODUCT tasks of different rows share no dependency path."""
        _, rt = factorize_graph("blr2", blr2)
        graph = rt.graph
        diag_tasks = [t for t in graph.tasks if t.kind == "DIAG_PRODUCT"]
        for t in diag_tasks:
            assert graph.predecessors(t.tid) == []

    def test_flops_recorded(self, blr2):
        _, rt = factorize_graph("blr2", blr2)
        assert rt.graph.total_flops() > 0
        by_kind = rt.graph.flops_by_kind()
        assert by_kind["DIAG_PRODUCT"] > 0
        assert by_kind["PARTIAL_FACTOR"] > 0
        assert by_kind["POTRF"] > 0

    def test_handles_distributed(self, blr2):
        _, rt = factorize_graph("blr2", blr2, nodes=4)
        owners = {h.owner for h in rt.handles}
        assert owners <= {0, 1, 2, 3}
        assert len(owners) > 1

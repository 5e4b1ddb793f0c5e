"""Randomized cross-backend tests for the task-graph compression subsystem.

Driven by the shared seeded harness (:mod:`tests.harness`): one randomized
(kernel, seed) case per registered format, swept over every execution
backend, over 1/2/4 distributed worker processes, and over both distributed
data planes (zero-copy "shm" and legacy "pickle").  Acceptance criteria of
the subsystem:

* graph-built compression is **bit-identical** to the sequential
  ``build_hss`` / ``build_blr2`` / ``build_hodlr`` references on the
  deferred, parallel, process and distributed backends;
* the distributed communication ledger matches the ``plan_transfers``
  analytic counts exactly;
* the end-to-end compress -> factorize -> solve pipeline on any backend
  reproduces the fully sequential pipeline bit for bit and stays at
  direct-solver accuracy against the dense reference operator.
"""

from __future__ import annotations

import gc
import os
import weakref

import numpy as np
import pytest

from harness import (
    HARNESS_SEED,
    KERNELS,
    CompressCase,
    assert_case_bit_identical,
    assert_comm_matches_plan,
    graph_build,
    run_pipeline,
    sample_cases,
    sequential_pipeline,
)

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)

#: The seeded sweep: one randomized (kernel, seed) case per format.
CASES = sample_cases()
CASE_IDS = [case.id for case in CASES]

SHARED_BACKENDS = ("deferred", "parallel")
NODE_COUNTS = (1, 2, 4)


class TestHarnessSeeding:
    def test_sweep_is_deterministic(self):
        """Same seed, same sweep -- the harness is randomized but reproducible."""
        assert sample_cases() == CASES
        assert sample_cases(rng_seed=HARNESS_SEED + 1) != CASES

    def test_sweep_covers_every_graph_format(self):
        assert {c.format for c in CASES} == {"hss", "blr2", "hodlr"}
        assert all(c.kernel in KERNELS for c in CASES)


class TestBitIdentitySharedMemory:
    """deferred / parallel backends against the sequential build."""

    @pytest.mark.parametrize("backend", SHARED_BACKENDS)
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_graph_build_matches_sequential(self, case, backend):
        matrix, rt = graph_build(case, backend)
        assert rt.num_tasks > 0
        rt.validate()
        assert_case_bit_identical(case, matrix)


@needs_fork
class TestBitIdentityDistributed:
    @pytest.mark.parametrize("data_plane", ("shm", "pickle"))
    @pytest.mark.parametrize("nodes", NODE_COUNTS)
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_graph_build_matches_sequential(self, case, nodes, data_plane):
        matrix, rt = graph_build(
            case, "distributed", nodes=nodes, data_plane=data_plane
        )
        report = rt.last_distributed_report
        assert report.ok and report.data_plane == data_plane
        assert_case_bit_identical(case, matrix)
        # acceptance: measured comm volume == plan_transfers analytic counts,
        # invariant across data planes (zero-copy changes only the wire form)
        assert_comm_matches_plan(rt, nodes)
        if nodes == 1:
            assert report.ledger.num_messages == 0
        elif data_plane == "shm":
            # zero-copy run must leave no orphaned segments behind
            assert report.segments_swept == 0


class TestEndToEndPipeline:
    """compress -> factorize -> solve entirely on one backend."""

    # The dense-residual bound reflects the sweep's deliberately small rank
    # cap (compression error dominates); exactness is asserted through the
    # bit-identity with the fully sequential pipeline.
    RESIDUAL_BOUND = 1e-3

    @pytest.mark.parametrize("backend", ("deferred", "parallel"))
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_matches_sequential_pipeline_and_dense(self, case, backend):
        x, residual = run_pipeline(case, backend)
        assert np.array_equal(x, sequential_pipeline(case))
        assert residual < self.RESIDUAL_BOUND

    @needs_fork
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_distributed_pipeline(self, case):
        x, residual = run_pipeline(case, "distributed", nodes=2)
        assert np.array_equal(x, sequential_pipeline(case))
        assert residual < self.RESIDUAL_BOUND


@needs_fork
class TestBitIdentityProcess:
    """Forked process backend (one rank per worker) against the sequential build."""

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_graph_build_matches_sequential(self, case):
        matrix, rt = graph_build(case, "process")
        assert rt.last_distributed_report is not None and rt.last_distributed_report.ok
        assert_case_bit_identical(case, matrix)

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_process_pipeline(self, case):
        x, residual = run_pipeline(case, "process")
        assert np.array_equal(x, sequential_pipeline(case))
        assert residual < TestEndToEndPipeline.RESIDUAL_BOUND


class TestFusion:
    """fusion=on/off sweeps: bit-identity, comm-plan equality, census drop."""

    @pytest.mark.parametrize("backend", ("deferred", "parallel"))
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_fused_build_bit_identical_and_smaller(self, case, backend):
        plain, rt_plain = graph_build(case, backend, fusion=False)
        fused, rt_fused = graph_build(case, backend, fusion=True)
        assert_case_bit_identical(case, plain)
        assert_case_bit_identical(case, fused)
        stats = rt_fused.last_fusion_stats
        assert stats is not None
        assert stats.tasks_before == rt_plain.num_tasks
        # fusion must actually coarsen every construction graph
        assert rt_fused.num_tasks == stats.tasks_after < stats.tasks_before
        rt_fused.validate()

    @needs_fork
    @pytest.mark.parametrize("nodes", NODE_COUNTS)
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_fused_distributed_comm_matches_plan(self, case, nodes):
        matrix, rt = graph_build(case, "distributed", nodes=nodes, fusion=True)
        assert rt.last_distributed_report.ok
        assert_case_bit_identical(case, matrix)
        # the merged access lists must keep plan_transfers exact
        assert_comm_matches_plan(rt, nodes)

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_fused_pipeline_matches_sequential(self, case):
        x, residual = run_pipeline(case, "parallel", fusion=True)
        assert np.array_equal(x, sequential_pipeline(case))
        assert residual < TestEndToEndPipeline.RESIDUAL_BOUND

    def test_invalid_fusion_policies_rejected(self):
        from repro.pipeline.policy import ExecutionPolicy

        with pytest.raises(ValueError, match="fusion"):
            ExecutionPolicy(backend="off", fusion=True)


class TestGraphShape:
    """Task censuses: the construction graphs have exactly the expected ops."""

    def _census(self, rt):
        kinds = {}
        for t in rt.graph.tasks:
            kinds[t.kind] = kinds.get(t.kind, 0) + 1
        return kinds

    def test_hss_census(self):
        case = next(c for c in CASES if c.format == "hss")
        _, rt = graph_build(case, "deferred")
        levels = int(np.log2(case.n // case.leaf_size))
        nb = 2**levels
        assert self._census(rt) == {
            "ASSEMBLE_DIAG": nb,
            "COMPRESS_BASIS": nb,
            "TRANSLATE": nb - 2,      # internal non-root nodes
            "COUPLING": nb - 1,       # one sibling pair per internal+leaf split
        }
        assert rt.graph.total_flops() > 0

    def test_blr2_census(self):
        case = next(c for c in CASES if c.format == "blr2")
        _, rt = graph_build(case, "deferred")
        nb = case.n // case.leaf_size
        assert self._census(rt) == {
            "ASSEMBLE_DIAG": nb,
            "COMPRESS_BASIS": nb,
            "COUPLING": nb * (nb - 1) // 2,
        }

    def test_hodlr_census(self):
        case = next(c for c in CASES if c.format == "hodlr")
        _, rt = graph_build(case, "deferred")
        nb = case.n // case.leaf_size
        assert self._census(rt) == {
            "ASSEMBLE_DIAG": nb,
            "COMPRESS_LOWRANK": nb - 1,  # one off-diagonal pair per internal node
        }

    def test_coupling_depends_on_both_bases(self):
        """Dependency wiring: every COUPLING task has incoming basis edges."""
        case = next(c for c in CASES if c.format == "blr2")
        _, rt = graph_build(case, "deferred")
        preds = {}
        for src, dst in rt.graph.edges:
            preds.setdefault(dst, set()).add(src)
        kind_of = {t.tid: t.kind for t in rt.graph.tasks}
        couplings = [t.tid for t in rt.graph.tasks if t.kind == "COUPLING"]
        assert couplings
        for tid in couplings:
            sources = {kind_of[p] for p in preds.get(tid, ())}
            assert sources == {"COMPRESS_BASIS"}


class TestNoReferenceCycles:
    """A dropped graph-built solver is freed by refcounting alone.

    Task bodies close over locals, never over their builder, so nothing of a
    finished construction waits for the cyclic GC (whose timing would swing
    peak memory).
    """

    @pytest.mark.parametrize("fmt", ["hodlr", "hss", "blr2"])
    def test_builder_and_runtime_die_without_gc(self, fmt, monkeypatch):
        from repro.api import StructuredSolver
        from repro.pipeline.builder import GraphBuilder

        builders = []
        execute = GraphBuilder.execute

        def spy(self, **kwargs):
            builders.append(weakref.ref(self))
            return execute(self, **kwargs)

        monkeypatch.setattr(GraphBuilder, "execute", spy)
        gc.collect()
        gc.disable()
        try:
            solver = StructuredSolver.from_kernel(
                "yukawa", n=256, format=fmt, leaf_size=32, max_rank=20,
                compress_runtime="parallel", compress_workers=2,
            )
            runtime = weakref.ref(solver.compress_runtime)
            # the solver keeps the runtime, never the builder
            assert len(builders) == 1 and builders[0]() is None
            del solver
            assert runtime() is None
        finally:
            gc.enable()


class TestFacadeIntegration:
    """compress_runtime= through StructuredSolver reaches the same graphs."""

    def test_from_kernel_compress_runtime_bit_identical(self):
        from repro.api import StructuredSolver
        from repro.compress.verify import assert_compressed_identical

        base = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=32, max_rank=16)
        graph = StructuredSolver.from_kernel(
            "yukawa", n=256, leaf_size=32, max_rank=16,
            compress_runtime="parallel", compress_workers=2,
        )
        assert base.compress_runtime is None
        assert graph.compress_runtime is not None
        assert graph.compress_runtime.num_tasks > 0
        assert_compressed_identical("hss", base.matrix, graph.matrix)
        b = np.random.default_rng(5).standard_normal(256)
        assert np.array_equal(base.solve(b), graph.solve(b))

    def test_unknown_backend_rejected(self):
        from repro.api import StructuredSolver

        with pytest.raises(ValueError, match="use_runtime"):
            StructuredSolver.from_kernel(
                "yukawa", n=256, leaf_size=32, max_rank=16, compress_runtime="gpu"
            )

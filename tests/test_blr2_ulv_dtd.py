"""Tests for the task-based BLR2-ULV factorization (DTD runtime).

BLR2 factors on the one ULV engine as a one-level tree whose root merges
every block row; :func:`harness.alg1_reference` keeps the per-row Alg. 1
loop it replaced, and every backend must reproduce that loop's bits.
"""

import numpy as np
import pytest
from harness import alg1_reference, factorize_graph, solve_graph

from repro.api import StructuredSolver
from repro.core.blr2_ulv import blr2_ulv_factorize
from repro.formats.blr2 import build_blr2
from repro.pipeline.factorize import HSSULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy


@pytest.fixture(scope="module")
def blr2(kmat_small):
    return build_blr2(kmat_small, leaf_size=32, max_rank=20)


class TestNumericalEquivalence:
    def test_default_policy_matches_sequential_reference(self, blr2, rng):
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
        builder = HSSULVFactorizeBuilder(
            blr2, policy=ExecutionPolicy(backend="deferred")
        ).record()
        factor, rt = builder.result(), builder.runtime
        assert factor.root_chol.size == 0  # nothing ran yet
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
        """At one worker: DIAG_PRODUCT + PARTIAL_FACTOR per block row, one root
        MERGE and the root POTRF; the solve graph is FWD, ROOT, BWD."""
        factor, rt = factorize_graph("blr2", blr2, "parallel", n_workers=1)
        assert rt.num_tasks == 2 * blr2.nblocks + 2
        _, srt = solve_graph("blr2", factor, np.ones(blr2.n), "parallel", n_workers=1)
        assert [t.kind for t in srt.graph.tasks] == ["SOLVE_FWD", "SOLVE_ROOT", "SOLVE_BWD"]

    def test_kinds_present(self, blr2):
        _, rt = factorize_graph("blr2", blr2)
        kinds = {t.kind for t in rt.graph.tasks}
        assert kinds == {"DIAG_PRODUCT", "PARTIAL_FACTOR", "MERGE", "POTRF"}

    def test_root_depends_on_every_merge(self, blr2):
        """The root POTRF reads the one MERGE[0;0], which reads every row's Schur complement."""
        _, rt = factorize_graph("blr2", blr2)
        graph = rt.graph
        root = [t for t in graph.tasks if t.kind == "POTRF"][0]
        (merge,) = [graph.task(p) for p in graph.predecessors(root.tid)]
        assert merge.kind == "MERGE" and merge.name == "MERGE[0;0]"
        preds = {graph.task(p).name for p in graph.predecessors(merge.tid)}
        level = blr2.max_level
        assert preds == {f"PARTIAL_FACTOR[{level};{i}]" for i in range(blr2.nblocks)}

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

    def test_comm_plan_verified_on_two_nodes(self, blr2):
        builder = HSSULVFactorizeBuilder(
            blr2, policy=ExecutionPolicy(backend="distributed", nodes=2)
        )
        report = builder.execute()
        builder.verify_comm_plan(report)
        assert report.ok
        assert np.array_equal(builder.result().root_chol, blr2_ulv_factorize(blr2).root_chol)


#: Uniform leaves, ragged leaves (62/63 rows) and tol-adaptive ranks.
ALG1_CASES = {
    "uniform": dict(n=1024, leaf_size=128, max_rank=40),
    "ragged": dict(n=1000, leaf_size=64, max_rank=30),
    "tol": dict(n=1000, leaf_size=64, max_rank=48, tol=1e-5),
}
ALG1_BACKENDS = {
    "off": {},
    "deferred": {},
    "parallel": dict(n_workers=2),
    "process": dict(n_workers=2),
    "distributed": dict(nodes=2),
}


@pytest.fixture(scope="module")
def alg1_cases():
    out = {}
    for name, kwargs in ALG1_CASES.items():
        solver = StructuredSolver.from_kernel("yukawa", format="blr2", **kwargs)
        rng = np.random.default_rng(len(name))
        rhs = (rng.standard_normal(solver.n), rng.standard_normal((solver.n, 16)))
        ref = alg1_reference(solver.matrix)
        out[name] = (solver.matrix, ref, rhs, [ref.solve(b) for b in rhs])
    return out


class TestAlg1Reference:
    @pytest.mark.parametrize("backend", sorted(ALG1_BACKENDS))
    @pytest.mark.parametrize("case", sorted(ALG1_CASES))
    def test_bit_identical_to_the_per_row_loop(self, alg1_cases, case, backend):
        """Factor stacks, root Cholesky and k=1 / k=16 solutions equal Alg. 1's bits."""
        blr2, ref, rhs, expected = alg1_cases[case]
        if backend == "off":
            factor = blr2_ulv_factorize(blr2)
            xs = [factor.solve(b) for b in rhs]
        else:
            factor, _ = factorize_graph("blr2", blr2, backend, **ALG1_BACKENDS[backend])
            xs = [solve_graph("blr2", factor, b, backend, **ALG1_BACKENDS[backend])[0] for b in rhs]
        level = blr2.max_level
        assert list(factor.levels) == [level]
        for got, want in zip(factor.levels[level].groups, ref.levels[level].groups):
            assert np.array_equal(got.nodes, want.nodes)
            for a, b in zip(got.stacks, want.stacks):
                assert np.array_equal(a, b)
        assert np.array_equal(factor.root_chol, ref.root_chol)
        for x, want in zip(xs, expected):
            assert np.array_equal(x, want)

    def test_cases_cover_ragged_and_adaptive_shapes(self, alg1_cases):
        """The ragged case has two leaf sizes and the tol case node-dependent ranks."""
        shapes = {
            name: {(g.size, g.rank) for g in ref.levels[blr2.max_level].groups}
            for name, (blr2, ref, _, _) in alg1_cases.items()
        }
        assert len(shapes["uniform"]) == 1
        assert len({m for m, _ in shapes["ragged"]}) == 2
        assert len({r for _, r in shapes["tol"]}) > 1

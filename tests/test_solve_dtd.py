"""Tests for the task-graph ULV solves (repro.pipeline.solve).

Acceptance criteria of the solve subsystem: task-graph solves are
bit-identical to the sequential reference for HSS and BLR2 on all three
backends -- sequential (deferred), thread-parallel, distributed
over 1/2/4 worker processes -- including multi-RHS blocks (k in {1, 4, 16});
RHS panels decompose a block solve into independent task chains; one
iterative-refinement step recovers accuracy under loose compression; and the
distributed solve's measured communication ledger matches its static
transfer plan.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from harness import SOLVE_CASES, assert_replay_bit_identical, solve_case_solver, solve_graph

from repro.api import StructuredSolver
from repro.core.blr2_ulv import blr2_ulv_factorize
from repro.core.hss_ulv import hss_ulv_factorize
from repro.core.rhs import validate_rhs
from repro.formats.blr2 import build_blr2
from repro.formats.hss import build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import Yukawa
from repro.obs import MetricsRegistry
from repro.pipeline.panels import column_panels
from repro.pipeline.plans import SolvePlans
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.solve import HSSULVSolveBuilder
from repro.runtime.distributed import expected_comm, resolve_owners
from repro.runtime.distributed.blockstore import SEGMENT_PREFIX

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)

RHS_WIDTHS = (1, 4, 16)


@pytest.fixture(scope="module")
def hss_factor(kmat_small):
    return hss_ulv_factorize(build_hss(kmat_small, leaf_size=32, max_rank=20))


@pytest.fixture(scope="module")
def blr2_factor(kmat_small):
    return blr2_ulv_factorize(build_blr2(kmat_small, leaf_size=32, max_rank=20))


def _shm_segments() -> list:
    """This project's shared-memory segments currently in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):
        return []
    return [f for f in os.listdir("/dev/shm") if f.startswith(SEGMENT_PREFIX)]


def _rhs(n: int, k: int, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n if k == 1 else (n, k))


class TestBitIdentitySharedMemory:
    """deferred / parallel backends against the sequential reference."""

    @pytest.mark.parametrize("k", RHS_WIDTHS)
    @pytest.mark.parametrize("execution", ["deferred", "parallel"])
    def test_hss(self, hss_factor, execution, k):
        b = _rhs(hss_factor.matrix.n, k)
        x, rt = solve_graph("hss", hss_factor, b, execution)
        assert x.shape == b.shape
        assert np.array_equal(x, hss_factor.solve(b))
        assert rt.num_tasks > 0

    @pytest.mark.parametrize("k", RHS_WIDTHS)
    @pytest.mark.parametrize("execution", ["deferred", "parallel"])
    def test_blr2(self, blr2_factor, execution, k):
        b = _rhs(blr2_factor.matrix.n, k)
        x, rt = solve_graph("blr2", blr2_factor, b, execution)
        assert x.shape == b.shape
        assert np.array_equal(x, blr2_factor.solve(b))
        assert rt.num_tasks > 0


@needs_fork
class TestBitIdentityDistributed:
    @pytest.mark.parametrize("k", RHS_WIDTHS)
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_hss(self, hss_factor, nodes, k):
        b = _rhs(hss_factor.matrix.n, k)
        x, rt = solve_graph("hss", hss_factor, b, "distributed", nodes=nodes)
        assert rt.last_distributed_report.ok
        assert np.array_equal(x, hss_factor.solve(b))

    @pytest.mark.parametrize("k", RHS_WIDTHS)
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_blr2(self, blr2_factor, nodes, k):
        b = _rhs(blr2_factor.matrix.n, k)
        x, rt = solve_graph("blr2", blr2_factor, b, "distributed", nodes=nodes)
        assert rt.last_distributed_report.ok
        assert np.array_equal(x, blr2_factor.solve(b))


@needs_fork
class TestCommAccounting:
    """The measured comm ledger must equal the static transfer plan."""

    @pytest.mark.parametrize("nodes", [2, 4])
    def test_hss_ledger_matches_plan(self, hss_factor, nodes):
        b = _rhs(hss_factor.matrix.n, 4)
        _, rt = solve_graph("hss", hss_factor, b, "distributed", nodes=nodes)
        report = rt.last_distributed_report
        proc_of = resolve_owners(rt.graph, nodes)
        exp_messages, exp_bytes = expected_comm(rt.graph, proc_of)
        assert report.ledger.num_messages == exp_messages
        assert report.ledger.total_bytes == exp_bytes
        assert report.ledger.total_bytes == rt.graph.communication_bytes()

    @pytest.mark.parametrize("nodes", [2, 4])
    def test_blr2_ledger_matches_plan(self, blr2_factor, nodes):
        b = _rhs(blr2_factor.matrix.n, 4)
        _, rt = solve_graph("blr2", blr2_factor, b, "distributed", nodes=nodes)
        report = rt.last_distributed_report
        proc_of = resolve_owners(rt.graph, nodes)
        assert (report.ledger.num_messages, report.ledger.total_bytes) == expected_comm(
            rt.graph, proc_of
        )

    def test_single_node_is_communication_free(self, hss_factor):
        b = _rhs(hss_factor.matrix.n, 4)
        _, rt = solve_graph("hss", hss_factor, b, "distributed", nodes=1)
        assert rt.last_distributed_report.ledger.num_messages == 0


class TestPanels:
    def test_column_panels_layout(self):
        assert column_panels(16, 4) == [slice(0, 4), slice(4, 8), slice(8, 12), slice(12, 16)]
        assert column_panels(5, 2) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        assert column_panels(8, None) == [slice(0, 8)]
        assert column_panels(3, 100) == [slice(0, 3)]
        assert column_panels(0, 4) == []
        with pytest.raises(ValueError, match="panel_size"):
            column_panels(8, 0)

    @pytest.mark.parametrize("execution", ["deferred", "parallel"])
    def test_hss_panels_match_per_panel_reference(self, hss_factor, execution):
        n = hss_factor.matrix.n
        B = _rhs(n, 16)
        x, rt = solve_graph("hss", hss_factor, B, execution, panel_size=4)
        per_panel = np.hstack([hss_factor.solve(B[:, s]) for s in column_panels(16, 4)])
        assert np.array_equal(x, per_panel)
        np.testing.assert_allclose(x, hss_factor.solve(B), rtol=1e-12, atol=1e-13)
        # four independent panel chains -> four root solves in one graph
        roots = [t for t in rt.graph.tasks if t.kind == "SOLVE_ROOT"]
        assert len(roots) == 4

    def test_blr2_panels_match_per_panel_reference(self, blr2_factor):
        n = blr2_factor.matrix.n
        B = _rhs(n, 16)
        x, rt = solve_graph("blr2", blr2_factor, B, "parallel", panel_size=8)
        per_panel = np.hstack([blr2_factor.solve(B[:, s]) for s in column_panels(16, 8)])
        assert np.array_equal(x, per_panel)
        roots = [t for t in rt.graph.tasks if t.kind == "SOLVE_ROOT"]
        assert len(roots) == 2

    def test_panel_chains_are_independent(self, hss_factor):
        """No dependency edge may connect tasks of different panels."""
        B = _rhs(hss_factor.matrix.n, 8)
        _, rt = solve_graph("hss", hss_factor, B, "deferred", panel_size=2)
        # every task name ends in "...p<panel>]" (e.g. FWD[3;1;p2], ROOT_SOLVE[p2])
        panel_of = {t.tid: t.name.rsplit("p", 1)[1].rstrip("]") for t in rt.graph.tasks}
        for src, dst in rt.graph.edges:
            assert panel_of[src] == panel_of[dst]


class TestSolveSweep:
    """Ragged sizes and tol-adaptive ranks through every solve backend.

    Shape-grouped levels, single-node groups and owner-split level tasks
    (two workers / two nodes) must all reproduce the sequential reference
    bit for bit, panel by panel.
    """

    @pytest.mark.parametrize("case", SOLVE_CASES, ids=lambda c: c.id)
    @pytest.mark.parametrize(
        "k, panel_size", [(1, None), (16, None), (16, 4)], ids=["k1", "k16", "k16-panel4"]
    )
    @pytest.mark.parametrize(
        "backend, nodes",
        [
            ("deferred", 1),
            ("parallel", 1),
            pytest.param("distributed", 2, marks=needs_fork),
        ],
        ids=["deferred", "parallel", "distributed2"],
    )
    def test_bit_identical_to_reference(self, case, k, panel_size, backend, nodes):
        assert_replay_bit_identical(
            solve_case_solver(case), backend, k=k, panel_size=panel_size,
            nodes=nodes, n_workers=2, solves=2,
        )

    @pytest.mark.parametrize("k", [1, 16])
    def test_unaligned_owner_chunks(self, k):
        """Three workers: a parent chunk spans two child chunks (rows are
        stitched from both), and a child chunk feeds two parent chunks."""
        assert_replay_bit_identical(
            solve_case_solver(SOLVE_CASES[0]), "parallel", k=k, n_workers=3, solves=2
        )


class TestGraphShape:
    @staticmethod
    def _kinds(rt):
        kinds = {}
        for t in rt.graph.tasks:
            kinds[t.kind] = kinds.get(t.kind, 0) + 1
        return kinds

    def test_hss_task_census(self, hss_factor):
        """One FWD and one BWD task per tree level, no merge tasks."""
        b = _rhs(hss_factor.matrix.n, 1)
        _, rt = solve_graph("hss", hss_factor, b, "deferred")
        max_level = hss_factor.matrix.max_level
        assert self._kinds(rt) == {
            "SOLVE_FWD": max_level, "SOLVE_ROOT": 1, "SOLVE_BWD": max_level,
        }
        assert rt.graph.total_flops() > 0

    def test_hss_task_census_n8192(self):
        """The benchmark problem: 5 levels, so 5 + 1 + 5 = 11 tasks (156 with a task per node)."""
        kmat = KernelMatrix(Yukawa(), uniform_grid_2d(8192))
        hss = build_hss(kmat, leaf_size=256, max_rank=60)
        builder = HSSULVSolveBuilder(
            hss_ulv_factorize(hss), _rhs(8192, 1),
            policy=ExecutionPolicy(backend="parallel", n_workers=1),
        ).record()
        assert builder.runtime.num_tasks == 11

    def test_hss_owner_chunks(self, hss_factor):
        """Two nodes split every level (each has at least two nodes) in two."""
        b = _rhs(hss_factor.matrix.n, 1)
        _, rt = solve_graph("hss", hss_factor, b, "deferred", nodes=2)
        max_level = hss_factor.matrix.max_level
        assert self._kinds(rt) == {
            "SOLVE_FWD": 2 * max_level, "SOLVE_ROOT": 1, "SOLVE_BWD": 2 * max_level,
        }

    def test_blr2_task_census(self, blr2_factor):
        b = _rhs(blr2_factor.matrix.n, 1)
        _, rt = solve_graph("blr2", blr2_factor, b, "deferred")
        assert self._kinds(rt) == {"SOLVE_FWD": 1, "SOLVE_ROOT": 1, "SOLVE_BWD": 1}
        _, rt = solve_graph("blr2", blr2_factor, b, "parallel", n_workers=3)
        assert self._kinds(rt) == {"SOLVE_FWD": 3, "SOLVE_ROOT": 1, "SOLVE_BWD": 3}

    def test_graph_is_valid(self, hss_factor):
        _, rt = solve_graph("hss", hss_factor, _rhs(hss_factor.matrix.n, 4), "deferred")
        rt.validate()


class TestRefinement:
    @pytest.fixture(scope="class")
    def loose(self, kmat_small, dense_small):
        """A deliberately loose compression (small rank cap)."""
        factor = hss_ulv_factorize(build_hss(kmat_small, leaf_size=32, max_rank=10))
        return factor, dense_small

    @pytest.mark.parametrize("k", [1, 4])
    def test_refine_against_exact_operator_improves(self, loose, k):
        factor, dense = loose
        b = _rhs(dense.shape[0], k, seed=7)
        x_ref = np.linalg.solve(dense, b)
        x_plain, _ = solve_graph("hss", factor, b, "deferred")
        x_ref_norm = np.linalg.norm(x_ref)
        err_plain = np.linalg.norm(x_plain - x_ref) / x_ref_norm
        # a bare dense array is accepted as the refinement operator
        x_refined, _ = solve_graph("hss", factor, b, "deferred", refine=True, matvec=dense)
        err_refined = np.linalg.norm(x_refined - x_ref) / x_ref_norm
        assert err_refined < err_plain

    def test_refine_default_operator_matches_reference_iteration(self, hss_factor):
        """refine=True with the default (HSS) operator equals the hand-rolled step."""
        b = _rhs(hss_factor.matrix.n, 2, seed=9)
        x_refined, _ = solve_graph("hss", hss_factor, b, "deferred", refine=True)
        x0 = hss_factor.solve(b)
        expected = x0 + hss_factor.solve(b - hss_factor.matrix.matvec(x0))
        assert np.array_equal(x_refined, expected)

    def test_blr2_refine_improves(self, kmat_small, dense_small):
        factor = blr2_ulv_factorize(build_blr2(kmat_small, leaf_size=32, max_rank=10))
        b = _rhs(dense_small.shape[0], 1, seed=11)
        x_ref = np.linalg.solve(dense_small, b)
        x_plain, _ = solve_graph("blr2", factor, b, "deferred")
        x_refined, _ = solve_graph(
            "blr2", factor, b, "deferred", refine=True, matvec=lambda v: dense_small @ v
        )
        err = lambda x: np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)  # noqa: E731
        assert err(x_refined) < err(x_plain)


class TestValidation:
    def test_validate_rhs_accepts_vector_and_block(self):
        bm, single = validate_rhs(np.ones(8), 8)
        assert bm.shape == (8, 1) and single
        bm, single = validate_rhs(np.ones((8, 3)), 8)
        assert bm.shape == (8, 3) and not single

    def test_validate_rhs_copy_is_isolated(self):
        b = np.ones(4)
        bm, _ = validate_rhs(b, 4)
        bm[0, 0] = 99.0
        assert b[0] == 1.0

    @pytest.mark.parametrize("bad", [np.ones(7), np.ones((7, 2)), np.ones((8, 2, 2)), 3.0])
    def test_sequential_solvers_reject_bad_shapes(self, hss_factor, blr2_factor, bad):
        with pytest.raises(ValueError, match="rows|vector"):
            hss_factor.solve(bad)
        with pytest.raises(ValueError, match="rows|vector"):
            blr2_factor.solve(bad)

    def test_dtd_solvers_reject_bad_shapes(self, hss_factor, blr2_factor):
        with pytest.raises(ValueError, match="rows"):
            solve_graph("hss", hss_factor, np.ones(5))
        with pytest.raises(ValueError, match="rows"):
            solve_graph("blr2", blr2_factor, np.ones((5, 2)))

    def test_empty_rhs_block_rejected(self, hss_factor):
        with pytest.raises(ValueError, match="0 columns"):
            solve_graph("hss", hss_factor, np.empty((hss_factor.matrix.n, 0)))


FORMATS = ("hss", "blr2", "hodlr")


@pytest.fixture(scope="module")
def solvers(points_small):
    """One factorized solver per format; every replay case solves through it."""
    out = {}
    for fmt in FORMATS:
        out[fmt] = StructuredSolver.from_points(
            "yukawa", points_small, format=fmt, leaf_size=32, max_rank=20
        )
        out[fmt].factorize()
    return out


class TestReplay:
    """The first solve of a (width, policy) records; later ones replay the graph."""

    @pytest.mark.parametrize("panel_size", [None, 4])
    @pytest.mark.parametrize("k", RHS_WIDTHS)
    @pytest.mark.parametrize("backend", ["deferred", "parallel"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_shared_memory(self, solvers, fmt, backend, k, panel_size):
        assert_replay_bit_identical(solvers[fmt], backend, k=k, panel_size=panel_size)

    @needs_fork
    @pytest.mark.parametrize("panel_size", [None, 4])
    @pytest.mark.parametrize("k", RHS_WIDTHS)
    @pytest.mark.parametrize(
        "backend,nodes",
        [("process", 1), ("process", 2), ("distributed", 1), ("distributed", 2)],
    )
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_forked(self, solvers, fmt, backend, nodes, k, panel_size):
        # ``nodes`` is the rank count: process counts its ranks as workers
        workers = nodes if backend == "process" else 2
        assert_replay_bit_identical(
            solvers[fmt], backend, k=k, panel_size=panel_size, nodes=nodes,
            n_workers=workers,
        )

    def test_width_and_policy_key_the_plan(self, solvers):
        solver = solvers["blr2"]
        solver.solve(_rhs(solver.n, 1), use_runtime="parallel", n_workers=2)
        rt = solver.solve_runtime
        solver.solve(_rhs(solver.n, 4), use_runtime="parallel", n_workers=2)
        assert solver.solve_runtime is not rt  # other width
        solver.solve(_rhs(solver.n, 1), use_runtime="parallel", n_workers=3)
        assert solver.solve_runtime is not rt  # other policy
        solver.solve(_rhs(solver.n, 1, seed=5).reshape(-1, 1), use_runtime="parallel", n_workers=2)
        assert solver.solve_runtime is rt  # (n,) and (n, 1) are one width

    @pytest.mark.parametrize(
        "kw",
        [
            {"use_runtime": "parallel", "n_workers": 2},
            pytest.param({"use_runtime": "distributed", "nodes": 2}, marks=needs_fork),
        ],
        ids=["parallel", "distributed"],
    )
    def test_failing_task_discards_the_plan(self, points_small, kw):
        solver = StructuredSolver.from_points(
            "yukawa", points_small, leaf_size=32, max_rank=20
        )
        b = _rhs(solver.n, 1)
        segments_before = set(_shm_segments())
        solver.solve(b, **kw)
        poisoned = solver.solve_runtime

        def boom():
            raise RuntimeError("injected task failure")

        # Forked ranks inherit the swapped body, so the failure is remote there.
        poisoned.graph.tasks[3].func = boom
        with pytest.raises(RuntimeError, match="injected"):
            solver.solve(b, **kw)
        assert len(solver._plans) == 0
        x = solver.solve(b, **kw)
        assert solver.solve_runtime is not poisoned
        assert np.array_equal(x, solver.factor.solve(b))
        assert set(_shm_segments()) <= segments_before

    def test_timeout_discards_the_plan(self, hss_factor):
        plans = SolvePlans()
        policy = ExecutionPolicy(backend="parallel", n_workers=2)
        b = _rhs(hss_factor.matrix.n, 1)
        with plans.checkout(HSSULVSolveBuilder, hss_factor, b, policy) as plan:
            plan.run()
        assert len(plans) == 1
        with pytest.raises(TimeoutError):
            with plans.checkout(HSSULVSolveBuilder, hss_factor, b, policy) as replay:
                assert replay is plan
                replay.execute(timeout=0.0)
        assert len(plans) == 0
        with plans.checkout(HSSULVSolveBuilder, hss_factor, b, policy) as fresh:
            assert fresh is not plan
            assert np.array_equal(fresh.run()[:, 0], hss_factor.solve(b))

    def test_force_refactorize_drops_plans(self, points_small):
        solver = StructuredSolver.from_points(
            "yukawa", points_small, leaf_size=32, max_rank=20
        )
        b = _rhs(solver.n, 1)
        solver.solve(b, use_runtime="deferred")
        rt = solver.solve_runtime
        assert len(solver._plans) == 1
        solver.factorize(force=True)
        assert len(solver._plans) == 0
        x = solver.solve(b, use_runtime="deferred")
        assert solver.solve_runtime is not rt
        assert np.array_equal(x, solver.factor.solve(b))

    @pytest.mark.parametrize("k", [1, 4])
    def test_refine_replays_and_matches_sequential(self, solvers, k):
        solver = solvers["hss"]
        for seed in (1, 2):
            b = _rhs(solver.n, k, seed=seed)
            x = solver.solve(b, use_runtime="parallel", n_workers=2, refine=True)
            assert np.array_equal(x, solver.solve(b, refine=True))

    def test_concurrent_solves_on_one_solver(self, solvers):
        """A plan is checked out while it runs: racing solves never share stores."""
        solver = solvers["hodlr"]
        rhs = [_rhs(solver.n, 1, seed=s) for s in range(24)]
        out = [None] * len(rhs)
        n_threads = 4  # more than this box has cores

        def work(lo):
            for j in range(lo, len(rhs), n_threads):
                out[j] = solver.solve(rhs[j], use_runtime="parallel", n_workers=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(lo,)) for lo in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for b, x in zip(rhs, out):
            assert np.array_equal(x, solver.factor.solve(b))

    def test_trace_is_a_switch_of_one_execution(self, solvers):
        solver = solvers["hss"]
        kw = {"use_runtime": "parallel", "n_workers": 2}
        solver.solve(_rhs(solver.n, 1, seed=1), trace=True, **kw)
        rt = solver.solve_runtime
        assert rt.last_trace is not None and len(rt.last_trace.spans) == rt.num_tasks
        solver.solve(_rhs(solver.n, 1, seed=2), **kw)
        assert solver.solve_runtime is rt
        assert rt.last_trace is None and "solve" not in solver.last_traces()
        solver.solve(_rhs(solver.n, 1, seed=3), trace=True, **kw)
        assert len(rt.last_trace.spans) == rt.num_tasks

    def test_plan_counters(self, solvers):
        solver = solvers["blr2"]
        registry = MetricsRegistry()
        kw = {"use_runtime": "deferred", "panel_size": 2, "metrics": registry}
        for seed in (1, 2, 3):
            solver.solve(_rhs(solver.n, 4, seed=seed), **kw)
        assert registry.value("repro_solve_plan_records_total", backend="deferred") == 1
        assert registry.value("repro_solve_plan_replays_total", backend="deferred") == 2
        # metrics are per execution too: every solve counted its own tasks
        assert registry.value(
            "repro_tasks_executed_total", backend="deferred"
        ) == 3 * solver.solve_runtime.num_tasks


class TestPlanMemory:
    """Plans hang off the solver, never the factor: no cycle keeps blocks alive."""

    def test_parked_plan_keeps_no_rhs_sized_data(self, solvers):
        solver = solvers["hss"]
        b = _rhs(solver.n, 4, seed=3)
        held = weakref.ref(b)
        solver.solve(b, use_runtime="deferred")
        (plan,) = [p for p in solver._plans._plans.values() if p.runtime is solver.solve_runtime]
        assert plan.bm is None and not any(plan._stores)
        del b
        assert held() is None, "a parked plan kept the caller's right-hand side alive"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_dropped_solver_is_reclaimed_by_refcount(self, points_small, fmt):
        solver = StructuredSolver.from_points(
            "yukawa", points_small, format=fmt, leaf_size=32, max_rank=20
        )
        b = _rhs(solver.n, 1)
        for _ in range(2):
            solver.solve(b, use_runtime="parallel", n_workers=2)
        gc.collect()
        gc.disable()
        try:
            factor = weakref.ref(solver.factor)
            del solver
            assert factor() is None, "the factor outlived its solver without a gc pass"
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            arrays = [obj for obj in gc.garbage if isinstance(obj, np.ndarray)]
            assert not arrays, f"{len(arrays)} ndarray(s) were only reclaimable by the cycle collector"
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

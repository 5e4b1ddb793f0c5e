"""Tests for the format-agnostic pipeline layer: ExecutionPolicy, the format
registry round-trip, and the registry-driven CLI/service wiring."""

import os

import numpy as np
import pytest

from repro.api import StructuredSolver
from repro.distribution.strategies import (
    BlockCyclicDistribution,
    RowCyclicDistribution,
    available_distributions,
)
from repro.pipeline.policy import BACKENDS, RUNTIME_BACKENDS, ExecutionPolicy
from repro.pipeline.registry import available_formats, format_titles, get_format
from repro.runtime.task import AccessMode

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)


class TestExecutionPolicy:
    def test_resolve_bool_mapping(self):
        assert ExecutionPolicy.resolve(False).backend == "off"
        assert ExecutionPolicy.resolve(True).backend == "immediate"
        for name in BACKENDS:
            assert ExecutionPolicy.resolve(name).backend == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown use_runtime"):
            ExecutionPolicy.resolve("turbo")
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionPolicy(backend="turbo")

    def test_uses_runtime(self):
        assert not ExecutionPolicy(backend="off").uses_runtime
        for name in RUNTIME_BACKENDS:
            assert ExecutionPolicy(backend=name).uses_runtime

    def test_make_runtime_modes(self):
        assert ExecutionPolicy(backend="immediate").make_runtime().execution == "immediate"
        assert ExecutionPolicy(backend="deferred").make_runtime().execution == "deferred"
        # parallel/distributed need fully deferred graphs
        assert ExecutionPolicy(backend="parallel").make_runtime().execution == "deferred"
        assert ExecutionPolicy(backend="distributed").make_runtime().execution == "deferred"
        with pytest.raises(ValueError, match="off"):
            ExecutionPolicy(backend="off").make_runtime()

    def test_resolve_distribution(self):
        policy = ExecutionPolicy(backend="parallel", nodes=4, distribution="block")
        assert isinstance(policy.resolve_distribution(3), BlockCyclicDistribution)
        default = ExecutionPolicy(backend="parallel", nodes=4).resolve_distribution(3)
        assert isinstance(default, RowCyclicDistribution)
        assert default.max_level == 3
        strat = RowCyclicDistribution(2)
        assert (
            ExecutionPolicy(backend="parallel", distribution=strat).resolve_distribution(1)
            is strat
        )

    def test_execute_sequential_dispatch(self):
        policy = ExecutionPolicy(backend="deferred")
        rt = policy.make_runtime()
        ran = []
        h = rt.new_handle("H", nbytes=8)
        rt.insert_task(lambda: ran.append(1), [(h, AccessMode.WRITE)], name="T")
        assert ran == []
        policy.execute(rt)
        assert ran == [1]


class TestRegistry:
    def test_expected_formats_registered(self):
        assert set(available_formats()) >= {"hss", "blr2", "hodlr"}
        titles = format_titles()
        assert titles["hss"] == "HSS"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            get_format("h-matrix")

    def test_case_insensitive_lookup(self):
        assert get_format("HSS").name == "hss"

    @pytest.mark.parametrize("name", sorted({"hss", "blr2", "hodlr"}))
    def test_round_trip_build_factorize_solve(self, name, points_small):
        """Registry round-trip: build -> factorize -> solve -> residual, per format."""
        from repro.kernels.assembly import KernelMatrix
        from repro.kernels.greens import Yukawa
        from repro.pipeline.panels import apply_operator

        spec = get_format(name)
        kmat = KernelMatrix(Yukawa(), points_small)
        matrix = spec.build(kmat, leaf_size=64, max_rank=24)
        factor = spec.factorize(matrix)
        rng = np.random.default_rng(7)
        b = rng.standard_normal((matrix.n, 3))
        x_ref = factor.solve(b)
        # residual against the compressed operator: direct-solver accuracy
        resid = np.linalg.norm(apply_operator(matrix, x_ref) - b) / np.linalg.norm(b)
        assert resid < 1e-8
        # the task-graph paths agree bit for bit with the reference
        policy = ExecutionPolicy(backend="parallel", n_workers=2)
        dtd_factor, rt = spec.factorize_dtd(matrix, policy=policy)
        assert rt.num_tasks > 0
        np.testing.assert_array_equal(dtd_factor.solve(b), x_ref)
        x, _ = spec.solve_dtd(factor, b, policy=policy)
        np.testing.assert_array_equal(x, x_ref)

    def test_cli_choices_derived_from_registries(self):
        import argparse

        from repro.cli import RUNTIME_CHOICES, build_parser

        assert RUNTIME_CHOICES == BACKENDS
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        solve = sub.choices["solve"]
        by_dest = {a.dest: a for a in solve._actions}
        assert tuple(by_dest["format"].choices) == available_formats()
        assert tuple(by_dest["runtime"].choices) == BACKENDS
        assert tuple(by_dest["distribution"].choices) == available_distributions()
        assert set(available_distributions()) == {"row", "block", "element"}

    def test_cli_sees_formats_registered_after_import(self):
        """Choices are read at parser-build time, not frozen at module import."""
        from repro.cli import build_parser
        from repro.pipeline import registry

        spec = registry.FormatSpec(
            name="dummyfmt", title="Dummy",
            build=lambda *a, **k: None, factorize=lambda m: None,
            factorize_dtd=lambda m, policy: (None, None),
            solve_dtd=lambda f, b, policy, **k: (None, None),
        )
        registry.register_format(spec)
        try:
            args = build_parser().parse_args(["solve", "--format", "dummyfmt"])
            assert args.format == "dummyfmt"
        finally:
            del registry._REGISTRY["dummyfmt"]


class TestStructuredSolverFormats:
    @pytest.mark.parametrize("fmt", ("hss", "blr2", "hodlr"))
    def test_facade_solves_every_format(self, fmt):
        solver = StructuredSolver.from_kernel(
            "yukawa", n=256, format=fmt, leaf_size=64, max_rank=24
        )
        assert solver.format == fmt
        rng = np.random.default_rng(3)
        b = rng.standard_normal(256)
        x = solver.solve(b)
        resid = np.linalg.norm(solver.matvec(x) - b) / np.linalg.norm(b)
        assert resid < 1e-8
        assert solver.solve_error(nrhs=2) < 1e-8

    @pytest.mark.parametrize("fmt", ("blr2", "hodlr"))
    def test_facade_parallel_backend_bit_identical(self, fmt):
        seq = StructuredSolver.from_kernel("yukawa", n=256, format=fmt, leaf_size=64, max_rank=24)
        par = StructuredSolver.from_kernel("yukawa", n=256, format=fmt, leaf_size=64, max_rank=24)
        seq.factorize()
        par.factorize(use_runtime="parallel", n_workers=2)
        rng = np.random.default_rng(5)
        b = rng.standard_normal((256, 3))
        np.testing.assert_array_equal(
            par.solve(b, use_runtime="parallel", n_workers=2), seq.solve(b)
        )

    def test_compressed_matrix_is_required(self):
        solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=24)
        with pytest.raises(TypeError, match="matrix"):
            StructuredSolver(kernel_matrix=solver.kernel_matrix)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            StructuredSolver.from_kernel("yukawa", n=256, format="dense?")


class TestServiceFormats:
    def test_factor_key_distinguishes_formats(self):
        from repro.service import FactorKey

        a = FactorKey.make("yukawa", 256, leaf_size=64, max_rank=24)
        b = FactorKey.make("yukawa", 256, leaf_size=64, max_rank=24, format="hodlr")
        assert a.format == "hss"
        assert a != b

    def test_service_serves_hodlr(self):
        from repro.service import SolverService

        service = SolverService(backend="parallel", n_workers=2)
        rng = np.random.default_rng(11)
        b = rng.standard_normal(256)
        x = service.solve(
            b, kernel="yukawa", n=256, leaf_size=64, max_rank=24, format="hodlr"
        )
        solver = service.solver_for(service.cached_keys[0])
        assert service.cached_keys[0].format == "hodlr"
        resid = np.linalg.norm(solver.matvec(x) - b) / np.linalg.norm(b)
        assert resid < 1e-8


@needs_fork
class TestCommPlanVerification:
    def test_builder_verifies_distributed_ledger(self, points_small):
        from repro.kernels.assembly import KernelMatrix
        from repro.kernels.greens import Yukawa
        from repro.formats.hss import build_hss
        from repro.pipeline.factorize import HSSULVFactorizeBuilder

        kmat = KernelMatrix(Yukawa(), points_small)
        hss = build_hss(kmat, leaf_size=64, max_rank=24)
        builder = HSSULVFactorizeBuilder(
            hss, policy=ExecutionPolicy(backend="distributed", nodes=2)
        )
        builder.execute()
        builder.verify_comm_plan()  # measured ledger == static transfer plan

    def test_verify_without_report_raises(self, points_small):
        from repro.kernels.assembly import KernelMatrix
        from repro.kernels.greens import Yukawa
        from repro.formats.hss import build_hss
        from repro.pipeline.factorize import HSSULVFactorizeBuilder

        kmat = KernelMatrix(Yukawa(), points_small)
        hss = build_hss(kmat, leaf_size=64, max_rank=24)
        builder = HSSULVFactorizeBuilder(
            hss, policy=ExecutionPolicy(backend="parallel", n_workers=2)
        )
        builder.execute()
        with pytest.raises(RuntimeError, match="no distributed report"):
            builder.verify_comm_plan()

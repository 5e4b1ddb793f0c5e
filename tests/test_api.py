"""Tests for the high-level StructuredSolver facade."""

import numpy as np
import pytest

from repro.api import StructuredSolver
from repro.geometry.points import random_uniform


@pytest.fixture(scope="module")
def solver():
    return StructuredSolver.from_kernel("yukawa", n=512, leaf_size=64, max_rank=24)


class TestStructuredSolver:
    def test_construction(self, solver):
        assert solver.n == 512
        assert solver.matrix.leaf_size == 64
        assert solver.factor is None

    def test_solve_and_errors(self, solver, rng):
        b = rng.standard_normal(solver.n)
        x = solver.solve(b)
        assert x.shape == b.shape
        assert solver.factor is not None
        assert solver.solve_error() < 1e-10
        assert solver.construction_error() < 1e-4

    def test_matvec(self, solver, rng):
        x = rng.standard_normal(solver.n)
        y = solver.matvec(x)
        assert y.shape == x.shape

    def test_solve_consistency(self, solver, rng):
        """solve(matvec(b)) recovers b."""
        b = rng.standard_normal(solver.n)
        x = solver.solve(solver.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-9

    def test_logdet_finite(self, solver):
        assert np.isfinite(solver.logdet())

    def test_from_points(self, rng):
        pts = random_uniform(256, dim=2, seed=3)
        solver = StructuredSolver.from_points("matern", pts, leaf_size=64, max_rank=20)
        b = rng.standard_normal(256)
        x = solver.solve(solver.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-8

    def test_kernel_params_forwarded(self):
        solver = StructuredSolver.from_kernel("matern", n=256, leaf_size=64, max_rank=16, sigma=2.0)
        assert solver.kernel_matrix.kernel.sigma == 2.0

    def test_factorize_with_runtime(self, rng):
        solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=20)
        factor = solver.factorize(use_runtime=True, nodes=4)
        b = rng.standard_normal(256)
        x = factor.solve(solver.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-9

    def test_factorize_parallel_runtime(self, rng):
        """use_runtime="parallel" goes through the thread-pool executor and
        matches the sequential reference factor exactly."""
        seq = StructuredSolver.from_kernel("yukawa", n=512, leaf_size=64, max_rank=24)
        par = StructuredSolver.from_kernel("yukawa", n=512, leaf_size=64, max_rank=24)
        b = rng.standard_normal(512)
        x_seq = seq.factorize().solve(b)
        x_par = par.factorize(use_runtime="parallel", n_workers=4).solve(b)
        np.testing.assert_allclose(x_par, x_seq, atol=1e-10)
        assert par.solve_error() < 1e-10

    def test_factorize_mode_aliases(self):
        for mode in (False, True, "off", "deferred", "parallel"):
            solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=20)
            factor = solver.factorize(use_runtime=mode, n_workers=2)
            assert factor is solver.factor

    def test_factorize_rejects_unknown_mode(self):
        solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=20)
        with pytest.raises(ValueError, match="use_runtime"):
            solver.factorize(use_runtime="turbo")

    def test_factorize_rejects_unknown_mode_even_when_cached(self):
        solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=20)
        solver.factorize()
        with pytest.raises(ValueError, match="use_runtime"):
            solver.factorize(use_runtime="turbo")

    def test_factorize_force_refactorizes(self, rng):
        solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=20)
        cached = solver.factorize()
        assert solver.factorize(use_runtime="parallel") is cached  # cache wins
        fresh = solver.factorize(use_runtime="parallel", n_workers=2, force=True)
        assert fresh is not cached
        b = rng.standard_normal(256)
        np.testing.assert_allclose(fresh.solve(b), cached.solve(b), atol=1e-12)

    def test_repr(self, solver):
        assert "StructuredSolver" in repr(solver)
        assert "format='hss'" in repr(solver)

    def test_solve_multi_rhs(self, solver, rng):
        B = rng.standard_normal((solver.n, 5))
        X = solver.solve(B)
        assert X.shape == B.shape
        for j in range(5):
            np.testing.assert_allclose(X[:, j], solver.solve(B[:, j]), rtol=1e-10, atol=1e-12)

    def test_solve_through_runtime_is_bit_identical(self, solver, rng):
        B = rng.standard_normal((solver.n, 4))
        x_ref = solver.solve(B)
        for mode in (True, "deferred", "parallel"):
            assert np.array_equal(solver.solve(B, use_runtime=mode, n_workers=2), x_ref)

    def test_solve_panelized(self, solver, rng):
        B = rng.standard_normal((solver.n, 8))
        x = solver.solve(B, use_runtime="parallel", n_workers=2, panel_size=2)
        np.testing.assert_allclose(x, solver.solve(B), rtol=1e-11, atol=1e-13)

    def test_solve_refine_improves_residual(self, rng):
        loose = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=32, max_rank=10)
        b = rng.standard_normal(256)
        x_plain = loose.solve(b)
        x_refined = loose.solve(b, refine=True)
        res = lambda x: np.linalg.norm(  # noqa: E731
            loose.kernel_matrix.matvec(x) - b
        ) / np.linalg.norm(b)
        assert res(x_refined) < res(x_plain)

    def test_solve_rejects_bad_rhs(self, solver):
        with pytest.raises(ValueError, match="rows"):
            solver.solve(np.ones(solver.n + 1))
        with pytest.raises(ValueError, match="vector"):
            solver.solve(np.ones((solver.n, 2, 2)))

    def test_solve_rejects_unknown_mode(self, solver):
        with pytest.raises(ValueError, match="use_runtime"):
            solver.solve(np.ones(solver.n), use_runtime="turbo")

    def test_solve_rejects_taskgraph_knobs_on_sequential_path(self, solver):
        with pytest.raises(ValueError, match="panel_size"):
            solver.solve(np.ones(solver.n), panel_size=2)
        with pytest.raises(ValueError, match="distribution"):
            solver.solve(np.ones(solver.n), distribution="row")

    def test_solve_error_multi_rhs(self, solver):
        assert solver.solve_error(nrhs=4) < 1e-10
        with pytest.raises(ValueError, match="nrhs"):
            solver.solve_error(nrhs=0)

    def test_package_exports(self):
        import repro

        assert repro.StructuredSolver is StructuredSolver
        assert isinstance(repro.__version__, str)

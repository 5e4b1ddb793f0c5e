"""Tests for error metrics, power-law fits and scaling analysis."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.complexity import estimate_complexity_exponent, fit_power_law
from repro.analysis.errors import construction_error, relative_residual, solve_error
from repro.analysis.scaling import (
    confidence_interval,
    parallel_efficiency,
    weak_scaling_efficiency,
)


class TestErrors:
    def test_construction_error_zero_for_identical(self, dense_small):
        assert construction_error(dense_small, dense_small, seed=1) == pytest.approx(0.0, abs=1e-14)

    def test_construction_error_detects_perturbation(self, dense_small):
        perturbed = dense_small + 1e-3 * np.linalg.norm(dense_small) / dense_small.shape[0]
        err = construction_error(dense_small, perturbed, seed=1)
        assert err > 1e-6

    def test_construction_error_with_matvec_objects(self, kmat_small, dense_small):
        err = construction_error(kmat_small, dense_small, n=kmat_small.n)
        assert err < 1e-12

    def test_construction_error_explicit_vector(self, dense_small, rng):
        b = rng.standard_normal(dense_small.shape[0])
        assert construction_error(dense_small, dense_small * 1.0, b=b) == pytest.approx(0.0, abs=1e-14)

    def test_construction_error_requires_size(self):
        with pytest.raises(ValueError):
            construction_error(lambda x: x, lambda x: x)

    def test_solve_error_exact_solver(self, dense_small):
        solver = lambda b: np.linalg.solve(dense_small, b)
        assert solve_error(dense_small, solver, n=dense_small.shape[0]) < 1e-11

    def test_solve_error_bad_solver(self, dense_small):
        solver = lambda b: b  # identity is not the inverse
        assert solve_error(dense_small, solver, n=dense_small.shape[0]) > 1e-2

    def test_relative_residual(self, dense_small, rng):
        x = rng.standard_normal(dense_small.shape[0])
        b = dense_small @ x
        assert relative_residual(dense_small, x, b) < 1e-12
        assert relative_residual(dense_small, 0 * x, b) == pytest.approx(1.0)


class TestComplexityFit:
    def test_exact_power_law(self):
        x = np.array([1e3, 2e3, 4e3, 8e3])
        fit = fit_power_law(x, 5.0 * x**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.coefficient == pytest.approx(5.0, rel=1e-8)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        x = np.array([10.0, 100.0, 1000.0])
        fit = fit_power_law(x, 2.0 * x**1.5)
        assert fit.predict(500.0) == pytest.approx(2.0 * 500.0**1.5, rel=1e-6)

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(0)
        x = np.array([1e3, 2e3, 4e3, 8e3, 1.6e4])
        y = 3.0 * x**3 * rng.uniform(0.9, 1.1, size=x.size)
        assert estimate_complexity_exponent(x, y) == pytest.approx(3.0, abs=0.2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 2.0])


class TestScaling:
    def test_weak_scaling_perfect(self):
        assert weak_scaling_efficiency([2.0, 2.0, 2.0]) == [1.0, 1.0, 1.0]

    def test_weak_scaling_degrading(self):
        eff = weak_scaling_efficiency([1.0, 2.0, 4.0])
        assert eff == [1.0, 0.5, 0.25]

    def test_weak_scaling_empty(self):
        assert weak_scaling_efficiency([]) == []

    def test_weak_scaling_invalid(self):
        with pytest.raises(ValueError):
            weak_scaling_efficiency([0.0, 1.0])

    def test_parallel_efficiency(self):
        eff = parallel_efficiency([8.0, 4.0, 2.0], [1, 2, 4])
        assert eff == [1.0, 1.0, 1.0]

    def test_parallel_efficiency_mismatch(self):
        with pytest.raises(ValueError):
            parallel_efficiency([1.0], [1, 2])

    def test_confidence_interval_contains_mean(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(10.0, 0.5, size=30)
        mean, lo, hi = confidence_interval(samples)
        assert lo < mean < hi
        assert mean == pytest.approx(np.mean(samples))

    def test_confidence_interval_single_sample(self):
        mean, lo, hi = confidence_interval([3.0])
        assert mean == lo == hi == 3.0

    def test_confidence_interval_constant_samples(self):
        mean, lo, hi = confidence_interval([2.0, 2.0, 2.0])
        assert mean == lo == hi == 2.0

    def test_confidence_interval_empty(self):
        with pytest.raises(ValueError):
            confidence_interval([])


def test_import_repro_leaves_scipy_stats_unloaded():
    """``scipy.stats`` is loaded by the first confidence interval, not by ``import repro``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, repro; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_repro_leaves_service_and_obs_unloaded():
    """The serving layer loads on first use of ``repro.SolverService``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, repro\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['repro', 'service'], ['repro', 'obs']))\n"
        "print(loaded())\n"
        "from repro import SolverService\n"
        "print(SolverService.__module__, 'repro.service' in loaded())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == ["[]", "repro.service.solver_service True"]


@pytest.mark.parametrize("module", ["repro.obs.exposition", "repro.experiments.serve_load"])
def test_module_runs_without_runpy_warning(module):
    """``python -m`` of a module its package re-exports must not warn that
    the module was imported before it ran (its package resolves it lazily)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout


def test_lazy_package_names_resolve():
    from repro import experiments, obs
    from repro.experiments.serve_load import drive_concurrent_clients
    from repro.obs.exposition import ExpositionError, parse_prometheus, render_prometheus

    assert experiments.drive_concurrent_clients is drive_concurrent_clients
    assert (obs.ExpositionError, obs.parse_prometheus, obs.render_prometheus) == (
        ExpositionError, parse_prometheus, render_prometheus,
    )
    assert {"drive_concurrent_clients"} <= set(experiments.__all__)
    assert {"ExpositionError", "parse_prometheus", "render_prometheus"} <= set(obs.__all__)
    with pytest.raises(AttributeError):
        obs.no_such_name

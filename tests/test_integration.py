"""End-to-end integration tests crossing all subsystems.

These exercise the complete pipeline the paper describes: geometry -> kernel
matrix -> HSS construction -> task-based ULV factorization -> solve, and the
comparison of the three codes on identical problems (accuracy side of Table 2),
plus the task-graph -> distribution -> simulation path (performance side of
Fig. 9-12).
"""

import numpy as np
import pytest
from harness import factorize_graph, recorded_factorize

from repro.analysis.errors import construction_error, solve_error
from repro.baselines.lorapo_like import blr_cholesky_factorize
from repro.baselines.strumpack_like import build_strumpack_hss, strumpack_factorize
from repro.core.hss_ulv import hss_ulv_factorize
from repro.formats.blr import build_blr
from repro.formats.hss import HSSStructure, build_hss
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import PAPER_KERNELS
from repro.runtime.machine import fugaku_like
from repro.runtime.simulator import simulate


class TestAccuracyPipeline:
    @pytest.mark.parametrize("kernel_name", list(PAPER_KERNELS))
    def test_three_codes_comparable_accuracy(self, kernel_name, rng):
        """All three codes reach good accuracy on the same problem (Table 2)."""
        n = 512
        points = uniform_grid_2d(n)
        kmat = KernelMatrix(PAPER_KERNELS[kernel_name], points)
        b = rng.standard_normal(n)

        hatrix_hss = build_hss(kmat, leaf_size=64, max_rank=30)
        hatrix = hss_ulv_factorize(hatrix_hss)
        strumpack_hss = build_strumpack_hss(kmat, leaf_size=64, max_rank=30, tol=1e-8)
        strumpack = strumpack_factorize(strumpack_hss)
        blr = build_blr(kmat, leaf_size=128, tol=1e-9)
        lorapo, _ = blr_cholesky_factorize(blr, tol=1e-11)

        for compressed, factor in (
            (hatrix_hss, hatrix),
            (strumpack_hss, strumpack),
            (blr, lorapo),
        ):
            # At this reduced size (N=512, rank 30) the construction error is
            # in the 1e-2..1e-6 range depending on the kernel; the paper-scale
            # errors are reproduced by the Table 2 benchmark.
            assert construction_error(kmat, compressed, b=b) < 5e-2
            assert solve_error(compressed, factor.solve, b=b) < 1e-6

    def test_hss_solution_solves_true_dense_system(self, rng):
        """The full pipeline produces a usable direct solver for the dense problem."""
        n = 1024
        points = uniform_grid_2d(n)
        kmat = KernelMatrix(PAPER_KERNELS["yukawa"], points)
        hss = build_hss(kmat, leaf_size=128, max_rank=50)
        factor, runtime = factorize_graph("hss", hss, nodes=8)
        runtime.validate()

        b = rng.standard_normal(n)
        x = factor.solve(b)
        residual = np.linalg.norm(kmat.matvec(x) - b) / np.linalg.norm(b)
        assert residual < 1e-5

    def test_rank_sweep_monotone_construction_error(self):
        """Table 2 trend: construction error decreases as the rank cap grows."""
        n = 512
        points = uniform_grid_2d(n)
        kmat = KernelMatrix(PAPER_KERNELS["laplace2d"], points)
        errors = []
        for rank in (8, 16, 32, 64):
            hss = build_hss(kmat, leaf_size=128, max_rank=rank, method="dense_rows")
            errors.append(construction_error(kmat, hss, n=n, seed=3))
        assert errors == sorted(errors, reverse=True) or errors[-1] < errors[0]


class TestPerformancePipeline:
    def test_weak_scaling_simulation_end_to_end(self):
        """Structure -> task graph -> distribution -> simulation, across node counts."""
        times = []
        for nodes in (2, 8, 32):
            n = 2048 * nodes
            structure = HSSStructure.synthetic(n, 512, 100)
            graph = recorded_factorize(structure, nodes=nodes).runtime.graph
            res = simulate(graph, fugaku_like(nodes), policy="async")
            times.append(res.makespan)
        # Weak scaling: time grows far slower than the 16x problem growth.
        assert times[-1] < times[0] * 8

    def test_recorded_graph_can_be_simulated(self, kmat_small):
        """The graph recorded during a real factorization feeds the simulator."""
        hss = build_hss(kmat_small, leaf_size=32, max_rank=16)
        _, runtime = factorize_graph("hss", hss, nodes=4)
        res = simulate(runtime.graph, fugaku_like(4), policy="async")
        assert res.makespan > 0
        assert res.num_tasks == runtime.num_tasks

    def test_structure_from_real_matrix_matches_synthetic_cost(self, kmat_medium):
        """Symbolic cost from a constructed HSS is close to the synthetic model."""
        hss = build_hss(kmat_medium, leaf_size=128, max_rank=40)
        real = recorded_factorize(HSSStructure.from_matrix(hss), nodes=4).runtime.graph.total_flops()
        synthetic = recorded_factorize(
            HSSStructure.synthetic(1024, 128, 40), nodes=4
        ).runtime.graph.total_flops()
        assert real <= synthetic * 1.1

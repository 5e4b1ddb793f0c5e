"""Tests for the STRUMPACK-like fork-join HSS-ULV baseline."""

import numpy as np
import pytest

from repro.baselines.strumpack_like import (
    build_strumpack_hss,
    build_strumpack_taskgraph,
    strumpack_factorize,
)
from repro.formats.hss import HSSStructure
from repro.pipeline.factorize import build_hss_ulv_taskgraph
from repro.runtime.machine import fugaku_like
from repro.runtime.simulator import simulate


class TestNumerics:
    def test_construction_and_solve(self, kmat_small, rng):
        hss = build_strumpack_hss(kmat_small, leaf_size=32, max_rank=24, tol=1e-8)
        factor = strumpack_factorize(hss)
        b = rng.standard_normal(kmat_small.n)
        x = factor.solve(hss.matvec(b))
        assert np.linalg.norm(x - b) / np.linalg.norm(b) < 1e-9

    def test_tolerance_construction_accuracy(self, kmat_small, dense_small, rng):
        hss = build_strumpack_hss(kmat_small, leaf_size=32, max_rank=32, tol=1e-8)
        b = rng.standard_normal(kmat_small.n)
        err = np.linalg.norm(dense_small @ b - hss.matvec(b)) / np.linalg.norm(dense_small @ b)
        assert err < 1e-5

    def test_same_algorithm_as_hatrix(self, kmat_small, rng):
        """STRUMPACK and HATRIX-DTD share the numerics; only scheduling differs."""
        from repro.core.hss_ulv import hss_ulv_factorize
        from repro.formats.hss import build_hss

        hss = build_hss(kmat_small, leaf_size=32, max_rank=24)
        b = rng.standard_normal(kmat_small.n)
        np.testing.assert_allclose(
            strumpack_factorize(hss).solve(b), hss_ulv_factorize(hss).solve(b), atol=1e-12
        )


class TestTaskGraph:
    def test_same_tasks_different_distribution(self):
        structure = HSSStructure.synthetic(8192, 256, 64)
        rt_hatrix = build_hss_ulv_taskgraph(structure, nodes=8)
        rt_strumpack = build_strumpack_taskgraph(structure, nodes=8)
        assert rt_hatrix.num_tasks == rt_strumpack.num_tasks
        assert rt_hatrix.graph.total_flops() == pytest.approx(rt_strumpack.graph.total_flops())
        owners_h = [h.owner for h in rt_hatrix.handles]
        owners_s = [h.owner for h in rt_strumpack.handles]
        assert owners_h != owners_s

    def test_forkjoin_simulation_has_mpi_time(self):
        structure = HSSStructure.synthetic(16384, 512, 100)
        graph = build_strumpack_taskgraph(structure, nodes=16).graph
        res = simulate(graph, fugaku_like(16), policy="forkjoin")
        assert res.total_mpi > 0
        assert res.mpi_time > 0

    def test_mpi_time_grows_with_nodes(self):
        """Fig. 10b: STRUMPACK's per-worker MPI time grows with the node count."""
        times = []
        for nodes, n in ((4, 8192), (32, 65536)):
            structure = HSSStructure.synthetic(n, 512, 100)
            graph = build_strumpack_taskgraph(structure, nodes=nodes).graph
            times.append(simulate(graph, fugaku_like(nodes), policy="forkjoin").mpi_time)
        assert times[1] > times[0]

"""Tests for the level-stacked ULV factors and kernels (repro.core.level_ulv).

The level kernels are the single implementation of the ULV substitution: the
sequential references and every task-graph backend call them, one chunk of a
level at a time.  Bit identity across backends rests on two numerical
properties pinned here by name -- a stacked ``np.matmul`` over transposed
views gives per-node ``A.T @ b`` bits, and the direct ``trtrs`` call gives
``scipy.linalg.solve_triangular`` bits -- so a numpy/BLAS/scipy upgrade that
breaks either fails here first.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.linalg

from repro.api import StructuredSolver
from repro.core.level_ulv import (
    LevelFactors,
    backward_level,
    forward_level,
    solve_triangular,
)


@pytest.fixture(scope="module")
def ragged():
    """An HSS factor at n=1000: leaves of 62 and 63 rows (two shape groups)."""
    solver = StructuredSolver.from_kernel("yukawa", n=1000, leaf_size=64, max_rank=30)
    return solver.factorize()


class TestKernelProperties:
    @pytest.mark.parametrize("k", [1, 16])
    def test_stacked_matmul_over_transposed_views_matches_per_slice(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((6, 40, 40))
        b = rng.standard_normal((6, 40, k))
        stacked = np.matmul(a.transpose(0, 2, 1), b)
        for j in range(6):
            assert np.array_equal(stacked[j], a[j].T @ b[j])
        # a contiguous sub-range of the stack (an owner chunk) too
        chunk = np.matmul(a[2:5].transpose(0, 2, 1), b[2:5])
        assert np.array_equal(chunk, stacked[2:5])
        plain = np.matmul(a, b)
        for j in range(6):
            assert np.array_equal(plain[j], a[j] @ b[j])

    @pytest.mark.parametrize("k", [1, 16])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lower", [True, False])
    def test_solve_triangular_matches_scipy_bits(self, k, order, lower):
        rng = np.random.default_rng(7)
        tri = np.tril if lower else np.triu
        a = np.asarray(tri(rng.standard_normal((30, 30))) + 30 * np.eye(30), order=order)
        b = rng.standard_normal((30, k))
        expected = scipy.linalg.solve_triangular(a, b, lower=lower)
        assert np.array_equal(solve_triangular(a, b, lower=lower), expected)

    def test_singular_triangle_raises(self):
        a = np.eye(3)
        a[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            solve_triangular(a, np.ones((3, 1)), lower=True)


class TestLevelFactors:
    def test_nodes_grouped_by_shape_without_padding(self):
        level = LevelFactors([187, 188, 187, 188], [40, 40, 40, 41])
        shapes = sorted((g.size, g.rank, g.nodes.tolist()) for g in level.groups)
        assert shapes == [(187, 40, [0, 2]), (188, 40, [1]), (188, 41, [3])]
        group = next(g for g in level.groups if g.size == 187)
        assert group.U.shape == (2, 187, 187)
        assert group.L_rr.shape == (2, 147, 147)
        assert group.L_sr.shape == (2, 40, 147)
        assert level.offsets.tolist() == [0, 187, 375, 562, 750]

    def test_rank_above_block_size_rejected(self):
        with pytest.raises(ValueError):
            LevelFactors([4], [5])

    def test_node_views_share_the_stacks(self, ragged):
        for (level, i), nf in ragged.node_factors.items():
            group = next(g for g in ragged.levels[level].groups if i in g.nodes)
            assert np.shares_memory(nf.U, group.U)
            assert np.shares_memory(nf.partial.L_rr, group.L_rr)

    def test_pickle_holds_the_stacks_only(self, ragged):
        ragged.node_factors  # populate the view cache
        blob = pickle.dumps(ragged)
        stacks = sum(
            g.U.nbytes + g.L_rr.nbytes + g.L_sr.nbytes + g.schur.nbytes
            for lf in ragged.levels.values()
            for g in lf.groups
        )
        structure = len(pickle.dumps(ragged.hss)) + ragged.root_chol.nbytes
        assert len(blob) < stacks + structure + 64 * 1024
        clone = pickle.loads(blob)
        b = np.random.default_rng(3).standard_normal(1000)
        assert np.array_equal(clone.solve(b), ragged.solve(b))
        assert np.array_equal(clone.node_factors[(1, 0)].U, ragged.node_factors[(1, 0)].U)


class TestChunkedKernels:
    @pytest.mark.parametrize("k", [1, 16])
    @pytest.mark.parametrize("bounds", [(0, 16), (0, 5, 16), (0, 3, 8, 11, 16)])
    def test_chunks_reproduce_the_whole_level(self, ragged, k, bounds):
        """Any split of a level into consecutive chunks gives the same bits."""
        level = ragged.levels[ragged.hss.max_level]
        w = np.random.default_rng(k).standard_normal((1000, k))
        z, s = forward_level(level, w)
        x = backward_level(level, z, s)  # any skeleton-shaped block will do
        pieces_s, pieces_x = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows = slice(level.offsets[lo], level.offsets[hi])
            srows = slice(level.skeleton_offsets[lo], level.skeleton_offsets[hi])
            zc, sc = forward_level(level, np.ascontiguousarray(w[rows]), lo, hi)
            pieces_s.append(sc)
            pieces_x.append(backward_level(level, zc, np.ascontiguousarray(s[srows]), lo, hi))
        assert np.array_equal(np.concatenate(pieces_s), s)
        assert np.array_equal(np.concatenate(pieces_x), x)


def _per_node_solve(factor, b):
    """The per-node loop the level kernels replaced, over the node views."""
    max_level = factor.hss.max_level
    leaves = [factor.hss.node(max_level, i) for i in range(2**max_level)]
    work = {(max_level, i): b[leaf.start : leaf.stop] for i, leaf in enumerate(leaves)}
    zs, ss = {}, {}
    for level in range(max_level, 0, -1):
        for i in range(2**level):
            nf = factor.node_factors[(level, i)]
            bhat = nf.U.T @ work[(level, i)]
            nr = nf.redundant_size
            zs[(level, i)] = scipy.linalg.solve_triangular(nf.partial.L_rr, bhat[:nr], lower=True)
            ss[(level, i)] = bhat[nr:] - nf.partial.L_sr @ zs[(level, i)]
        for k in range(2 ** (level - 1)):
            work[(level - 1, k)] = np.vstack([ss[(level, 2 * k)], ss[(level, 2 * k + 1)]])
    y = scipy.linalg.solve_triangular(factor.root_chol, work[(0, 0)], lower=True)
    sol = {(0, 0): scipy.linalg.solve_triangular(factor.root_chol.T, y, lower=False)}
    for level in range(1, max_level + 1):
        for i in range(2**level):
            nf = factor.node_factors[(level, i)]
            parent = sol[(level - 1, i // 2)]
            r_left = factor.node_factors[(level, 2 * (i // 2))].rank
            ys = parent[:r_left] if i % 2 == 0 else parent[r_left:]
            rhs = zs[(level, i)] - nf.partial.L_sr.T @ ys
            yr = scipy.linalg.solve_triangular(nf.partial.L_rr.T, rhs, lower=False)
            sol[(level, i)] = nf.U @ np.vstack([yr, ys])
    return np.vstack([sol[(max_level, i)] for i in range(2**max_level)])


class TestAgainstPerNodeLoop:
    def test_single_rhs_bit_identical(self, ragged):
        """At k = 1 the level kernels do the per-node arithmetic exactly."""
        b = np.random.default_rng(5).standard_normal((1000, 1))
        assert np.array_equal(ragged.solve(b), _per_node_solve(ragged, b))

    def test_block_rhs_within_rounding(self, ragged):
        """At k = 16 the operand layouts differ from the loop's, so only the
        rounding may differ."""
        b = np.random.default_rng(6).standard_normal((1000, 16))
        np.testing.assert_allclose(
            ragged.solve(b), _per_node_solve(ragged, b), rtol=1e-10, atol=1e-12
        )

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
from repro.formats.blr2 import BLR2Matrix
from repro.geometry.cluster_tree import ClusterNode, ClusterTree
from repro.core.blr2_ulv import blr2_ulv_factorize
from repro.core.level_ulv import (
    LevelFactors,
    backward_level,
    forward_level,
    solve_triangular,
    square_basis,
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
        assert group.V.shape == (2, 187, 40)
        assert group.T.shape == group.R.shape == (2, 40, 40)
        assert group.L_rr.shape == (2, 147, 147)
        assert group.L_sr.shape == (2, 40, 147)
        assert level.offsets.tolist() == [0, 187, 375, 562, 750]

    def test_rank_above_block_size_rejected(self):
        with pytest.raises(ValueError):
            LevelFactors([4], [5])

    def test_node_views_share_the_stacks(self, ragged):
        for (level, i), nf in ragged.node_factors.items():
            group = next(g for g in ragged.levels[level].groups if i in g.nodes)
            assert np.shares_memory(nf.V, group.V)
            assert np.shares_memory(nf.T, group.T)
            assert np.shares_memory(nf.R, group.R)
            assert np.shares_memory(nf.partial.L_rr, group.L_rr)

    def test_pickle_holds_the_stacks_only(self, ragged):
        ragged.node_factors  # populate the view cache
        blob = pickle.dumps(ragged)
        stacks = sum(
            stack.nbytes
            for lf in ragged.levels.values()
            for g in lf.groups
            for stack in g.stacks
        )
        structure = len(pickle.dumps(ragged.matrix)) + ragged.root_chol.nbytes
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
        level = ragged.levels[ragged.matrix.max_level]
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


def _per_node_solve(factor, b, rotate, unrotate):
    """The per-node loop the level kernels replaced, over the node views.

    ``rotate(nf, w)`` returns a node's ``(redundant, skeleton)`` rotated
    blocks and ``unrotate(nf, yr, ys)`` maps them back.
    """
    max_level = factor.matrix.max_level
    leaves = [factor.matrix.node(max_level, i) for i in range(2**max_level)]
    work = {(max_level, i): b[leaf.start : leaf.stop] for i, leaf in enumerate(leaves)}
    zs, ss = {}, {}
    for level in range(max_level, 0, -1):
        for i in range(2**level):
            nf = factor.node_factors[(level, i)]
            br, bs = rotate(nf, work[(level, i)])
            zs[(level, i)] = scipy.linalg.solve_triangular(nf.partial.L_rr, br, lower=True)
            ss[(level, i)] = bs - nf.partial.L_sr @ zs[(level, i)]
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
            sol[(level, i)] = unrotate(nf, yr, ys)
    return np.vstack([sol[(max_level, i)] for i in range(2**max_level)])


def _wy_rotate(nf, w):
    """``[Q_R Q_S R]^T w`` through the reflectors, as the level kernels apply it."""
    y = w - nf.V @ (nf.T.T @ (nf.V.T @ w))
    return y[nf.rank :], nf.R.T @ y[: nf.rank]


def _wy_unrotate(nf, yr, ys):
    u = np.vstack([nf.R @ ys, yr])
    return u - nf.V @ (nf.T @ (nf.V.T @ u))


def _explicit_rotate(nf, w):
    """``U^T w`` with the materialised square ``U = [U^R U^S]``."""
    bhat = nf.U.T @ w
    return bhat[: nf.redundant_size], bhat[nf.redundant_size :]


def _explicit_unrotate(nf, yr, ys):
    return nf.U @ np.vstack([yr, ys])


class TestAgainstPerNodeLoop:
    def test_single_rhs_bit_identical(self, ragged):
        """At k = 1 the level kernels do the per-node arithmetic exactly."""
        b = np.random.default_rng(5).standard_normal((1000, 1))
        assert np.array_equal(ragged.solve(b), _per_node_solve(ragged, b, _wy_rotate, _wy_unrotate))

    def test_block_rhs_within_rounding(self, ragged):
        """At k = 16 the operand layouts differ from the loop's, so only the
        rounding may differ."""
        b = np.random.default_rng(6).standard_normal((1000, 16))
        np.testing.assert_allclose(
            ragged.solve(b),
            _per_node_solve(ragged, b, _wy_rotate, _wy_unrotate),
            rtol=1e-10,
            atol=1e-12,
        )

    @pytest.mark.parametrize("k", [1, 16])
    def test_explicit_square_basis_solve_agrees(self, ragged, k):
        """An independent check: rotating with the materialised ``[U^R U^S]``
        instead of the reflectors solves the same system to rounding."""
        b = np.random.default_rng(7).standard_normal((1000, k))
        np.testing.assert_allclose(
            ragged.solve(b),
            _per_node_solve(ragged, b, _explicit_rotate, _explicit_unrotate),
            rtol=1e-10,
            atol=1e-12,
        )


# Relative residuals ||A x - b|| / ||b|| against the dense kernel matrix, for
# b = standard_normal(n) with seed 11, as the square-``U`` factorization that
# the compact-WY bases replaced computed them.  They are dominated by the
# compression error, which the bases do not change; the rotation itself may
# only move them by rounding.
CASES = {
    "hss_uniform": (dict(kernel_name="yukawa", n=1024, leaf_size=128, max_rank=40), 2.5342675950065475e-08),
    "hss_ragged": (dict(kernel_name="yukawa", n=1000, leaf_size=64, max_rank=30), 4.187313449157917e-08),
    "hss_tol": (
        dict(kernel_name="laplace", n=1024, leaf_size=128, max_rank=100, tol=1e-8),
        1.5683250211490089e-06,
    ),
    "blr2": (
        dict(kernel_name="yukawa", n=1024, leaf_size=128, max_rank=40, format="blr2"),
        3.190398270108027e-09,
    ),
    "hodlr": (
        dict(kernel_name="yukawa", n=1024, leaf_size=128, max_rank=20, format="hodlr"),
        2.5069944216101965e-09,
    ),
}


@pytest.fixture(scope="module")
def solvers():
    out = {}
    for name, (kwargs, _) in CASES.items():
        solver = StructuredSolver.from_kernel(**kwargs)
        solver.factorize()
        out[name] = solver
    return out


def _level_nodes(factor):
    """``(v, t, r, skeleton)`` of every node of a factor, for any format."""
    for (level, i), nf in factor.node_factors.items():
        yield nf.V, nf.T, nf.R, factor.matrix.node_basis(level, i)


class TestHouseholderBases:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_q_orthogonal_to_1e13_per_node(self, solvers, name):
        for v, t, _, _ in _level_nodes(solvers[name].factor):
            m = v.shape[0]
            q = np.eye(m) - v @ t @ v.T
            assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-13

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reflectors_reproduce_the_basis(self, solvers, name):
        """``Q_S R`` is the node's basis ``U^S`` to working precision."""
        for v, t, rr, skeleton in _level_nodes(solvers[name].factor):
            r = v.shape[1]
            q_s = (np.eye(v.shape[0]) - v @ t @ v.T)[:, :r]
            assert np.abs(q_s @ rr - skeleton).max() <= 1e-13
            assert np.array_equal(v[:r], np.eye(r) + np.tril(v[:r], -1))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_materialised_skeleton_columns_are_the_basis(self, solvers, name):
        factor = solvers[name].factor
        pairs = [
            (nf.U, nf.rank, factor.matrix.node_basis(level, i))
            for (level, i), nf in factor.node_factors.items()
        ]
        for u, r, skeleton in pairs:
            assert u.shape == (skeleton.shape[0],) * 2
            assert np.array_equal(u[:, u.shape[0] - r :], skeleton)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_residual_against_dense_matches_the_square_basis_reference(self, solvers, name):
        solver = solvers[name]
        a = solver.kernel_matrix.dense()
        b = np.random.default_rng(11).standard_normal(solver.n)
        x = solver.factor.solve(b)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert abs(residual - CASES[name][1]) <= 1e-12


def _projected_blr2(sizes, ranks, seed=0):
    """A BLR2 matrix cut from a dense SPD matrix with chosen block ranks.

    Block row ``i`` keeps its dense diagonal block; its off-diagonal blocks
    are projected onto a random orthonormal basis of rank ``ranks[i]``
    (``0`` drops the row's couplings, ``m`` keeps them whole).  Four rows
    sit on the leaves of a two-level cluster tree.
    """
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    g = rng.standard_normal((n, n))
    a = 0.1 * g @ g.T / n + np.eye(n)
    starts = [0] + [int(s) for s in np.cumsum(sizes)]
    leaves = [ClusterNode(2, i, lo, hi) for i, (lo, hi) in enumerate(zip(starts, starts[1:]))]
    mid = starts[2]
    halves = [ClusterNode(1, 0, 0, mid, children=leaves[:2]),
              ClusterNode(1, 1, mid, n, children=leaves[2:])]
    tree = ClusterTree(ClusterNode(0, 0, 0, n, children=halves))
    rows = [slice(leaf.start, leaf.stop) for leaf in leaves]
    bases = {
        i: np.linalg.qr(rng.standard_normal((m, r)))[0] if r else np.zeros((m, 0))
        for i, (m, r) in enumerate(zip(sizes, ranks))
    }
    return BLR2Matrix(
        tree=tree,
        diag={i: a[s, s].copy() for i, s in enumerate(rows)},
        bases=bases,
        couplings={
            (i, j): bases[i].T @ a[rows[i], rows[j]] @ bases[j]
            for i in range(len(sizes))
            for j in range(i)
        },
    )


class TestEdgeRanks:
    """Nodes with ``r = 0`` (no reflectors, ``Q = I``) and ``r = m`` (no
    redundant part) factor and solve."""

    @pytest.fixture(scope="class")
    def edge(self):
        system = _projected_blr2([9, 8, 10, 7], [0, 8, 3, 7], seed=4)
        return system, blr2_ulv_factorize(system)

    def test_factor_and_solve(self, edge):
        system, factor = edge
        a = system.to_dense()
        b = np.random.default_rng(2).standard_normal((system.n, 3))
        x = factor.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-13
        assert factor.logdet() == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12)

    def test_rank_zero_row_is_not_rotated(self, edge):
        system, factor = edge
        v, t, rr, part = factor.levels[2].node_views()[0]
        assert v.shape == (9, 0) and t.shape == rr.shape == (0, 0)
        assert np.array_equal(factor.node_factors[(2, 0)].U, np.eye(9))
        np.testing.assert_array_equal(part.L_rr, np.linalg.cholesky(system.diag[0]))

    def test_full_rank_row_has_no_redundant_part(self, edge):
        system, factor = edge
        v, t, rr, part = factor.levels[2].node_views()[1]
        assert v.shape == (8, 8) and part.L_rr.shape == (0, 0)
        q = np.eye(8) - v @ t @ v.T
        assert np.linalg.norm(q.T @ q - np.eye(8)) <= 1e-13
        np.testing.assert_allclose(q @ rr, system.bases[1], atol=1e-14)

    @pytest.mark.parametrize("m, r", [(256, 60), (120, 60), (9, 0), (9, 8), (9, 9)])
    def test_set_basis_is_the_square_basis_congruence(self, m, r):
        """The returned block is ``[Q_R U^S]^T D [Q_R U^S]``, redundant first,
        including the edge ranks r = 0, r = m - 1 and r = m."""
        rng = np.random.default_rng(m + r)
        skeleton = np.linalg.qr(rng.standard_normal((m, r)))[0] if r else np.zeros((m, 0))
        g = rng.standard_normal((m, m))
        d = g @ g.T / m + np.eye(m)
        level = LevelFactors([m], [r])
        a_hat = level.set_basis(0, skeleton, d)
        v, t, _, _ = level.node_views()[0]
        u = square_basis(v, t, skeleton)
        assert np.abs(u.T @ u - np.eye(m)).max() <= 1e-13
        np.testing.assert_allclose(a_hat, u.T @ d @ u, atol=1e-13)
        assert np.array_equal(a_hat[m - r :, : m - r], a_hat[: m - r, m - r :].T)

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
from harness import exact_hodlr_to_hss, reference_node_step

from repro.api import StructuredSolver
from repro.formats.blr2 import BLR2Matrix
from repro.geometry.cluster_tree import ClusterNode, ClusterTree
from repro.core.blr2_ulv import blr2_ulv_factorize
from repro.core.hss_ulv import hss_ulv_factorize, merge_children
from repro.core.partial_cholesky import NotPositiveDefinite, cholesky
from repro.formats.hss import HSSStructure
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format
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
# only move them by rounding.  The BLR2 and HODLR cases name ``method="svd"``:
# their values were computed with SVD bases, and the randomized default
# would move them by more than that rounding.  The HODLR value is that of
# the exact HSS form (``harness.exact_hodlr_to_hss``): the default conversion
# truncates at the HODLR's own error level, which also moves it by more.
CASES = {
    "hss_uniform": (dict(kernel_name="yukawa", n=1024, leaf_size=128, max_rank=40), 2.5342675950065475e-08),
    "hss_ragged": (dict(kernel_name="yukawa", n=1000, leaf_size=64, max_rank=30), 4.187313449157917e-08),
    "hss_tol": (
        dict(kernel_name="laplace", n=1024, leaf_size=128, max_rank=100, tol=1e-8),
        1.5683250211490089e-06,
    ),
    "blr2": (
        dict(kernel_name="yukawa", n=1024, leaf_size=128, max_rank=40, format="blr2", method="svd"),
        3.190398270108027e-09,
    ),
    "hodlr": (
        dict(kernel_name="yukawa", n=1024, leaf_size=128, max_rank=20, format="hodlr", method="svd"),
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
        factor = solver.factor
        if name == "hodlr":
            factor = hss_ulv_factorize(exact_hodlr_to_hss(solver.matrix))
        a = solver.kernel_matrix.dense()
        b = np.random.default_rng(11).standard_normal(solver.n)
        x = factor.solve(b)
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
        # The plain Cholesky of the block's lower triangle, as the node step
        # runs it: LAPACK's upper potrf of the column-major transpose.
        d = system.diag[0]
        np.testing.assert_array_equal(part.L_rr, scipy.linalg.cholesky(d.T).T)

    def test_full_rank_row_has_no_redundant_part(self, edge):
        system, factor = edge
        v, t, rr, part = factor.levels[2].node_views()[1]
        assert v.shape == (8, 8) and part.L_rr.shape == (0, 0)
        q = np.eye(8) - v @ t @ v.T
        assert np.linalg.norm(q.T @ q - np.eye(8)) <= 1e-13
        np.testing.assert_allclose(q @ rr, system.bases[1], atol=1e-14)

    @pytest.mark.parametrize("m, r", [(256, 60), (120, 60), (9, 0), (9, 8), (9, 9)])
    def test_set_basis_is_the_square_basis_congruence(self, m, r):
        """The returned block's lower triangle is ``Q^T D Q``, skeleton first;
        with ``R`` on its skeleton part it is ``[Q_R U^S]^T D [Q_R U^S]``,
        including the edge ranks r = 0, r = m - 1 and r = m."""
        rng = np.random.default_rng(m + r)
        skeleton = np.linalg.qr(rng.standard_normal((m, r)))[0] if r else np.zeros((m, 0))
        g = rng.standard_normal((m, m))
        d = g @ g.T / m + np.eye(m)
        level = LevelFactors([m], [r])
        rotated = level.set_basis(0, skeleton, d)
        v, t, rr, _ = level.node_views()[0]
        q = np.eye(m) - v @ t @ v.T
        np.testing.assert_allclose(np.tril(rotated), np.tril(q.T @ d @ q), atol=1e-13)
        u = square_basis(v, t, skeleton)
        assert np.abs(u.T @ u - np.eye(m)).max() <= 1e-13
        order = np.r_[r:m, :r]
        a_hat = (np.tril(rotated) + np.tril(rotated, -1).T)[np.ix_(order, order)]
        a_hat[:, m - r :] = a_hat[:, m - r :] @ rr
        a_hat[m - r :] = rr.T @ a_hat[m - r :]
        np.testing.assert_allclose(a_hat, u.T @ d @ u, atol=1e-13)


def _reference_factorize(matrix):
    """Every node's ``(V, T, R, L_rr, L_sr, schur)`` and the root Cholesky, from
    ``harness.reference_node_step`` walked in ``hss_ulv_factorize``'s order."""
    st = HSSStructure.from_matrix(matrix)
    diag = {(st.max_level, i): matrix.leaf_block(i) for i in range(2**st.max_level)}
    nodes = {}
    for level in st.levels:
        for i in range(2**level):
            nodes[(level, i)] = reference_node_step(
                matrix.node_basis(level, i), diag[(level, i)], level=level, node=i
            )
        for parent, k, children in st.merges(level):
            diag[(parent, k)] = merge_children(
                [nodes[(level, i)][5] for i in children],
                children,
                lambda i, j, level=level: matrix.node_coupling(level, i, j),
            )
    return nodes, cholesky(diag[(0, 0)], level=0, node=0)


def _factored_block(l_rr, l_sr, schur):
    """``[L_rr 0; L_sr I] diag(I, S) [L_rr 0; L_sr I]^T``: the redundant-first block a node's factors stand for."""
    nr, r = l_rr.shape[0], schur.shape[0]
    lower, middle = np.eye(nr + r), np.eye(nr + r)
    lower[:nr, :nr], lower[nr:, :nr] = l_rr, l_sr
    middle[nr:, nr:] = schur
    return lower @ middle @ lower.T


def _one_indefinite_row(row):
    """``_projected_blr2``'s edge-rank system with block row ``row`` shifted indefinite."""
    system = _projected_blr2([9, 8, 10, 7], [0, 8, 3, 7], seed=4)
    system.diag[row] = system.diag[row] - 1.1 * np.eye(system.diag[row].shape[0])
    return system


class TestNodeStep:
    """The one-BLAS-3-pass node step against the GEMM-and-copy reference."""

    @pytest.fixture(
        scope="class",
        params=[
            ("uniform", dict(kernel_name="yukawa", n=1024, leaf_size=128, max_rank=40)),
            ("ragged", dict(kernel_name="yukawa", n=1000, leaf_size=64, max_rank=30)),
            ("tol", dict(kernel_name="laplace", n=1024, leaf_size=128, max_rank=100, tol=1e-8)),
            ("blr2", dict(kernel_name="yukawa", n=1000, leaf_size=64, max_rank=30, format="blr2")),
        ],
        ids=lambda p: p[0],
    )
    def case(self, request):
        return StructuredSolver.from_kernel(**request.param[1]).matrix

    @staticmethod
    def _assert_factors_match(matrix, factor):
        """``V``, ``T``, ``R`` equal; ``L_rr``, the Schur complement and the block
        the node's factors stand for within 1e-13 of the reference, relative.

        ``L_sr`` alone is not compared entrywise: it is ``A_hat^SR L_rr^{-T}``,
        and ``A_hat^SR`` can be ~1e-7 of ``||A_hat||`` (a yukawa leaf), so both
        kernels carry the same rounding of ``||A_hat||`` at a larger relative size.
        """

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1e-300)

        nodes, root = _reference_factorize(matrix)
        for (level, i), ref in nodes.items():
            got = factor.levels[level].node_arrays(i)
            assert [a.shape for a in got] == [a.shape for a in ref]
            assert all(np.array_equal(a, b) for a, b in zip(got[:3], ref[:3]))
            assert close(got[3], ref[3]) and close(got[5], ref[5])
            assert close(_factored_block(*got[3:]), _factored_block(*ref[3:]))
        assert close(factor.root_chol, root)

    def test_factors_match_the_reference(self, case):
        self._assert_factors_match(case, hss_ulv_factorize(case))

    def test_edge_ranks_match_the_reference(self):
        system = _projected_blr2([9, 8, 10, 7], [0, 8, 3, 7], seed=4)
        ranks = set(HSSStructure.from_matrix(system).rank(2, i) for i in range(4))
        assert {0, 8, 7} <= ranks  # r = 0 and r = m (rows 1 and 3)
        self._assert_factors_match(system, blr2_ulv_factorize(system))

    @pytest.mark.parametrize("backend", ["off", "deferred", "parallel"])
    def test_indefinite_leaf_names_the_reference_pivot(self, backend):
        system = _one_indefinite_row(2)
        with pytest.raises(NotPositiveDefinite) as ref:
            _reference_factorize(system)
        assert (ref.value.level, ref.value.node) == (2, 2) and ref.value.index > 0
        spec = get_format("blr2")
        with pytest.raises(NotPositiveDefinite) as err:
            if backend == "off":
                spec.factorize(system)
            else:
                spec.factorize_dtd(system, policy=ExecutionPolicy(backend=backend, n_workers=2))
        got = err.value
        assert (got.level, got.node, got.index) == (ref.value.level, ref.value.node, ref.value.index)
        assert got.pivot == pytest.approx(ref.value.pivot, rel=1e-10)

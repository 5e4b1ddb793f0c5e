"""Regression tests for the right-hand-side validation helpers.

The solvers must accept Fortran-ordered and non-contiguous RHS views (the
normalization copies only when needed) and reject 0-column blocks with a
clear error instead of producing an empty 'solution'."""

import numpy as np
import pytest

from repro.api import StructuredSolver
from repro.core.rhs import check_rhs_shape, validate_rhs


class TestValidateRhsLayouts:
    def test_fortran_ordered_matrix(self):
        b = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        bm, single = validate_rhs(b, 4)
        assert not single
        assert bm.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(bm, b)
        assert not np.shares_memory(bm, b)

    def test_non_contiguous_column_view(self):
        base = np.arange(32.0).reshape(4, 8)
        b = base[:, ::2]  # strided view
        assert not b.flags["C_CONTIGUOUS"]
        bm, _ = validate_rhs(b, 4)
        assert bm.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(bm, b)
        assert not np.shares_memory(bm, base)

    def test_transposed_view(self):
        base = np.arange(12.0).reshape(3, 4)
        bm, _ = validate_rhs(base.T, 4)
        np.testing.assert_array_equal(bm, base.T)
        assert not np.shares_memory(bm, base)

    def test_contiguous_input_still_copied(self):
        b = np.ones((4, 2))
        bm, _ = validate_rhs(b, 4)
        assert not np.shares_memory(bm, b)
        bm[0, 0] = 42.0  # the working copy must never alias the caller's array
        assert b[0, 0] == 1.0

    def test_vector_and_dtype_conversion(self):
        bm, single = validate_rhs([1, 2, 3, 4], 4)
        assert single
        assert bm.shape == (4, 1) and bm.dtype == np.float64

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="0 columns"):
            validate_rhs(np.empty((4, 0)), 4)
        with pytest.raises(ValueError, match="0 columns"):
            check_rhs_shape(np.empty((4, 0)), 4)

    def test_wrong_shapes_still_rejected(self):
        with pytest.raises(ValueError, match="4 rows"):
            validate_rhs(np.ones(5), 4)
        with pytest.raises(ValueError, match="3-D"):
            validate_rhs(np.ones((4, 1, 1)), 4)

    def test_complex_rejected_not_truncated(self):
        # a float64 cast would keep [1, 3, 4, 5] and only warn
        with pytest.raises(ValueError, match="real-valued"):
            validate_rhs(np.array([1 + 2j, 3, 4, 5]), 4)
        with pytest.raises(ValueError, match="complex128"):
            validate_rhs(np.ones((4, 2), dtype=np.complex128), 4)

    @pytest.mark.parametrize(
        "b", [np.array(["1", "2", "3", "4"]), np.array([1.0, 2.0, 3.0, 4.0], dtype=object)]
    )
    def test_non_numeric_rejected(self, b):
        with pytest.raises(ValueError, match="real-valued"):
            validate_rhs(b, 4)

    def test_bool_and_integer_accepted(self):
        bm, _ = validate_rhs(np.array([True, False, True, True]), 4)
        assert bm.dtype == np.float64 and bm[:, 0].tolist() == [1.0, 0.0, 1.0, 1.0]


class TestSolversAcceptAnyLayout:
    @pytest.fixture(scope="class")
    def solver(self):
        return StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=24)

    def test_fortran_rhs_matches_c_rhs(self, solver):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((256, 4))
        x_c = solver.solve(b)
        x_f = solver.solve(np.asfortranarray(b))
        np.testing.assert_array_equal(x_c, x_f)
        x_g = solver.solve(b, use_runtime="deferred")
        np.testing.assert_array_equal(x_c, x_g)

    def test_strided_rhs_matches_dense_rhs(self, solver):
        rng = np.random.default_rng(1)
        wide = rng.standard_normal((256, 8))
        view = wide[:, ::2]
        np.testing.assert_array_equal(solver.solve(view), solver.solve(view.copy()))

    def test_zero_column_rhs_clear_error(self, solver):
        with pytest.raises(ValueError, match="0 columns"):
            solver.solve(np.empty((256, 0)))


class TestCompressPathAcceptsAnyLayout:
    """The RHS invariants must hold for solvers built through the task-graph
    compression subsystem exactly as for the sequentially compressed ones."""

    @pytest.fixture(scope="class")
    def graph_solver(self):
        return StructuredSolver.from_kernel(
            "yukawa", n=256, leaf_size=64, max_rank=24,
            compress_runtime="parallel", compress_workers=2,
        )

    @pytest.fixture(scope="class")
    def plain_solver(self):
        return StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=24)

    def test_fortran_rhs_matches_c_rhs(self, graph_solver, plain_solver):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((256, 4))
        x = graph_solver.solve(b)
        np.testing.assert_array_equal(x, graph_solver.solve(np.asfortranarray(b)))
        # graph-compressed and sequentially compressed pipelines agree bitwise
        np.testing.assert_array_equal(x, plain_solver.solve(b))

    def test_strided_rhs_matches_dense_rhs(self, graph_solver):
        rng = np.random.default_rng(3)
        wide = rng.standard_normal((256, 8))
        view = wide[:, ::2]
        np.testing.assert_array_equal(graph_solver.solve(view), graph_solver.solve(view.copy()))
        x_graph_backend = graph_solver.solve(view, use_runtime="deferred")
        np.testing.assert_array_equal(x_graph_backend, graph_solver.solve(view.copy()))

    def test_zero_column_rhs_clear_error(self, graph_solver):
        with pytest.raises(ValueError, match="0 columns"):
            graph_solver.solve(np.empty((256, 0)))
        with pytest.raises(ValueError, match="0 columns"):
            graph_solver.solve(np.empty((256, 0)), use_runtime="parallel")


class TestNonFiniteRhs:
    """The level kernels skip per-call finiteness scans, so a NaN/Inf right-hand
    side must be rejected once, at entry, on every format and backend."""

    @pytest.fixture(scope="class", params=["hss", "blr2", "hodlr"])
    def solver(self, request):
        solver = StructuredSolver.from_kernel(
            "yukawa", n=256, format=request.param, leaf_size=64, max_rank=20
        )
        solver.factorize()
        return solver

    @pytest.mark.parametrize("backend", ["off", "deferred", "parallel"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_rejected_with_value_error(self, solver, backend, bad, k):
        b = np.ones(256 if k == 1 else (256, k))
        b[17] = bad
        with pytest.raises(ValueError, match="finite"):
            solver.solve(b, use_runtime=backend, n_workers=2)
        # a clean right-hand side still solves afterwards (plans survive)
        b[17] = 1.0
        x = solver.solve(b, use_runtime=backend, n_workers=2)
        assert np.array_equal(x, solver.factor.solve(b))

    @pytest.mark.parametrize("backend", ["off", "deferred"])
    def test_complex_rejected_on_every_path(self, solver, backend):
        b = np.ones(256, dtype=np.complex128)
        b[3] = 1j
        with pytest.raises(ValueError, match="real-valued"):
            solver.solve(b, use_runtime=backend)

    def test_validate_rhs_names_the_argument(self):
        with pytest.raises(ValueError, match="rhs must be finite"):
            validate_rhs(np.array([1.0, np.nan]), 2, name="rhs")


class TestNonFiniteFactor:
    def test_factor_check_rejects_nan(self):
        solver = StructuredSolver.from_kernel("yukawa", n=256, leaf_size=64, max_rank=20)
        factor = solver.factorize()
        factor.check_finite()
        factor.levels[1].groups[0].L_sr[0, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            factor.check_finite()

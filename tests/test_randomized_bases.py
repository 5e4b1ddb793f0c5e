"""The randomized range finder as BLR2's and HODLR's default compressor.

Both non-nested formats default to a seeded randomized SVD
(:func:`repro.lowrank.rsvd.rsvd`); ``"svd"`` stays the verification path.
These tests pin what the default must keep:

* every execution backend builds bases, couplings and low-rank factors
  bit-identical to the sequential build with the same seed;
* the seed reaches every build path, the facade's included;
* each BLR2 row basis and the HODLR root block stay within 1.1x of the
  SVD-optimal Frobenius error at the same rank;
* methods outside each format's choices are refused by name;
* a BLR2 build evaluates each kernel entry once, its couplings are the
  per-block ``U_i^T A_ij U_j``, and no sketch or projection outlives it.
"""

from __future__ import annotations

import inspect
import os
import threading
import tracemalloc

import numpy as np
import pytest

from repro.api import StructuredSolver
from repro.compress.verify import assert_compressed_identical
from repro.formats import blr2 as f_blr2
from repro.formats import hodlr as f_hodlr
from repro.geometry.points import uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
from repro.lowrank.qr import row_basis
from repro.lowrank.rsvd import GaussianSketches
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="forked backends require fork (POSIX)"
)

SEED = 3
FORMATS = ("blr2", "hodlr")
#: Uniform leaves (512 / 64) and ragged ones (500 / 64: 62- and 63-row leaves).
SIZES = ((512, 64), (500, 64))
#: A rank cap alone, and a tolerance with no cap (the sketch spans the row).
RANKS = (dict(max_rank=24, tol=None), dict(max_rank=None, tol=1e-6))
POLICIES = {
    "deferred": dict(backend="deferred"),
    "parallel": dict(backend="parallel", n_workers=2),
    "process": pytest.param(dict(backend="process", n_workers=2), marks=needs_fork),
    "distributed": pytest.param(dict(backend="distributed", nodes=2), marks=needs_fork),
}


def _kmat(n, kernel="yukawa"):
    return KernelMatrix(kernel_by_name(kernel), uniform_grid_2d(n))


def _build(fmt, kmat, leaf, ranks, policy=None):
    spec = get_format(fmt)
    kwargs = dict(leaf_size=leaf, method=None, seed=SEED, **ranks)
    if policy is None:
        return spec.build(kmat, **kwargs)
    return spec.compress_graph(kmat, policy=ExecutionPolicy(**policy), **kwargs)[0]


class TestDefaults:
    def test_both_formats_default_to_rsvd(self):
        assert f_blr2.DEFAULT_METHOD == "rsvd"
        assert f_hodlr.DEFAULT_METHOD == "rsvd"
        assert f_blr2.METHODS == ("svd", "rsvd")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_registry_default_is_the_seeded_rsvd_build(self, fmt):
        kmat = _kmat(512)
        default = _build(fmt, kmat, 64, RANKS[0])
        if fmt == "blr2":
            named = f_blr2.build_blr2(kmat, leaf_size=64, max_rank=24, basis_method="rsvd", seed=SEED)
        else:
            named = f_hodlr.build_hodlr(kmat, leaf_size=64, max_rank=24, method="rsvd", seed=SEED)
        assert_compressed_identical(fmt, default, named)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_seed_reaches_the_sequential_build(self, fmt):
        kmat = _kmat(512)
        spec = get_format(fmt)
        a = spec.build(kmat, leaf_size=64, max_rank=24, seed=SEED)
        b = spec.build(kmat, leaf_size=64, max_rank=24, seed=SEED + 1)
        assert not np.array_equal(a.to_dense(), b.to_dense())


class TestCrossBackendBitIdentity:
    @pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
    @pytest.mark.parametrize("ranks", RANKS, ids=["max_rank", "tol"])
    @pytest.mark.parametrize("size", SIZES, ids=["uniform", "ragged"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_graph_build_matches_sequential(self, fmt, size, ranks, policy):
        n, leaf = size
        kmat = _kmat(n)
        reference = _build(fmt, kmat, leaf, ranks)
        assert_compressed_identical(fmt, reference, _build(fmt, kmat, leaf, ranks, policy))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_facade_graph_compression_forwards_the_seed(self, fmt):
        kwargs = dict(n=512, format=fmt, leaf_size=64, max_rank=24, seed=SEED)
        base = StructuredSolver.from_kernel("yukawa", **kwargs)
        graph = StructuredSolver.from_kernel(
            "yukawa", compress_runtime="parallel", compress_workers=2, **kwargs
        )
        assert graph.compress_runtime is not None
        assert_compressed_identical(fmt, base.matrix, graph.matrix)
        b = np.random.default_rng(5).standard_normal(512)
        assert np.array_equal(base.solve(b), graph.solve(b))


ACCURACY_CASES = [
    (kernel, n, leaf, rank)
    for kernel in ("yukawa", "laplace", "gaussian")
    for n, leaf, rank in ((2048, 256, 60), (1024, 128, 40), (512, 64, 24))
]


def _excess(a, approx, rank):
    """Frobenius error of ``approx`` over the SVD-optimal error at ``rank``."""
    s = np.linalg.svd(a, compute_uv=False)
    return np.linalg.norm(a - approx) / np.sqrt(np.sum(s[rank:] ** 2))


class TestAccuracyAgainstSVD:
    @pytest.mark.parametrize("kernel,n,leaf,rank", ACCURACY_CASES)
    def test_blr2_row_bases_near_optimal(self, kernel, n, leaf, rank):
        kmat = _kmat(n, kernel)
        matrix = f_blr2.build_blr2(kmat, leaf_size=leaf, max_rank=rank, seed=SEED)
        for i, leaf_node in enumerate(matrix.tree.leaves):
            far = np.r_[0 : leaf_node.start, leaf_node.stop : n]
            row = kmat.block(slice(leaf_node.start, leaf_node.stop), far)
            u = matrix.bases[i]
            assert u.shape[1] == rank
            assert _excess(row, u @ (u.T @ row), rank) <= 1.1

    @pytest.mark.parametrize("kernel,n,leaf,rank", ACCURACY_CASES)
    def test_hodlr_root_block_near_optimal(self, kernel, n, leaf, rank):
        kmat = _kmat(n, kernel)
        root = f_hodlr.build_hodlr(kmat, leaf_size=leaf, max_rank=rank, seed=SEED).root
        left, right = root.left, root.right
        block = kmat.block(slice(left.start, left.stop), slice(right.start, right.stop))
        assert root.upper.rank == rank
        assert _excess(block, root.upper.to_dense(), rank) <= 1.1


class TestRefusedMethods:
    def test_row_basis_refuses_qr(self):
        with pytest.raises(ValueError, match="'svd' or 'rsvd'"):
            row_basis(np.ones((4, 6)), method="qr")

    def test_blr2_refuses_qr_on_every_path(self):
        kmat = _kmat(256)
        with pytest.raises(ValueError, match=r"\('svd', 'rsvd'\)"):
            f_blr2.build_blr2(kmat, leaf_size=64, basis_method="qr")
        with pytest.raises(ValueError, match=r"\('svd', 'rsvd'\)"):
            get_format("blr2").compress_graph(
                kmat, leaf_size=64, max_rank=24, method="qr",
                policy=ExecutionPolicy(backend="deferred"),
            )

    def test_hodlr_names_its_choices(self):
        with pytest.raises(ValueError, match=r"\('svd', 'rsvd', 'aca'\)"):
            f_hodlr.build_hodlr(_kmat(256), leaf_size=64, method="qr")


def _blr2_build(kmat, backend, leaf, max_rank):
    if backend == "off":
        return f_blr2.build_blr2(kmat, leaf_size=leaf, max_rank=max_rank, seed=SEED)
    policy = ExecutionPolicy(backend=backend, n_workers=2)
    return get_format("blr2").compress_graph(
        kmat, leaf_size=leaf, max_rank=max_rank, seed=SEED, policy=policy
    )[0]


class TestBLR2EvaluatesEachEntryOnce:
    @pytest.mark.parametrize("backend", ["off", "parallel"])
    @pytest.mark.parametrize(
        "n,leaf", [(2048, 256), (2000, 256), (1000, 100)], ids=["n2048", "n2000", "ragged"]
    )
    def test_kernel_entries_are_n_squared(self, n, leaf, backend, monkeypatch):
        kmat = _kmat(n)
        entries, lock = [0], threading.Lock()
        block = KernelMatrix.block

        def counted(self, rows, cols):
            out = block(self, rows, cols)
            with lock:
                entries[0] += out.size
            return out

        monkeypatch.setattr(KernelMatrix, "block", counted)
        matrix = _blr2_build(kmat, backend, leaf, 60)
        assert matrix.nblocks in (8, 16)
        assert entries[0] == n * n

    @pytest.mark.parametrize("method", f_blr2.METHODS)
    @pytest.mark.parametrize("n,leaf", [(1024, 128), (1000, 100)], ids=["uniform", "ragged"])
    def test_couplings_are_the_per_block_projections(self, n, leaf, method):
        kmat = _kmat(n)
        matrix = f_blr2.build_blr2(kmat, leaf_size=leaf, max_rank=40, basis_method=method, seed=SEED)
        leaves = matrix.tree.leaves
        for (i, j), s in matrix.couplings.items():
            block = kmat.block(matrix.block_range(i), matrix.block_range(j))
            ref = matrix.bases[i].T @ block @ matrix.bases[j]
            assert j < i and s.shape == ref.shape
            assert np.linalg.norm(s - ref) <= 1e-13 * np.linalg.norm(ref)
        assert len(matrix.couplings) == len(leaves) * (len(leaves) - 1) // 2


def _live_bytes(snapshot, func, lines=None):
    """Bytes still allocated by ``func``'s source lines (or just ``lines`` of it)."""
    source, first = inspect.getsourcelines(func)
    filename = inspect.getsourcefile(func)
    span = set(range(first, first + len(source))) if lines is None else set(lines)
    return sum(
        trace.size
        for trace in snapshot.traces
        if trace.traceback[0].filename == filename and trace.traceback[0].lineno in span
    )


def _projection_lines():
    """The line(s) of :func:`~repro.formats.blr2.shared_basis` that allocate ``P_i``."""
    source, first = inspect.getsourcelines(f_blr2.shared_basis)
    return [first + k for k, line in enumerate(source) if "block_row[:, :" in line]


class TestBLR2ScratchIsDropped:
    def test_filters_see_live_scratch(self):
        """Positive control: a kept sketch and a kept projection are counted."""
        kmat = _kmat(512)
        leaf = f_blr2.build_blr2(kmat, leaf_size=64, max_rank=24).tree.leaves[3]
        tracemalloc.start()
        try:
            sketches = GaussianSketches()
            _, projection = f_blr2.shared_basis(kmat, leaf, 24, None, "rsvd", SEED, sketches)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert _live_bytes(snapshot, GaussianSketches.get) >= 8 * (512 - 64) * 34
        assert _live_bytes(snapshot, f_blr2.shared_basis, _projection_lines()) >= projection.nbytes

    def test_no_sketch_or_projection_survives_a_parallel_compress(self):
        kmat = _kmat(1024)
        tracemalloc.start()
        try:
            matrix, runtime = get_format("blr2").compress_graph(
                kmat, leaf_size=128, max_rank=40, seed=SEED,
                policy=ExecutionPolicy(backend="parallel", n_workers=2),
            )
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert runtime.num_tasks and matrix.nblocks == 8
        assert _live_bytes(snapshot, GaussianSketches.get) == 0
        assert _live_bytes(snapshot, f_blr2.shared_basis, _projection_lines()) == 0

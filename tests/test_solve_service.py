"""Tests for the caching/batching SolverService (repro.service)."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.api import StructuredSolver
from repro.service import FactorKey, SolverService

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="distributed backend requires fork (POSIX)"
)

KEY = dict(kernel="yukawa", n=256, leaf_size=64, max_rank=20)


@pytest.fixture()
def service():
    return SolverService(backend="parallel", n_workers=2)


def _rhs(k: int, seed: int = 0, n: int = 256) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n if k == 1 else (n, k))


def _reference_solver() -> StructuredSolver:
    return StructuredSolver.from_kernel(
        KEY["kernel"], n=KEY["n"], leaf_size=KEY["leaf_size"], max_rank=KEY["max_rank"]
    )


class TestFactorKey:
    def test_make_normalizes_params(self):
        a = FactorKey.make("matern", 256, leaf_size=64, max_rank=20, sigma=2.0, nu=0.5)
        b = FactorKey.make("matern", 256, leaf_size=64, max_rank=20, nu=0.5, sigma=2.0)
        assert a == b and hash(a) == hash(b)

    def test_distinct_problems_distinct_keys(self):
        base = FactorKey.make("yukawa", 256, leaf_size=64, max_rank=20)
        assert base != FactorKey.make("yukawa", 512, leaf_size=64, max_rank=20)
        assert base != FactorKey.make("yukawa", 256, leaf_size=32, max_rank=20)
        assert base != FactorKey.make("laplace2d", 256, leaf_size=64, max_rank=20)


class TestCaching:
    def test_factorization_cached_across_flushes(self, service):
        service.solve(_rhs(1), **KEY)
        service.solve(_rhs(1, seed=1), **KEY)
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == 1
        assert service.cached_keys == [FactorKey.make(**KEY)]

    def test_cache_hits_replay_the_recorded_solve_graph(self, service):
        """flush() goes through solver.solve, so later batches of a width replay."""
        solver = _reference_solver()
        for seed in range(3):
            b = _rhs(1, seed=seed)
            assert np.array_equal(service.solve(b, **KEY), solver.solve(b))
        metrics = service.metrics()
        assert (metrics["solve_plan_records"], metrics["solve_plan_replays"]) == (1, 2)
        assert "repro_solve_plan_replays_total" in service.render_prometheus()

    def test_distinct_keys_get_distinct_factorizations(self, service):
        service.solve(_rhs(1), **KEY)
        service.solve(_rhs(1, n=128), kernel="yukawa", n=128, leaf_size=32, max_rank=16)
        assert service.stats.cache_misses == 2
        assert len(service.cached_keys) == 2

    def test_lru_eviction(self):
        service = SolverService(backend="reference", max_cached=1)
        service.solve(_rhs(1), **KEY)
        service.solve(_rhs(1, n=128), kernel="yukawa", n=128, leaf_size=32, max_rank=16)
        assert service.stats.evictions == 1
        assert len(service.cached_keys) == 1
        # the first key was evicted: solving it again re-factorizes
        service.solve(_rhs(1), **KEY)
        assert service.stats.cache_misses == 3

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="backend"):
            SolverService(backend="gpu")
        with pytest.raises(ValueError, match="max_cached"):
            SolverService(max_cached=0)

    def test_reference_backend_rejects_taskgraph_knobs(self):
        with pytest.raises(ValueError, match="panel_size"):
            SolverService(backend="reference", panel_size=4)
        with pytest.raises(ValueError, match="distribution"):
            SolverService(backend="reference", distribution="row")


class TestBatching:
    def test_flush_batches_same_key(self, service):
        tickets = [service.submit(_rhs(1, seed=s), **KEY) for s in range(4)]
        assert service.pending == 4
        done = service.flush()
        assert done == tickets and service.pending == 0
        # one factorization, one batched graph solve for all four requests
        assert service.stats.batches == 1
        assert service.stats.solves == 4

    def test_batched_results_match_unbatched_accuracy(self, service):
        solver = _reference_solver()
        tickets = [service.submit(_rhs(1, seed=s), **KEY) for s in range(3)]
        service.flush()
        for s, ticket in enumerate(tickets):
            x_ref = solver.solve(_rhs(1, seed=s))
            np.testing.assert_allclose(ticket.result, x_ref, rtol=1e-10, atol=1e-12)

    def test_ticket_results_do_not_alias(self, service):
        """Mutating one ticket's result must not corrupt its batch-mates."""
        t1 = service.submit(_rhs(1), **KEY)
        t2 = service.submit(_rhs(1, seed=1), **KEY)
        service.flush()
        expected = t2.result.copy()
        t1.result[:] = 0.0
        np.testing.assert_array_equal(t2.result, expected)

    def test_mixed_width_requests(self, service):
        t1 = service.submit(_rhs(1), **KEY)
        t2 = service.submit(_rhs(3, seed=1), **KEY)
        service.flush()
        assert t1.result.shape == (256,)
        assert t2.result.shape == (256, 3)
        assert service.stats.solves == 4

    @pytest.mark.parametrize("k", (1, 4, 16))
    def test_same_batch_is_bit_identical_across_backends(self, k):
        B = _rhs(k)
        results = {}
        for backend in ("reference", "sequential", "parallel"):
            service = SolverService(backend=backend, n_workers=2)
            results[backend] = service.solve(B, **KEY)
        ref = results.pop("reference")
        for backend, x in results.items():
            assert np.array_equal(x, ref), backend
        # and the served solution is at direct-solver accuracy
        matvec = service.solver_for(FactorKey.make(**KEY)).matvec
        residual = np.linalg.norm(matvec(ref) - B) / np.linalg.norm(B)
        assert residual < 1e-10

    def test_ticket_unresolved_until_flush(self, service):
        ticket = service.submit(_rhs(1), **KEY)
        assert not ticket.done
        with pytest.raises(RuntimeError, match="flush"):
            ticket.result
        service.flush()
        assert ticket.done

    def test_submit_validates_shape(self, service):
        with pytest.raises(ValueError, match="rows"):
            service.submit(_rhs(1, n=100), **KEY)

    def test_submit_requires_explicit_n(self, service):
        """n is never inferred from b: a mis-sized RHS must not silently
        factorize (and cache) a wrong-size problem."""
        with pytest.raises(TypeError, match="n"):
            service.submit(_rhs(1), kernel="yukawa", leaf_size=64, max_rank=20)

    def test_failed_flush_resolves_tickets_with_error(self):
        """A failing batch resolves its tickets with the error -- no retry loop.

        The old behaviour re-queued the poisoned ticket at the head of the
        queue, so one bad request retried forever and head-of-line blocked
        everything behind it.  Now the ticket is resolved exactly once, with
        the batch's exception, and the queue drains.
        """
        service = SolverService(backend="parallel", n_workers=2, distribution="bogus")
        ticket = service.submit(_rhs(1), **KEY)
        done = service.flush()  # must not raise -- the error lands on the ticket
        assert done == [ticket]
        assert ticket.done
        assert isinstance(ticket.error, ValueError)
        assert service.pending == 0
        assert service.stats.errors == 1
        with pytest.raises(ValueError, match="unknown distribution"):
            ticket.result
        # a second flush is a no-op: the failed ticket was not re-queued
        assert service.flush() == []

    def test_failed_key_does_not_poison_other_keys(self):
        """Tickets for healthy keys in the same flush still get solved."""
        service = SolverService(backend="sequential")
        bad = service.submit(_rhs(1), **KEY)
        good = service.submit(_rhs(1, n=128), kernel="yukawa", n=128,
                              leaf_size=32, max_rank=16)
        # Poison only the first key's cached entry.
        service.solver_for(bad.key)
        service._cache[bad.key].matrix = SolverService(backend="reference").solver_for(
            FactorKey.make(kernel="yukawa", n=128, leaf_size=32, max_rank=16)
        ).matrix
        service.flush()
        assert bad.done and isinstance(bad.error, RuntimeError)
        assert good.done and good.error is None
        ref = SolverService(backend="reference").solve(
            _rhs(1, n=128), kernel="yukawa", n=128, leaf_size=32, max_rank=16
        )
        np.testing.assert_allclose(good.result, ref, rtol=1e-11, atol=1e-13)

    def test_panel_size_forwarded(self):
        service = SolverService(backend="parallel", n_workers=2, panel_size=2)
        x = service.solve(_rhs(6), **KEY)
        ref = SolverService(backend="reference").solve(_rhs(6), **KEY)
        np.testing.assert_allclose(x, ref, rtol=1e-11, atol=1e-13)

    def test_refine_service(self):
        service = SolverService(backend="sequential", refine=True)
        x = service.solve(_rhs(1), **KEY)
        solver = _reference_solver()
        b = _rhs(1)
        residual = np.linalg.norm(solver.kernel_matrix.matvec(x) - b) / np.linalg.norm(b)
        assert residual < 1e-10


@needs_fork
class TestDistributedService:
    def test_distributed_backend_matches_reference(self):
        B = _rhs(4)
        x_dist = SolverService(backend="distributed", nodes=2).solve(B, **KEY)
        x_ref = SolverService(backend="reference").solve(B, **KEY)
        assert np.array_equal(x_dist, x_ref)


class TestStats:
    def test_throughput_counters(self, service):
        for s in range(3):
            service.submit(_rhs(1, seed=s), **KEY)
        service.flush()
        stats = service.stats
        assert stats.requests == 3
        assert stats.solves == 3
        assert stats.solve_seconds > 0
        assert stats.factor_seconds > 0
        assert stats.solves_per_sec > 0

    def test_queue_wait_observed_once_per_ticket(self, service):
        assert service.metrics()["queue_wait"]["count"] == 0
        assert "repro_service_queue_wait_seconds_count 0" in service.render_prometheus()
        tickets = [service.submit(_rhs(1, seed=s), **KEY) for s in range(3)]
        assert all(t.submitted_at <= tickets[-1].submitted_at for t in tickets)
        service.flush()
        service.flush()  # an empty flush takes no ticket and observes nothing
        summary = service.metrics()["queue_wait"]
        assert summary["count"] == 3
        assert summary["min"] >= 0.0
        assert "repro_service_queue_wait_seconds_count 3" in service.render_prometheus()

    def test_repr(self, service):
        assert "SolverService" in repr(service)
        service.submit(_rhs(1), **KEY)
        assert "pending=1" in repr(service)


class TestCompressCaching:
    """A FactorKey cache hit must skip re-compression and re-factorization."""

    def test_miss_runs_compress_and_factorize_graphs(self):
        service = SolverService(backend="parallel", n_workers=2, compress_runtime="parallel")
        service.solve(_rhs(1), **KEY)
        assert service.stats.cache_misses == 1
        assert service.stats.compress_tasks > 0
        assert service.stats.factor_tasks > 0
        solver = service.solver_for(FactorKey.make(**KEY))
        # the miss executed every recorded task, per the ExecutionReport
        report = solver.compress_runtime.last_parallel_report
        assert len(report.executed) == solver.compress_runtime.num_tasks > 0
        report = solver.factorize_runtime.last_parallel_report
        assert len(report.executed) == solver.factorize_runtime.num_tasks > 0

    def test_cache_hit_runs_zero_compress_or_factorize_tasks(self):
        """Regression: flush() re-validates per key, never re-compresses."""
        service = SolverService(backend="parallel", n_workers=2, compress_runtime="parallel")
        service.solve(_rhs(1), **KEY)
        solver = service.solver_for(FactorKey.make(**KEY))
        compress_rt, factorize_rt = solver.compress_runtime, solver.factorize_runtime
        counts = (service.stats.compress_tasks, service.stats.factor_tasks)
        compress_report = compress_rt.last_parallel_report

        # several same-key tickets in one flush: one batch, still zero new tasks
        for s in range(3):
            service.submit(_rhs(1, seed=s + 10), **KEY)
        service.flush()

        assert service.stats.cache_hits >= 1
        assert (service.stats.compress_tasks, service.stats.factor_tasks) == counts
        cached = service.solver_for(FactorKey.make(**KEY))
        # the same runtimes (and reports) -- no compression/factorization re-ran
        assert cached.compress_runtime is compress_rt
        assert cached.factorize_runtime is factorize_rt
        assert compress_rt.last_parallel_report is compress_report
        assert len(compress_report.executed) == compress_rt.num_tasks

    def test_compress_runtime_results_bit_identical(self):
        B = _rhs(4)
        x_graph = SolverService(
            backend="parallel", n_workers=2, compress_runtime="parallel"
        ).solve(B, **KEY)
        x_ref = SolverService(backend="reference").solve(B, **KEY)
        assert np.array_equal(x_graph, x_ref)

    def test_corrupt_cache_fails_loudly(self):
        service = SolverService(backend="sequential")
        ticket = service.submit(_rhs(1), **KEY)
        key = ticket.key
        service.solver_for(key)  # warm the cache
        service._cache[key].matrix = SolverService(backend="reference").solver_for(
            FactorKey.make(kernel="yukawa", n=128, leaf_size=32, max_rank=16)
        ).matrix  # poison: cached entry no longer matches its key
        service.flush()
        with pytest.raises(RuntimeError, match="cache is corrupt"):
            ticket.result


class TestConcurrency:
    """submit()/flush() from many threads: no lost or duplicate resolutions."""

    def test_submit_and_pending_do_not_wait_for_a_cold_build(self):
        # The HTTP event loop calls both while an executor thread builds a
        # factorization under the service lock; if they waited for it, the
        # server could neither answer nor shed load for the whole build.
        entered, gate = threading.Event(), threading.Event()

        class HeldBuild(SolverService):
            def _build_and_cache(self, key):
                entered.set()
                assert gate.wait(60), "the test never opened the gate"
                return super()._build_and_cache(key)

        service = HeldBuild(backend="sequential")
        builder = threading.Thread(
            target=service.solver_for, args=(FactorKey.make(**KEY),)
        )
        seen = []

        def submit_and_count():
            service.submit(_rhs(1), **KEY)
            seen.append(service.pending)

        caller = threading.Thread(target=submit_and_count)
        builder.start()
        try:
            assert entered.wait(30)
            caller.start()
            caller.join(10)
            assert not caller.is_alive(), "submit()/pending blocked on the build"
            assert seen == [1]
        finally:
            gate.set()
            builder.join(60)
            caller.join(60)
        assert not builder.is_alive()
        service.flush()
        assert service.stats.cache_misses == 1

    def test_concurrent_submit_flush_hammer(self):
        service = SolverService(backend="sequential", max_cached=2)
        keys = [
            dict(kernel="yukawa", n=128, leaf_size=32, max_rank=16),
            dict(kernel="laplace2d", n=128, leaf_size=32, max_rank=16),
            dict(kernel="yukawa", n=64, leaf_size=16, max_rank=12),
        ]
        # Warm every key so the hammer exercises the hit path + LRU churn
        # (3 keys > max_cached=2) rather than serialized factorizations.
        for k in keys:
            service.solve(_rhs(1, n=k["n"]), **k)
        n_threads, per_thread = 4, 8
        tickets = [[] for _ in range(n_threads)]
        stop = threading.Event()
        errors = []

        def submitter(slot):
            try:
                for i in range(per_thread):
                    k = keys[(slot + i) % len(keys)]
                    tickets[slot].append(
                        service.submit(_rhs(1, seed=slot * 100 + i, n=k["n"]), **k)
                    )
            except Exception as exc:  # pragma: no cover - fail the test below
                errors.append(exc)

        def flusher():
            while not stop.is_set():
                try:
                    service.flush()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        flush_threads = [threading.Thread(target=flusher) for _ in range(2)]
        submit_threads = [
            threading.Thread(target=submitter, args=(s,)) for s in range(n_threads)
        ]
        for t in flush_threads + submit_threads:
            t.start()
        for t in submit_threads:
            t.join()
        # Drain whatever the racing flushers have not picked up yet.
        service.flush()
        stop.set()
        for t in flush_threads:
            t.join()
        assert not errors, errors
        assert service.pending == 0
        flat = [t for slot in tickets for t in slot]
        assert len(flat) == n_threads * per_thread
        assert all(t.done and t.error is None for t in flat)
        # No duplicate or lost resolutions: every ticket matches its own
        # reference solve exactly once.
        refs = {}
        for slot in range(n_threads):
            for i, ticket in enumerate(tickets[slot]):
                k = keys[(slot + i) % len(keys)]
                kk = tuple(sorted(k.items()))
                if kk not in refs:
                    refs[kk] = SolverService(backend="reference")
                x_ref = refs[kk].solve(_rhs(1, seed=slot * 100 + i, n=k["n"]), **k)
                np.testing.assert_allclose(
                    ticket.result, x_ref, rtol=1e-10, atol=1e-12
                )
        # Cache-size invariant: pins released, capacity restored.
        assert len(service.cached_keys) <= service.max_cached
        # +len(keys): the warm-up solves count as requests/solves too.
        assert service.stats.requests == n_threads * per_thread + len(keys)
        assert service.stats.solves == n_threads * per_thread + len(keys)


class TestEvictionPinning:
    def test_queued_key_is_not_evicted(self):
        """LRU eviction must skip keys with unresolved tickets queued."""
        service = SolverService(backend="reference", max_cached=1)
        service.solve(_rhs(1), **KEY)  # cache holds KEY (oldest)
        pinned_key = FactorKey.make(**KEY)
        service.submit(_rhs(1, seed=1), **KEY)  # pin it with a queued ticket
        # A different problem misses and would normally evict KEY (the LRU
        # victim); the pin forces a temporary overflow instead.
        other = dict(kernel="yukawa", n=128, leaf_size=32, max_rank=16)
        service.solver_for(FactorKey.make(**other))
        assert pinned_key in service.cached_keys
        assert len(service.cached_keys) == 2  # temporary overflow, no eviction
        assert service.stats.evictions == 0
        misses = service.stats.cache_misses
        service.flush()  # serves the pinned key: must be a hit, not a rebuild
        assert service.stats.cache_misses == misses
        assert service.stats.cache_hits >= 1
        # Pin released: capacity restored, one true eviction counted.
        assert len(service.cached_keys) == 1
        assert service.stats.evictions == 1


class TestTTL:
    def test_ttl_expiry(self):
        service = SolverService(backend="reference", ttl_seconds=10.0)
        service.solve(_rhs(1), **KEY)
        key = FactorKey.make(**KEY)
        stamp = service._stamps[key]
        assert service.purge_expired(now=stamp + 5.0) == []
        assert service.purge_expired(now=stamp + 11.0) == [key]
        assert service.cached_keys == []
        assert service.stats.expirations == 1
        assert service.stats.evictions == 0  # expiry is not an eviction

    def test_ttl_skips_pinned_keys(self):
        service = SolverService(backend="reference", ttl_seconds=10.0)
        service.solve(_rhs(1), **KEY)
        key = FactorKey.make(**KEY)
        service.submit(_rhs(1, seed=1), **KEY)
        assert service.purge_expired(now=service._stamps[key] + 100.0) == []
        service.flush()
        assert service.purge_expired(now=service._stamps[key] + 100.0) == [key]

    def test_ttl_disabled_by_default(self):
        service = SolverService(backend="reference")
        service.solve(_rhs(1), **KEY)
        assert service.purge_expired(now=float("inf")) == []
        assert len(service.cached_keys) == 1

    def test_invalid_ttl(self):
        with pytest.raises(ValueError, match="ttl_seconds"):
            SolverService(ttl_seconds=-1.0)


class TestPersistence:
    def test_round_trip_serves_cache_hits(self, tmp_path):
        """save -> restart -> load must serve hits with zero graph tasks."""
        path = tmp_path / "factors.bin"
        first = SolverService(
            backend="parallel", n_workers=2, compress_runtime="parallel"
        )
        x_before = first.solve(_rhs(1), **KEY)
        assert first.save_cache(path) == 1

        # A fresh process: new service, no cache, no compression run yet.
        second = SolverService(
            backend="parallel", n_workers=2, compress_runtime="parallel"
        )
        assert second.load_cache(path) == 1
        assert second.cached_keys == [FactorKey.make(**KEY)]
        x_after = second.solve(_rhs(1), **KEY)
        # Cache hit: zero compression/factorization graph tasks executed.
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits == 1
        assert second.stats.compress_tasks == 0
        assert second.stats.factor_tasks == 0
        # And the persisted factorization solves bit-identically.
        np.testing.assert_array_equal(x_after, x_before)

    def test_corrupt_file_fails_loudly(self, tmp_path):
        path = tmp_path / "factors.bin"
        service = SolverService(backend="reference")
        service.solve(_rhs(1), **KEY)
        service.save_cache(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # truncate
        fresh = SolverService(backend="reference")
        with pytest.raises(ValueError, match="checksum"):
            fresh.load_cache(path)
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(ValueError, match="magic"):
            fresh.load_cache(path)
        assert fresh.cached_keys == []

    @staticmethod
    def _refused_before_unpickling(tmp_path, monkeypatch, magic):
        """Save a snapshot, restamp it with ``magic`` and check it is refused.

        The file is otherwise well formed -- a valid checksum over a valid
        blob -- so only the version byte stops it, and nothing is unpickled.
        """
        from repro.service import persistence

        assert persistence.MAGIC == b"RPSC\x09"
        path = tmp_path / "factors.bin"
        service = SolverService(backend="reference")
        service.solve(_rhs(1), **KEY)
        service.save_cache(path)
        path.write_bytes(magic + path.read_bytes()[len(persistence.MAGIC) :])
        unpickled = []
        monkeypatch.setattr(persistence.pickle, "loads", lambda *a, **k: unpickled.append(a))
        fresh = SolverService(backend="reference")
        with pytest.raises(ValueError, match="bad magic"):
            fresh.load_cache(path)
        assert unpickled == []
        assert fresh.cached_keys == []

    def test_previous_layout_refused_before_unpickling(self, tmp_path, monkeypatch):
        """A layout-2 snapshot (square ``U`` stacks) is refused by its magic."""
        self._refused_before_unpickling(tmp_path, monkeypatch, b"RPSC\x02")

    def test_layout_3_refused_before_unpickling(self, tmp_path, monkeypatch):
        """A layout-3 snapshot (HODLR entries pickled as leaf-view factors) is refused."""
        self._refused_before_unpickling(tmp_path, monkeypatch, b"RPSC\x03")

    def test_layout_4_refused_before_unpickling(self, tmp_path, monkeypatch):
        """A layout-4 snapshot (BLR2 entries pickled as leaf-ULV factors) is refused."""
        self._refused_before_unpickling(tmp_path, monkeypatch, b"RPSC\x04")

    def test_layout_5_refused_before_unpickling(self, tmp_path, monkeypatch):
        """A layout-5 snapshot (BLR2/HODLR factors built from SVD bases) is refused."""
        self._refused_before_unpickling(tmp_path, monkeypatch, b"RPSC\x05")

    def test_layout_6_refused_before_unpickling(self, tmp_path, monkeypatch):
        """A layout-6 snapshot (HODLR factors of the exact HSS form) is refused."""
        self._refused_before_unpickling(tmp_path, monkeypatch, b"RPSC\x06")

    def test_layout_7_refused_before_unpickling(self, tmp_path, monkeypatch):
        """A layout-7 snapshot (BLR2 couplings from a second kernel evaluation) is refused."""
        self._refused_before_unpickling(tmp_path, monkeypatch, b"RPSC\x07")

    def test_layout_8_refused_before_unpickling(self, tmp_path, monkeypatch):
        """A layout-8 snapshot (factors of the GEMM-and-copy node step) is refused."""
        self._refused_before_unpickling(tmp_path, monkeypatch, b"RPSC\x08")

    def test_hodlr_snapshot_stores_leaf_blocks_once(self, tmp_path):
        """A HODLR factor's leaf blocks are the HODLR's own, before and after a reload."""
        key = dict(KEY, format="hodlr")
        path = tmp_path / "factors.bin"
        service = SolverService(backend="reference")
        x_before = service.solve(_rhs(1), **key)
        service.save_cache(path)
        fresh = SolverService(backend="reference")
        assert fresh.load_cache(path) == 1
        solver = fresh.solver_for(FactorKey.make(**key))
        hss = solver.factor.matrix

        def leaves(node):
            return [node] if node.is_leaf else leaves(node.left) + leaves(node.right)

        for i, leaf in enumerate(leaves(solver.matrix.root)):
            assert hss.node(hss.max_level, i).D is leaf.dense
        np.testing.assert_array_equal(fresh.solve(_rhs(1), **key), x_before)

    def test_load_respects_capacity(self, tmp_path):
        path = tmp_path / "factors.bin"
        big = SolverService(backend="reference", max_cached=4)
        big.solve(_rhs(1), **KEY)
        big.solve(_rhs(1, n=128), kernel="yukawa", n=128, leaf_size=32, max_rank=16)
        assert big.save_cache(path) == 2
        small = SolverService(backend="reference", max_cached=1)
        assert small.load_cache(path) == 2
        assert len(small.cached_keys) == 1  # evicted down to capacity

    def test_snapshot_does_not_grow_with_level_stacks(self, tmp_path):
        """The factors are pickled once, as level stacks, never also as node views.

        The reference size is the same snapshot with the factor in the
        per-node layout (one array per node factor, no stacks).
        """
        import pickle
        import zlib

        path = tmp_path / "factors.bin"
        service = SolverService(backend="reference")
        service.solve(_rhs(1), **KEY)
        service.save_cache(path)
        solver = service.solver_for(FactorKey.make(**KEY))
        factor = solver.factor
        assert factor.node_factors  # the view cache is populated
        per_node = {
            "hss": factor.matrix,
            "root_chol": factor.root_chol,
            "node_factors": {
                key: (nf.V.copy(), nf.T.copy(), nf.R.copy(), nf.rank,
                      nf.partial.L_rr.copy(), nf.partial.L_sr.copy(),
                      nf.partial.schur_ss.copy())
                for key, nf in factor.node_factors.items()
            },
        }
        entry = {
            "kernel_matrix": solver.kernel_matrix, "matrix": solver.matrix,
            "factor": per_node, "format": solver.format,
        }
        per_node_blob = zlib.compress(
            pickle.dumps({FactorKey.make(**KEY): entry}, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert path.stat().st_size <= len(per_node_blob) * 1.01

"""Tests for the HTTP serving stack: server, auth, rate limits, persistence."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.exposition import parse_prometheus
from repro.service import (
    Authenticator,
    SolverHTTPServer,
    SolverService,
    TokenBucket,
)
from repro.service.auth import AuthError, RateLimited

KEY = dict(kernel="yukawa", n=256, leaf_size=64, max_rank=20)


def _rhs(seed: int = 0, n: int = 256) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def _solve_doc(seed: int = 0, **overrides) -> dict:
    doc = {"b": _rhs(seed).tolist(), **KEY}
    doc.update(overrides)
    return doc


def _request(base, path, doc=None, method=None, headers=None):
    """(status, parsed-JSON-or-text) for one request; errors return their status."""
    data = json.dumps(doc).encode() if doc is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method or ("POST" if doc else "GET"),
        headers=headers or {},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            raw = resp.read()
            status = resp.status
            content_type = resp.headers.get("Content-Type", "")
            resp_headers = dict(resp.headers)
    except urllib.error.HTTPError as err:
        raw = err.read()
        status = err.code
        content_type = err.headers.get("Content-Type", "")
        resp_headers = dict(err.headers)
    if content_type.startswith("application/json"):
        return status, json.loads(raw), resp_headers
    return status, raw.decode(), resp_headers


@pytest.fixture()
def server():
    service = SolverService(backend="sequential", panel_size=1)
    srv = SolverHTTPServer(service, flush_interval=0.01, request_timeout=60.0)
    srv.start_in_thread()
    yield srv
    srv.shutdown()
    srv.join(10)


@pytest.fixture()
def base(server):
    return f"http://{server.host}:{server.port}"


class TestEndpoints:
    def test_healthz(self, base):
        status, doc, _ = _request(base, "/healthz")
        assert status == 200 and doc == {"status": "ok"}

    def test_solve_bit_identical_to_reference(self, base):
        status, doc, _ = _request(base, "/v1/solve", _solve_doc())
        assert status == 200
        x = np.asarray(doc["x"])
        ref = SolverService(backend="reference").solve(_rhs(), **KEY)
        np.testing.assert_array_equal(x, ref)

    def test_submit_and_poll_ticket(self, base):
        status, doc, _ = _request(base, "/v1/submit", _solve_doc(seed=1))
        assert status == 202 and doc["status"] == "pending"
        ticket_id = doc["id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, doc, _ = _request(base, f"/v1/tickets/{ticket_id}")
            assert status == 200
            if doc["status"] != "pending":
                break
            time.sleep(0.02)
        assert doc["status"] == "done"
        ref = SolverService(backend="reference").solve(_rhs(seed=1), **KEY)
        np.testing.assert_array_equal(np.asarray(doc["x"]), ref)
        # a claimed ticket is gone
        status, doc, _ = _request(base, f"/v1/tickets/{ticket_id}")
        assert status == 404

    def test_unknown_ticket_404(self, base):
        status, _, _ = _request(base, "/v1/tickets/no-such-ticket")
        assert status == 404

    def test_bad_request_payloads(self, base):
        status, doc, _ = _request(base, "/v1/solve", {"kernel": "yukawa"})
        assert status == 400 and "missing field" in doc["error"]
        req = urllib.request.Request(
            base + "/v1/solve", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        # mis-sized b must not factorize a wrong-size problem
        status, doc, _ = _request(
            base, "/v1/solve", {"b": [1.0] * 100, **KEY}
        )
        assert status == 400

    def test_unknown_route_and_method(self, base):
        status, _, _ = _request(base, "/v2/nothing")
        assert status == 404
        status, _, _ = _request(base, "/healthz", method="POST", doc={})
        assert status == 405

    def test_solve_error_reported(self, base):
        status, doc, _ = _request(
            base, "/v1/solve", _solve_doc(kernel="no-such-kernel")
        )
        assert status == 400

    def test_stats_endpoint(self, base):
        _request(base, "/v1/solve", _solve_doc())
        status, doc, _ = _request(base, "/v1/stats")
        assert status == 200
        assert doc["solves"] >= 1
        assert doc["backend"] == "sequential"

    def test_metrics_strict_parse_and_http_series(self, base):
        _request(base, "/v1/solve", _solve_doc())
        status, text, headers = _request(base, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = parse_prometheus(text)
        assert "repro_service_solves_total" in families
        assert "repro_http_requests_total" in families
        assert "repro_http_request_seconds" in families
        # the replay hit rate an operator needs: one recording, then replays
        _request(base, "/v1/solve", _solve_doc())
        families = parse_prometheus(_request(base, "/metrics")[1])
        assert "repro_solve_plan_records_total" in families
        assert "repro_solve_plan_replays_total" in families


class TestAdmissionControl:
    def test_auth_required_when_tenants_configured(self):
        auth = Authenticator.from_dict(
            {"tenants": [
                {"name": "alice", "api_key": "alice-key"},
                {"name": "bob", "api_key": "bob-key", "rate": 1000},
            ]}
        )
        service = SolverService(backend="sequential", panel_size=1)
        srv = SolverHTTPServer(service, flush_interval=0.01, auth=auth)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            status, _, _ = _request(base, "/v1/solve", _solve_doc())
            assert status == 401
            status, _, _ = _request(
                base, "/v1/solve", _solve_doc(),
                headers={"x-api-key": "wrong"},
            )
            assert status == 401
            status, _, _ = _request(
                base, "/v1/solve", _solve_doc(),
                headers={"x-api-key": "alice-key"},
            )
            assert status == 200
            # Authorization: Bearer works too
            status, _, _ = _request(
                base, "/v1/solve", _solve_doc(),
                headers={"Authorization": "Bearer bob-key"},
            )
            assert status == 200
            # health and metrics stay open for probes/scrapes
            assert _request(base, "/healthz")[0] == 200
            assert _request(base, "/metrics")[0] == 200
            # tickets are tenant-scoped: bob cannot claim alice's ticket
            status, doc, _ = _request(
                base, "/v1/submit", _solve_doc(seed=3),
                headers={"x-api-key": "alice-key"},
            )
            assert status == 202
            status, _, _ = _request(
                base, f"/v1/tickets/{doc['id']}",
                headers={"x-api-key": "bob-key"},
            )
            assert status == 404
            status, _, _ = _request(
                base, f"/v1/tickets/{doc['id']}",
                headers={"x-api-key": "alice-key"},
            )
            assert status == 200
        finally:
            srv.shutdown()
            srv.join(10)

    def test_rate_limit_429_with_retry_after(self):
        auth = Authenticator(default_rate=1.0, default_burst=2.0)
        service = SolverService(backend="sequential", panel_size=1)
        srv = SolverHTTPServer(service, flush_interval=0.01, auth=auth)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            statuses = []
            for seed in range(4):  # burst of 2, then limited
                status, _, headers = _request(
                    base, "/v1/submit", _solve_doc(seed=seed)
                )
                statuses.append((status, headers))
            codes = [s for s, _ in statuses]
            assert codes.count(202) == 2
            assert codes.count(429) == 2
            retry_after = next(h for s, h in statuses if s == 429)["Retry-After"]
            assert float(retry_after) > 0
        finally:
            srv.shutdown()
            srv.join(10)

    def test_backpressure_503_with_retry_after(self):
        service = SolverService(backend="sequential", panel_size=1)
        # Long flush window so submits pile up; tiny queue.
        srv = SolverHTTPServer(service, flush_interval=5.0, max_pending=2)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            codes = []
            for seed in range(4):
                status, _, headers = _request(
                    base, "/v1/submit", _solve_doc(seed=seed)
                )
                codes.append(status)
            assert codes.count(202) == 2
            assert codes.count(503) == 2
            assert float(headers["Retry-After"]) > 0
        finally:
            srv.shutdown()
            srv.join(10)


class TestServerPersistence:
    def test_restart_serves_cache_hits(self, tmp_path):
        path = tmp_path / "factors.bin"
        service = SolverService(backend="sequential", panel_size=1)
        srv = SolverHTTPServer(service, flush_interval=0.01, cache_path=path)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        status, doc, _ = _request(base, "/v1/solve", _solve_doc())
        assert status == 200
        x_before = np.asarray(doc["x"])
        srv.shutdown()
        srv.join(10)
        assert path.exists()

        fresh = SolverService(backend="sequential", panel_size=1)
        srv2 = SolverHTTPServer(fresh, flush_interval=0.01, cache_path=path)
        srv2.start_in_thread()
        base = f"http://{srv2.host}:{srv2.port}"
        try:
            status, doc, _ = _request(base, "/v1/solve", _solve_doc())
            assert status == 200
            np.testing.assert_array_equal(np.asarray(doc["x"]), x_before)
            # restart never refactorized: pure cache hit
            assert fresh.stats.cache_misses == 0
            assert fresh.stats.cache_hits == 1
        finally:
            srv2.shutdown()
            srv2.join(10)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        t = 100.0
        assert bucket.try_acquire(now=t) == 0.0
        assert bucket.try_acquire(now=t) == 0.0
        assert bucket.try_acquire(now=t) == 0.0
        wait = bucket.try_acquire(now=t)
        assert wait == pytest.approx(0.5)
        # half a second later one token has accrued
        assert bucket.try_acquire(now=t + 0.5) == 0.0
        assert bucket.try_acquire(now=t + 0.5) > 0

    def test_bucket_never_exceeds_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        t = 0.0
        bucket.try_acquire(now=t)
        # a long idle period must not bank more than `burst` tokens
        assert bucket.try_acquire(now=t + 100.0) == 0.0
        assert bucket.try_acquire(now=t + 100.0) == 0.0
        assert bucket.try_acquire(now=t + 100.0) > 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)


class TestAuthenticator:
    def test_open_mode(self):
        auth = Authenticator()
        assert auth.open
        tenant = auth.authenticate(None)
        assert tenant.name == "anonymous"
        auth.admit(tenant)  # unlimited: never raises

    def test_closed_mode(self):
        auth = Authenticator.from_dict(
            {"tenants": [{"name": "a", "api_key": "k", "rate": 1, "burst": 1}]}
        )
        assert not auth.open
        with pytest.raises(AuthError):
            auth.authenticate(None)
        with pytest.raises(AuthError):
            auth.authenticate("nope")
        tenant = auth.authenticate("k")
        auth.admit(tenant, now=0.0)
        with pytest.raises(RateLimited) as err:
            auth.admit(tenant, now=0.0)
        assert err.value.retry_after > 0

    def test_bad_config(self):
        with pytest.raises(ValueError, match="api_key"):
            Authenticator.from_dict({"tenants": [{"name": "x"}]})
        with pytest.raises(ValueError, match="duplicate"):
            Authenticator.from_dict(
                {"tenants": [
                    {"name": "a", "api_key": "k"},
                    {"name": "b", "api_key": "k"},
                ]}
            )

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(
            {"tenants": [{"name": "a", "api_key": "secret"}]}
        ))
        auth = Authenticator.from_file(path)
        assert auth.authenticate("secret").name == "a"

"""Tests for the HTTP serving stack: server, auth, rate limits, persistence."""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import NotPositiveDefinite
from repro.experiments.serve_load import drive_concurrent_clients
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


def _reference(seed: int = 0) -> np.ndarray:
    return SolverService(backend="reference").solve(_rhs(seed), **KEY)


def _poll_ticket(base, ticket_id, headers=None) -> dict:
    """Poll a ticket until it leaves ``pending`` (the claim removes it)."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, doc, _ = _request(base, f"/v1/tickets/{ticket_id}", headers=headers)
        assert status == 200, doc
        if doc["status"] != "pending":
            return doc
        time.sleep(0.01)
    raise AssertionError(f"ticket {ticket_id} still pending after 60 s")


def _raw_exchange(srv, request: bytes) -> bytes:
    """Send raw bytes, return everything the server answers until it closes."""
    with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class GatedService(SolverService):
    """A service a test can hold inside a flush, and hook at a flush's end.

    ``solver_for`` runs inside ``flush`` *after* the queue has been taken, so
    parking there is "a flush is running": ``entered`` is set once the flush
    is there and it goes on when the test sets ``gate``.  ``after_flush`` is
    called in the flushing thread once a flush has solved everything it took,
    before the server's flush loop gets control back.
    """

    def __init__(self, *, held: bool = True, backend: str = "sequential") -> None:
        super().__init__(backend=backend, n_workers=2, panel_size=1)
        self.entered = threading.Event()
        self.gate = threading.Event()
        if not held:
            self.gate.set()
        self.after_flush = None

    def solver_for(self, key):
        self.entered.set()
        assert self.gate.wait(60), "the test never opened the gate"
        return super().solver_for(key)

    def flush(self):
        flushed = super().flush()
        if self.after_flush is not None:
            self.after_flush()
        return flushed


class FailingService(GatedService):
    """A service whose every flush fails with ``error`` where it would factorize."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(held=False)
        self.error = error

    def solver_for(self, key):
        raise self.error


def _stop(srv) -> None:
    srv.shutdown()
    srv.join(10)
    assert not srv._thread.is_alive()


@pytest.fixture()
def server():
    service = SolverService(backend="sequential", panel_size=1)
    srv = SolverHTTPServer(service, request_timeout=60.0)
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
        np.testing.assert_array_equal(np.asarray(doc["x"]), _reference())

    def test_submit_and_poll_ticket(self, base):
        status, doc, _ = _request(base, "/v1/submit", _solve_doc(seed=1))
        assert status == 202 and doc["status"] == "pending"
        ticket_id = doc["id"]
        doc = _poll_ticket(base, ticket_id)
        assert doc["status"] == "done"
        np.testing.assert_array_equal(np.asarray(doc["x"]), _reference(seed=1))
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

    @pytest.mark.parametrize(
        "error, status",
        [
            (ValueError("bad right-hand side"), 400),
            (TypeError("not a number"), 400),
            (np.linalg.LinAlgError("singular block"), 422),
            (NotPositiveDefinite(3, -0.25, 2, 1), 422),
            (RuntimeError("worker died"), 500),
        ],
    )
    def test_failed_solve_status_follows_the_error(self, error, status):
        service = FailingService(error)
        srv = SolverHTTPServer(service, request_timeout=60.0)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            code, doc, headers = _request(base, "/v1/solve", _solve_doc())
            assert code == status
            assert headers["Content-Type"].startswith("application/json")
            assert str(error) in doc["error"]
            # the failure is the request's, not the server's
            assert _request(base, "/healthz")[0] == 200
        finally:
            _stop(srv)

    @pytest.mark.parametrize(
        "error, status",
        [
            (ValueError("bad right-hand side"), 400),
            (np.linalg.LinAlgError("singular block"), 422),
            (NotPositiveDefinite(3, -0.25, 2, 1), 422),
            (RuntimeError("worker died"), 500),
        ],
    )
    def test_failed_ticket_status_follows_the_error(self, error, status):
        # The async route answers a failed solve like the blocking one, with
        # the ticket's id and status in the body, and the poll claims it.
        service = FailingService(error)
        srv = SolverHTTPServer(service, request_timeout=60.0)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            code, doc, _ = _request(base, "/v1/submit", _solve_doc())
            assert code == 202
            ticket_id = doc["id"]
            deadline = time.monotonic() + 60
            while True:
                code, doc, headers = _request(base, f"/v1/tickets/{ticket_id}")
                if code != 200 or doc["status"] != "pending":
                    break
                assert time.monotonic() < deadline, "ticket still pending"
                time.sleep(0.01)
            assert code == status
            assert headers["Content-Type"].startswith("application/json")
            assert doc["id"] == ticket_id and doc["status"] == "error"
            assert str(error) in doc["error"]
            assert _request(base, f"/v1/tickets/{ticket_id}")[0] == 404
        finally:
            _stop(srv)

    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    def test_concurrent_clients_bit_identical(self, backend):
        # Four keep-alive connections storming blocking /v1/solve: every
        # answer is served and bit-identical to the reference solve.
        service = SolverService(backend=backend, n_workers=2, panel_size=1)
        srv = SolverHTTPServer(service, request_timeout=60.0)
        srv.start_in_thread()
        rhs = np.column_stack([_rhs(seed) for seed in range(8)])
        try:
            outcome = drive_concurrent_clients(
                srv.host, srv.port, rhs=rhs, clients=4, **KEY
            )
        finally:
            _stop(srv)
        assert outcome["status_counts"] == {"200": 8}
        for seed, x in enumerate(outcome["solutions"]):
            np.testing.assert_array_equal(x, _reference(seed))

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
        srv = SolverHTTPServer(service, auth=auth)
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
        srv = SolverHTTPServer(service, auth=auth)
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
        service = GatedService()
        srv = SolverHTTPServer(service, max_pending=2)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            # The first submit is taken by the flush, which the gate holds...
            status, doc, _ = _request(base, "/v1/submit", _solve_doc(seed=0))
            assert status == 202
            accepted = [doc["id"]]
            assert service.entered.wait(30)
            assert service.pending == 0
            # ...so the next max_pending queue behind it and one more is shed.
            for seed in (1, 2):
                status, doc, _ = _request(base, "/v1/submit", _solve_doc(seed=seed))
                assert status == 202
                accepted.append(doc["id"])
            status, doc, headers = _request(base, "/v1/submit", _solve_doc(seed=3))
            assert status == 503 and "queue full" in doc["error"]
            assert float(headers["Retry-After"]) > 0
            service.gate.set()
            for seed, ticket_id in enumerate(accepted):
                doc = _poll_ticket(base, ticket_id)
                assert doc["status"] == "done"
                np.testing.assert_array_equal(np.asarray(doc["x"]), _reference(seed))
            families = parse_prometheus(_request(base, "/metrics")[1])
            rejected = {
                labels["reason"]: value
                for _, labels, value in families["repro_http_rejected_total"]["samples"]
            }
            assert rejected == {"backpressure": 1.0}
        finally:
            service.gate.set()
            _stop(srv)

    def test_retry_after_is_the_mean_batch_solve(self):
        service = GatedService(held=False)
        srv = SolverHTTPServer(service, max_pending=1)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            assert _request(base, "/v1/solve", _solve_doc())[0] == 200
            service.entered.clear()
            service.gate.clear()
            assert _request(base, "/v1/submit", _solve_doc(seed=1))[0] == 202
            assert service.entered.wait(30)
            assert _request(base, "/v1/submit", _solve_doc(seed=2))[0] == 202
            status, _, headers = _request(base, "/v1/submit", _solve_doc(seed=3))
            assert status == 503
            mean_batch = service.stats.solve_seconds / service.stats.batches
            assert headers["Retry-After"] == f"{max(mean_batch, 0.001):.3f}"
        finally:
            service.gate.set()
            _stop(srv)


class TestFlushOnArrival:
    """The event-driven flush loop: no window, batching from load, no lost wake-up."""

    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    def test_arrivals_during_a_flush_go_out_as_one_batch(self, backend):
        service = GatedService(backend=backend)
        srv = SolverHTTPServer(service)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            ids = [_request(base, "/v1/submit", _solve_doc(seed=0))[1]["id"]]
            assert service.entered.wait(30)  # A's flush is running
            for seed in (1, 2):  # B and C arrive meanwhile
                ids.append(_request(base, "/v1/submit", _solve_doc(seed=seed))[1]["id"])
            service.gate.set()
            for seed, ticket_id in enumerate(ids):
                doc = _poll_ticket(base, ticket_id)
                np.testing.assert_array_equal(np.asarray(doc["x"]), _reference(seed))
            assert service.stats.batches == 2
            assert service.stats.solves == 3
            batch_rhs = service.registry.get("repro_service_batch_rhs")
            assert (batch_rhs.count, batch_rhs.min, batch_rhs.max) == (2, 1.0, 2.0)
            # one queue-wait observation per ticket, on /metrics and in /v1/stats
            families = parse_prometheus(_request(base, "/metrics")[1])
            samples = families["repro_service_queue_wait_seconds"]["samples"]
            count = [v for name, _, v in samples if name.endswith("_count")]
            assert count == [3.0]
            assert _request(base, "/v1/stats")[1]["queue_wait"]["count"] == 3
        finally:
            service.gate.set()
            _stop(srv)

    def test_ticket_submitted_as_a_flush_returns_is_served(self):
        # Lost-wake-up regression.  Every flush, once it has solved what it
        # took and before the flush loop runs again, posts the next ticket:
        # 300 arrivals in a row at the instant a flush returns, and nothing
        # but the loop's own wake-up can get them flushed.
        chain = 300
        service = GatedService(held=False)
        srv = SolverHTTPServer(service)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        body = json.dumps(_solve_doc()).encode()
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
        ids = []

        def submit_next():
            if len(ids) <= chain:
                conn.request("POST", "/v1/submit", body=body)
                resp = conn.getresponse()
                assert resp.status == 202
                ids.append(json.loads(resp.read())["id"])

        try:
            service.after_flush = submit_next
            submit_next()  # the first link; each flush posts the next
            assert _poll_ticket(base, ids[0])["status"] == "done"
            deadline = time.monotonic() + 60
            while len(ids) <= chain and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(ids) == chain + 1
            assert _poll_ticket(base, ids[-1])["status"] == "done"
            assert service.stats.batches == chain + 1
            assert service.stats.solves == chain + 1
        finally:
            service.after_flush = None
            _stop(srv)
            conn.close()

    def test_lone_callers_back_to_back(self):
        # One closed-loop caller on a keep-alive connection: every request
        # finds the server idle and must be flushed by its own arrival.
        service = SolverService(backend="sequential", panel_size=1)
        srv = SolverHTTPServer(service, request_timeout=30.0)
        srv.start_in_thread()
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
        body = json.dumps(_solve_doc()).encode()
        try:
            for _ in range(200):
                conn.request("POST", "/v1/solve", body=body)
                resp = conn.getresponse()
                payload = resp.read()
                assert resp.status == 200, payload[:200]
            assert service.stats.batches == 200
        finally:
            conn.close()
            _stop(srv)

    def test_timeout_504_leaves_the_ticket_claimable(self):
        service = GatedService()
        srv = SolverHTTPServer(service, request_timeout=0.05)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            status, doc, _ = _request(base, "/v1/solve", _solve_doc(seed=5))
            assert status == 504
            ticket_id = re.search(r"/v1/tickets/(\w+)", doc["error"]).group(1)
            assert _request(base, f"/v1/tickets/{ticket_id}")[1]["status"] == "pending"
            service.gate.set()
            doc = _poll_ticket(base, ticket_id)
            assert doc["status"] == "done"
            np.testing.assert_array_equal(np.asarray(doc["x"]), _reference(5))
        finally:
            service.gate.set()
            _stop(srv)

    def test_unclaimed_ticket_swept_on_an_idle_server(self):
        service = SolverService(backend="sequential", panel_size=1)
        srv = SolverHTTPServer(service, ticket_ttl=0.05)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        try:
            assert _request(base, "/v1/submit", _solve_doc())[0] == 202
            # No further arrival: the idle flush loop itself must wake up
            # when the record falls due.
            deadline = time.monotonic() + 30
            while srv._tickets and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not srv._tickets
            assert service.stats.solves == 1
        finally:
            _stop(srv)


class TestShutdown:
    def test_shutdown_during_a_flush_answers_the_inflight_solve(self):
        service = GatedService()
        srv = SolverHTTPServer(service, request_timeout=60.0)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        bystander = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
        answer = {}

        def blocking_solve():
            answer["status"], answer["doc"], _ = _request(
                base, "/v1/solve", _solve_doc(seed=7)
            )

        caller = threading.Thread(target=blocking_solve)
        try:
            bystander.request("GET", "/healthz")
            assert bystander.getresponse().read() == b'{"status": "ok"}'
            caller.start()
            assert service.entered.wait(30)  # the solve's flush is running
            srv.shutdown()
            # A connection that was already open is told the server is going
            # away -- which also shows stop() has begun before the gate opens.
            bystander.request(
                "POST", "/v1/submit", body=json.dumps(_solve_doc(seed=8)).encode()
            )
            resp = bystander.getresponse()
            assert resp.status == 503
            assert "shutting down" in json.loads(resp.read())["error"]
            assert float(resp.headers["Retry-After"]) > 0
            assert resp.headers["Connection"] == "close"
            service.gate.set()
            caller.join(30)
            assert not caller.is_alive()
            assert answer["status"] == 200
            np.testing.assert_array_equal(np.asarray(answer["doc"]["x"]), _reference(7))
            srv.join(10)
            assert not srv._thread.is_alive()
        finally:
            service.gate.set()
            bystander.close()
            srv.join(10)

    def test_shutdown_drains_queued_tickets_and_closes_idle_connections(self):
        service = GatedService()
        srv = SolverHTTPServer(service)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        idle = socket.create_connection((srv.host, srv.port), timeout=30)
        try:
            for seed in (0, 1, 2):  # one in the running flush, two queued
                assert _request(base, "/v1/submit", _solve_doc(seed=seed))[0] == 202
                assert service.entered.wait(30)
            srv.shutdown()
            service.gate.set()
            srv.join(10)
            assert not srv._thread.is_alive()
            assert service.pending == 0
            assert service.stats.solves == 3
            assert idle.recv(1) == b""  # closed by the server, not left hanging
        finally:
            service.gate.set()
            idle.close()
            srv.join(10)


class TestHostileInput:
    @pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
    def test_bad_content_length_is_a_400(self, server, length):
        raw = _raw_exchange(
            server,
            f"POST /v1/solve HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode(),
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]

    def test_overlong_header_line_is_a_400(self, server):
        junk = b"a" * (70 * 1024)  # past asyncio's 64 KiB stream limit
        raw = _raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nX-Junk: " + junk + b"\r\n\r\n"
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert "too long" in json.loads(body)["error"]

    def test_too_many_header_lines_is_a_431(self, server, base):
        many = b"".join(b"X-H%d: v\r\n" % i for i in range(101))
        raw = _raw_exchange(server, b"GET /healthz HTTP/1.1\r\n" + many + b"\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 431")
        assert b"Connection: close" in head
        assert "header lines" in json.loads(body)["error"]
        # 100 lines are still a request, and the server keeps serving
        ok = _raw_exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n" + many[: many.index(b"X-H99")]
            + b"\r\n",
        )
        assert ok.startswith(b"HTTP/1.1 200")
        assert _request(base, "/healthz")[0] == 200

    def test_server_still_serves_after_hostile_requests(self, server, base):
        _raw_exchange(server, b"POST /v1/solve HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
        _raw_exchange(server, b"garbage\r\n\r\n")
        assert _request(base, "/healthz")[0] == 200


class TestServerPersistence:
    def test_restart_serves_cache_hits(self, tmp_path):
        path = tmp_path / "factors.bin"
        service = SolverService(backend="sequential", panel_size=1)
        srv = SolverHTTPServer(service, cache_path=path)
        srv.start_in_thread()
        base = f"http://{srv.host}:{srv.port}"
        status, doc, _ = _request(base, "/v1/solve", _solve_doc())
        assert status == 200
        x_before = np.asarray(doc["x"])
        srv.shutdown()
        srv.join(10)
        assert path.exists()

        fresh = SolverService(backend="sequential", panel_size=1)
        srv2 = SolverHTTPServer(fresh, cache_path=path)
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

"""Asyncio HTTP front end for the :class:`~repro.service.SolverService`.

The always-on serving layer of ROADMAP item 3: the paper's economics are
factorize-once/solve-many, and this server keeps the factorization cache hot
across requests.  Stdlib-only (``asyncio`` + hand-rolled HTTP/1.1), so
serving adds zero dependencies.

Flush on arrival
----------------
There is no batching window.  A submitted ticket signals the flush loop,
which flushes as soon as the solver is idle and keeps flushing until the
queue is empty: a lone caller of an idle server waits for parse + solve +
serialise and nothing else.  Requests that arrive *while* a flush is running
queue up and go out together in the next one, as one batched task-graph
solve per factorization -- batching comes from load, not from a timer every
request pays for.  ``repro_service_queue_wait_seconds`` (submit to the start
of the flush that takes the ticket) and ``repro_service_batch_rhs`` on
``GET /metrics`` show which of the two a latency change comes from.

Endpoints
---------
``POST /v1/solve``
    Submit one right-hand side and block until the flush loop resolves it
    (or ``request_timeout`` elapses -> 504; the ticket stays claimable via
    the ticket route).  Flushed immediately when the solver is idle; solves
    that arrive during a running flush are batched into one graph solve.
    A solve that fails answers 400 when the request was invalid
    (``ValueError`` / ``TypeError``), 422 when the problem is numerically
    unsolvable (``numpy.linalg.LinAlgError``, e.g.
    :class:`~repro.core.NotPositiveDefinite`) and 500 otherwise, each with
    a JSON ``{"error": ...}`` body.
``POST /v1/submit`` / ``GET /v1/tickets/<id>``
    The asynchronous path: submit returns ``202`` with a ticket id
    immediately; poll the ticket for ``pending`` / ``done`` (solution
    included, record removed) / ``error``.  Tickets are tenant-scoped.
``GET /metrics``
    ``SolverService.render_prometheus()`` verbatim -- service counters plus
    the runtime task/comm/memory series, strict-parser clean
    (``python -m repro.obs.exposition``), plus the ``repro_http_*`` request
    metrics this server records.
``GET /healthz`` / ``GET /v1/stats``
    Liveness and the JSON metrics snapshot (:meth:`SolverService.metrics`).

Admission control
-----------------
Requests authenticate via ``x-api-key`` (or ``Authorization: Bearer``)
against an :class:`~repro.service.auth.Authenticator`; unknown keys get 401.
Per-tenant token buckets return 429 with ``Retry-After`` when a tenant
out-runs its budget, and queue-depth backpressure returns 503 with
``Retry-After`` (the measured mean batch-solve time) once ``max_pending``
tickets are queued behind the running flush -- load is shed *before* it costs
a factorization.  ``/healthz`` and ``/metrics`` stay open so probes and
scrapes never need credentials.

Request body (solve/submit), JSON::

    {"b": [...], "kernel": "yukawa", "n": 1024,
     "leaf_size": 128, "max_rank": 30, "format": "hss",
     "params": {"lam": 1.0}}

``b`` is one vector (length ``n``) or an ``(n, k)`` nested list.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
import traceback
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.obs.runtime_metrics import (
    record_http_inflight,
    record_http_rejection,
    record_http_request,
)
from repro.service.auth import Authenticator, AuthError, RateLimited
from repro.service.solver_service import SolverService, SolveTicket

__all__ = ["SolverHTTPServer", "HTTPError"]

_MAX_BODY_BYTES = 64 * 1024 * 1024  # one (n, k) float64 block tops out well below
_MAX_HEADER_LINES = 100  # a client needs a handful; beyond this is hostile
_SERVER_NAME = "repro-solver"
#: Pause after a flush that raised instead of resolving its tickets, so a
#: persistent fault retries once a second instead of spinning.
_FLUSH_ERROR_BACKOFF = 1.0


class HTTPError(Exception):
    """An error response with a status code (and optional extra headers)."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _solve_failure(exc: BaseException) -> HTTPError:
    """The HTTP error for a ticket whose solve raised ``exc``."""
    # LinAlgError subclasses ValueError, so it is tested first.
    if isinstance(exc, np.linalg.LinAlgError):
        return HTTPError(422, f"solve failed: {type(exc).__name__}: {exc}")
    if isinstance(exc, (ValueError, TypeError)):
        return HTTPError(400, f"solve failed: {exc}")
    return HTTPError(500, f"solve failed: internal error: {exc!r}")


class _TicketRecord:
    """One submitted ticket awaiting resolution, scoped to its tenant."""

    __slots__ = ("ticket", "tenant", "event", "created", "resolved_at")

    def __init__(self, ticket: SolveTicket, tenant: str) -> None:
        self.ticket = ticket
        self.tenant = tenant
        self.event = asyncio.Event()
        self.created = time.monotonic()
        self.resolved_at: Optional[float] = None


class SolverHTTPServer:
    """Serve a :class:`SolverService` over HTTP (see module docstring).

    Parameters
    ----------
    service:
        The (thread-safe) solver service to front.  Handlers submit tickets
        on the event loop and signal the flush loop, which drains the queue
        in an executor thread whenever the solver is idle and anything is
        pending (no batching window: see "Flush on arrival" above).
    host / port:
        Bind address.  ``port=0`` picks a free port (see :attr:`port` after
        :meth:`start`).
    max_pending:
        Queue-depth backpressure threshold: a solve/submit arriving with
        this many tickets already queued (behind the running flush) is
        rejected with 503 and ``Retry-After`` of one mean batch solve.
    request_timeout:
        Seconds a blocking ``/v1/solve`` waits for its ticket before 504.
        The ticket still resolves in the background; the work is not lost,
        only the response.  Also how long :meth:`stop` waits for responses
        still being written.
    ticket_ttl:
        Seconds a *resolved* ticket record stays claimable via
        ``GET /v1/tickets/<id>`` before the sweeper drops it.
    auth:
        :class:`~repro.service.auth.Authenticator`; ``None`` runs open
        (anonymous, unlimited).
    cache_path:
        Optional factorization-cache snapshot: loaded on :meth:`start` when
        the file exists, written on :meth:`stop` -- a restart serves cache
        hits instead of refactorizing (see :mod:`repro.service.persistence`).
    """

    def __init__(
        self,
        service: SolverService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 256,
        request_timeout: float = 30.0,
        ticket_ttl: float = 300.0,
        auth: Optional[Authenticator] = None,
        cache_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self.ticket_ttl = ticket_ttl
        self.auth = auth if auth is not None else Authenticator()
        self.cache_path = Path(cache_path) if cache_path is not None else None
        #: Ticket id -> record, in submission order (which is also the order
        #: flushes resolve them in: see :meth:`_sweep_tickets`).
        self._tickets: Dict[str, _TicketRecord] = {}
        #: Records whose ticket no flush has returned yet.
        self._unresolved: Dict[SolveTicket, _TicketRecord] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._flush_task: Optional[asyncio.Task] = None
        self._stop_task: Optional[asyncio.Future] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._closing = False
        self._handlers: Set[asyncio.Task] = set()
        #: Writers of connections parked between requests (closed by stop()).
        self._idle: Set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind, load the cache snapshot (if any) and start the flush loop."""
        self._loop = asyncio.get_running_loop()
        if self.cache_path is not None and self.cache_path.exists():
            loaded = self.service.load_cache(self.cache_path)
            print(f"loaded {loaded} cached factorization(s) from {self.cache_path}",
                  flush=True)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._closing = False
        self._flush_task = asyncio.create_task(self._flush_loop())

    async def stop(self) -> None:
        """Stop accepting, answer everything accepted, snapshot the cache.

        No ticket the server took is abandoned: new connections and new
        solves are refused from here on, the flush loop finishes the flush
        it is running and drains what is still queued (waking every waiter),
        and the responses being written are let out before the connections
        close.  Idempotent; a second caller waits for the first.
        """
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
        if self._flush_task is not None:
            self._wake.set()
            await self._flush_task
            self._flush_task = None
        for writer in list(self._idle):
            writer.close()
        if self._handlers:
            # A handler ends after its response; one whose client stopped
            # reading is abandoned like any other over-long request.
            _done, stuck = await asyncio.wait(
                list(self._handlers), timeout=self.request_timeout
            )
            for handler in stuck:
                handler.cancel()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.cache_path is not None:
            self.service.save_cache(self.cache_path)
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` is called (from any thread)."""
        await self.start()
        try:
            await self._stopped.wait()
        finally:
            await self.stop()

    def shutdown(self) -> None:
        """Request a clean stop (see :meth:`stop`); safe to call from any thread."""
        loop = self._loop
        if loop is None:
            return

        def _stop() -> None:
            self._stop_task = asyncio.ensure_future(self.stop())

        loop.call_soon_threadsafe(_stop)

    def start_in_thread(self) -> Tuple[str, int]:
        """Run the server on a daemon thread; returns ``(host, port)`` once bound.

        The test-suite/CLI entry point: the calling thread keeps control
        (drive requests, then :meth:`shutdown`).
        """
        started = threading.Event()
        failure: list = []

        def _run() -> None:
            async def _main() -> None:
                try:
                    await self.start()
                except Exception as exc:  # bind/load errors surface to caller
                    failure.append(exc)
                    started.set()
                    return
                started.set()
                await self._stopped.wait()

            asyncio.run(_main())

        self._thread = threading.Thread(target=_run, daemon=True, name=_SERVER_NAME)
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self.host, self.port

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for a threaded server (:meth:`start_in_thread`) to exit."""
        if self._thread is not None:
            self._thread.join(timeout)

    # -- flush loop ----------------------------------------------------------
    async def _flush_loop(self) -> None:
        """Flush while anything is queued; sleep only when nothing is.

        The flush itself runs in an executor thread (solves hold the CPU),
        so the event loop keeps accepting requests mid-batch: whatever
        arrives meanwhile is the next flush's batch.  Ends once :meth:`stop`
        has been called and the queue is empty.
        """
        loop = asyncio.get_running_loop()
        while True:
            # Cleared *before* the queue is looked at: a submit landing after
            # the look sets the event again and the wait below returns at
            # once, so no ticket can fall between "empty" and "wait".
            self._wake.clear()
            if self.service.pending:
                try:
                    flushed = await loop.run_in_executor(None, self.service.flush)
                except Exception:  # pragma: no cover - defensive
                    # flush() resolves per-key errors onto tickets; anything
                    # that still escapes must not kill the loop, nor strand
                    # the tickets resolved before it was raised.
                    traceback.print_exc()
                    self._resolve([t for t in self._unresolved if t.done])
                    await asyncio.sleep(_FLUSH_ERROR_BACKOFF)
                    continue
                self._resolve(flushed)
                self._sweep_tickets()
            elif self._closing:
                return
            else:
                try:
                    await asyncio.wait_for(self._wake.wait(), self._sweep_tickets())
                except asyncio.TimeoutError:
                    pass

    def _resolve(self, flushed: List[SolveTicket]) -> None:
        """Wake the waiters of exactly the tickets a flush returned."""
        now = time.monotonic()
        for ticket in flushed:
            record = self._unresolved.pop(ticket, None)
            if record is not None:
                record.resolved_at = now
                record.event.set()

    def _sweep_tickets(self) -> Optional[float]:
        """Drop resolved ticket records nobody claimed within ``ticket_ttl``.

        Returns the seconds until the oldest remaining one falls due (``None``
        when there is none), which is how long an idle flush loop may sleep.
        Records sit in submission order and flushes resolve in that order, so
        the stale ones are a prefix: a sweep never walks the live records.
        """
        now = time.monotonic()
        while self._tickets:
            ticket_id, record = next(iter(self._tickets.items()))
            if record.resolved_at is None:
                return None
            due = record.resolved_at + self.ticket_ttl - now
            if due > 0:
                return due
            del self._tickets[ticket_id]
        return None

    # -- HTTP plumbing -------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            while not self._closing:
                try:
                    request = await self._next_request(reader, writer)
                except HTTPError as err:
                    payload = json.dumps({"error": err.message}).encode()
                    await self._write_response(
                        writer, err.status, payload, dict(err.headers),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                t0 = time.perf_counter()
                self._inflight += 1
                record_http_inflight(self.service.registry, self._inflight)
                try:
                    status, payload, extra, route = await self._dispatch(
                        method, path, headers, body
                    )
                except HTTPError as err:
                    status = err.status
                    payload = json.dumps({"error": err.message}).encode()
                    extra = dict(err.headers)
                    extra.setdefault("Content-Type", "application/json")
                    route = self._route_pattern(path)
                except Exception as exc:  # pragma: no cover - defensive
                    status = 500
                    payload = json.dumps({"error": f"internal error: {exc!r}"}).encode()
                    extra = {"Content-Type": "application/json"}
                    route = self._route_pattern(path)
                finally:
                    self._inflight -= 1
                record_http_request(
                    self.service.registry,
                    route=route,
                    method=method,
                    status=status,
                    seconds=time.perf_counter() - t0,
                )
                keep_alive = (
                    headers.get("connection", "keep-alive") != "close"
                    and not self._closing
                )
                await self._write_response(
                    writer, status, payload, extra, keep_alive=keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._handlers.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _next_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Read one request; meanwhile the connection is idle, so :meth:`stop` may close it."""
        self._idle.add(writer)
        try:
            return await self._read_request(reader)
        finally:
            self._idle.discard(writer)

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # no newline within the stream limit
            raise HTTPError(400, "request or header line too long") from None

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        request_line = await self._read_line(reader)
        if not request_line:
            return None
        try:
            method, path, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise HTTPError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        for count in itertools.count():
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            if count == _MAX_HEADER_LINES:
                raise HTTPError(431, f"more than {_MAX_HEADER_LINES} header lines")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not declared.isdecimal():  # "abc", "-5", "1e3": never reach int()/readexactly()
            raise HTTPError(400, f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > _MAX_BODY_BYTES:
            raise HTTPError(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        extra: Dict[str, str],
        *,
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        headers = {
            "Server": _SERVER_NAME,
            "Content-Length": str(len(payload)),
            "Connection": "keep-alive" if keep_alive else "close",
            "Content-Type": "application/json",
        }
        headers.update(extra)
        head = f"HTTP/1.1 {status} {reason}\r\n" + "".join(
            f"{k}: {v}\r\n" for k, v in headers.items()
        )
        writer.write(head.encode("latin-1") + b"\r\n" + payload)
        await writer.drain()

    @staticmethod
    def _route_pattern(path: str) -> str:
        """Bounded-cardinality metrics label for a concrete path."""
        if path.startswith("/v1/tickets/"):
            return "/v1/tickets/{id}"
        if path in ("/healthz", "/metrics", "/v1/stats", "/v1/solve", "/v1/submit"):
            return path
        return "other"

    # -- routing -------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        route = self._route_pattern(path)
        if path == "/healthz":
            self._require(method, "GET")
            return 200, json.dumps({"status": "ok"}).encode(), {}, route
        if path == "/metrics":
            self._require(method, "GET")
            text = self.service.render_prometheus()
            return (
                200,
                text.encode(),
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                route,
            )
        if path == "/v1/stats":
            self._require(method, "GET")
            self._authenticate(headers)
            return 200, json.dumps(self.service.metrics()).encode(), {}, route
        if path == "/v1/solve":
            self._require(method, "POST")
            tenant = self._admit(headers)
            return await self._handle_solve(body, tenant, route)
        if path == "/v1/submit":
            self._require(method, "POST")
            tenant = self._admit(headers)
            return self._handle_submit(body, tenant, route)
        if path.startswith("/v1/tickets/"):
            self._require(method, "GET")
            tenant = self._authenticate(headers)
            return self._handle_ticket(path[len("/v1/tickets/") :], tenant, route)
        raise HTTPError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HTTPError(405, f"method {method} not allowed (use {expected})")

    def _authenticate(self, headers: Dict[str, str]):
        api_key = headers.get("x-api-key")
        if api_key is None:
            bearer = headers.get("authorization", "")
            if bearer.lower().startswith("bearer "):
                api_key = bearer[7:].strip()
        try:
            return self.auth.authenticate(api_key)
        except AuthError as exc:
            record_http_rejection(self.service.registry, reason="unauthorized")
            raise HTTPError(401, str(exc)) from None

    def _admit(self, headers: Dict[str, str]):
        """Authenticate + rate limit + backpressure for the solving routes."""
        tenant = self._authenticate(headers)
        try:
            self.auth.admit(tenant)
        except RateLimited as exc:
            record_http_rejection(
                self.service.registry, reason="rate_limited", tenant=tenant.name
            )
            raise HTTPError(
                429, str(exc),
                headers={"Retry-After": f"{max(exc.retry_after, 0.001):.3f}"},
            ) from None
        if self._closing:
            raise self._unavailable("shutdown", tenant, "server is shutting down")
        if self.service.pending >= self.max_pending:
            raise self._unavailable(
                "backpressure", tenant,
                f"solve queue full ({self.service.pending} pending); retry shortly",
            )
        return tenant

    def _unavailable(self, reason: str, tenant: Any, message: str) -> HTTPError:
        """A counted 503 whose ``Retry-After`` is the measured mean batch solve.

        The queue empties one flush at a time, so one batch's worth of
        seconds (floored at 1 ms, and before the first batch) is when
        retrying can first succeed.
        """
        record_http_rejection(self.service.registry, reason=reason, tenant=tenant.name)
        stats = self.service.stats
        batches = stats.batches
        mean_batch = stats.solve_seconds / batches if batches else 0.0
        return HTTPError(
            503, message, headers={"Retry-After": f"{max(mean_batch, 0.001):.3f}"}
        )

    # -- handlers ------------------------------------------------------------
    def _parse_solve_body(self, body: bytes) -> Tuple[np.ndarray, Dict[str, Any]]:
        try:
            doc = json.loads(body.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(doc, dict):
            raise HTTPError(400, "body must be a JSON object")
        missing = [f for f in ("b", "kernel", "n") if f not in doc]
        if missing:
            raise HTTPError(400, f"missing field(s): {', '.join(missing)}")
        try:
            b = np.asarray(doc["b"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise HTTPError(400, f"b is not numeric: {exc}") from None
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise HTTPError(400, "params must be an object of kernel parameters")
        kwargs: Dict[str, Any] = {
            "kernel": str(doc["kernel"]),
            "n": int(doc["n"]),
            "leaf_size": int(doc.get("leaf_size", 256)),
            "max_rank": int(doc.get("max_rank", 100)),
            "format": str(doc.get("format", "hss")),
        }
        kwargs.update({str(k): float(v) for k, v in params.items()})
        return b, kwargs

    def _submit_ticket(self, body: bytes, tenant: Any) -> Tuple[str, _TicketRecord]:
        b, kwargs = self._parse_solve_body(body)
        try:
            ticket = self.service.submit(b, **kwargs)
        except (ValueError, TypeError) as exc:
            raise HTTPError(400, str(exc)) from None
        record = _TicketRecord(ticket, tenant.name)
        ticket_id = uuid.uuid4().hex
        self._tickets[ticket_id] = record
        self._unresolved[ticket] = record
        self._wake.set()
        return ticket_id, record

    async def _handle_solve(
        self, body: bytes, tenant: Any, route: str
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        ticket_id, record = self._submit_ticket(body, tenant)
        try:
            await asyncio.wait_for(record.event.wait(), timeout=self.request_timeout)
        except asyncio.TimeoutError:
            # The ticket stays registered: the flush loop still resolves it
            # and the client can claim it via the ticket route.
            raise HTTPError(
                504,
                f"solve did not complete within {self.request_timeout}s; "
                f"poll /v1/tickets/{ticket_id}",
            ) from None
        self._tickets.pop(ticket_id, None)
        ticket = record.ticket
        if ticket.error is not None:
            raise _solve_failure(ticket.error)
        x = ticket.result
        return 200, json.dumps({"x": x.tolist()}).encode(), {}, route

    def _handle_submit(
        self, body: bytes, tenant: Any, route: str
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        ticket_id, _record = self._submit_ticket(body, tenant)
        payload = {"id": ticket_id, "status": "pending"}
        return 202, json.dumps(payload).encode(), {}, route

    def _handle_ticket(
        self, ticket_id: str, tenant: Any, route: str
    ) -> Tuple[int, bytes, Dict[str, str], str]:
        record = self._tickets.get(ticket_id)
        if record is None or record.tenant != tenant.name:
            # Wrong-tenant probes get the same 404 as unknown ids: ticket ids
            # are not enumerable across tenants.
            raise HTTPError(404, f"unknown ticket {ticket_id}")
        ticket = record.ticket
        if not ticket.done:
            return 200, json.dumps({"id": ticket_id, "status": "pending"}).encode(), {}, route
        del self._tickets[ticket_id]
        if ticket.error is not None:
            payload = {"id": ticket_id, "status": "error", "error": str(ticket.error)}
            return 200, json.dumps(payload).encode(), {}, route
        payload = {"id": ticket_id, "status": "done", "x": ticket.result.tolist()}
        return 200, json.dumps(payload).encode(), {}, route

    def __repr__(self) -> str:
        state = "listening" if self._server is not None else "stopped"
        return f"SolverHTTPServer({self.host}:{self.port}, {state}, {self.service!r})"

"""Concurrent-client smoke driver for a running ``repro serve``.

The client side of CI's serve-smoke job.  It drives an already-running
:class:`~repro.service.http_server.SolverHTTPServer` with ``--clients``
concurrent keep-alive connections issuing blocking ``POST /v1/solve``
requests, and checks that every served solution is **bit-identical** to the
sequential reference solve of the same right-hand side (the smoke server
solves with ``--panel-size 1``, whose per-column batched solves are exactly
the single-RHS reference solves): no ticket may be lost, duplicated or
silently wrong under concurrency.  ``--expect-429`` / ``--expect-503`` then
burst-probe admission control and require the rate-limit and backpressure
rejections.  The storm's wall time is printed, never gated: serving
latency and throughput are measured by ``bench/``'s ``serve_blocking``
workload.

Usage::

    python -m repro.experiments.serve_load --host 127.0.0.1 --port 8080 \\
        --clients 4 --requests 8 --expect-429 --expect-503
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.greens import kernel_by_name
from repro.service import SolverService

__all__ = ["drive_concurrent_clients"]


def _post_json(
    conn: http.client.HTTPConnection,
    path: str,
    doc: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, Any]]:
    body = json.dumps(doc).encode()
    conn.request("POST", path, body=body, headers=headers or {})
    resp = conn.getresponse()
    raw = resp.read()
    try:
        payload = json.loads(raw) if raw else {}
    except ValueError:
        payload = {"raw": raw.decode("latin-1", "replace")}
    return resp.status, payload


def _get_json(
    conn: http.client.HTTPConnection,
    path: str,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, Any]]:
    conn.request("GET", path, headers=headers or {})
    resp = conn.getresponse()
    raw = resp.read()
    try:
        payload = json.loads(raw) if raw else {}
    except ValueError:
        payload = {"raw": raw.decode("latin-1", "replace")}
    return resp.status, payload


def drive_concurrent_clients(
    host: str,
    port: int,
    *,
    rhs: np.ndarray,
    kernel: str,
    n: int,
    leaf_size: int,
    max_rank: int,
    format_name: str = "hss",
    clients: int = 4,
    api_key: Optional[str] = None,
    timeout: float = 60.0,
) -> Dict[str, Any]:
    """Fan the columns of ``rhs`` across ``clients`` concurrent connections.

    Each client thread owns one keep-alive connection and serially POSTs its
    share of ``/v1/solve`` requests.  Returns the wall time of the whole
    storm, per-status counts, and the solutions (``None`` where a request
    did not return 200) in column order.
    """
    total = rhs.shape[1]
    headers = {"x-api-key": api_key} if api_key else {}
    solutions: List[Optional[np.ndarray]] = [None] * total
    status_counts: Dict[str, int] = {}
    counts_lock = threading.Lock()

    def worker(client_index: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            for j in range(client_index, total, clients):
                doc = {
                    "b": rhs[:, j].tolist(),
                    "kernel": kernel,
                    "n": n,
                    "leaf_size": leaf_size,
                    "max_rank": max_rank,
                    "format": format_name,
                }
                try:
                    status, payload = _post_json(conn, "/v1/solve", doc, headers)
                except (OSError, http.client.HTTPException) as exc:
                    with counts_lock:
                        status_counts[f"exc:{type(exc).__name__}"] = (
                            status_counts.get(f"exc:{type(exc).__name__}", 0) + 1
                        )
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
                    continue
                with counts_lock:
                    status_counts[str(status)] = status_counts.get(str(status), 0) + 1
                if status == 200:
                    solutions[j] = np.asarray(payload["x"], dtype=np.float64)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(c,)) for c in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "status_counts": status_counts,
        "solutions": solutions,
    }


def _probe_admission_control(
    host: str,
    port: int,
    *,
    n: int,
    kernel: str,
    leaf_size: int,
    max_rank: int,
    bursts: int = 24,
    api_key: Optional[str] = None,
) -> Dict[str, int]:
    """Fire a rapid burst of ``/v1/submit`` requests and tally the statuses.

    Against a server configured with a small rate limit and ``max_pending``,
    the burst must surface both admission-control rejections: 503 once the
    queue is full (backpressure) and 429 once the token bucket drains.  The
    server flushes on arrival, so a queue only builds behind a flush that is
    still running: the burst goes to a *cold* key (the kernel's first
    parameter nudged by a fraction drawn afresh, so no earlier probe
    factorized it either), and the first submit's compress + factorize is
    the flush the rest pile up behind.  Accepted tickets are polled to
    completion afterwards so the probe leaves no dangling work.
    """
    rng = np.random.default_rng(1)
    default = kernel_by_name(kernel)
    cold_name = fields(default)[0].name
    cold_value = getattr(default, cold_name) * (
        1.0 + float(np.random.default_rng().uniform(0.01, 0.1))
    )
    headers = {"x-api-key": api_key} if api_key else {}
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    counts: Dict[str, int] = {}
    accepted: List[str] = []
    try:
        for _ in range(bursts):
            doc = {
                "b": rng.standard_normal(n).tolist(),
                "kernel": kernel,
                "n": n,
                "leaf_size": leaf_size,
                "max_rank": max_rank,
                "params": {cold_name: cold_value},
            }
            status, payload = _post_json(conn, "/v1/submit", doc, headers)
            counts[str(status)] = counts.get(str(status), 0) + 1
            if status == 202:
                accepted.append(payload["id"])
        # Drain the accepted tickets (poll until resolved or timeout).
        deadline = time.monotonic() + 60.0
        for ticket_id in accepted:
            while time.monotonic() < deadline:
                status, payload = _get_json(
                    conn, f"/v1/tickets/{ticket_id}", headers
                )
                if status != 200 or payload.get("status") != "pending":
                    break
                time.sleep(0.1)
    finally:
        conn.close()
    return counts


def main(argv: Optional[List[str]] = None) -> int:
    """Drive an already-running server (the CI smoke job's client side)."""
    import argparse

    parser = argparse.ArgumentParser(
        description="concurrent-client load generator for `repro serve`"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--kernel", default="yukawa")
    parser.add_argument("--leaf-size", type=int, default=64)
    parser.add_argument("--max-rank", type=int, default=20)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=8, help="total solve requests")
    parser.add_argument("--api-key", default=None)
    parser.add_argument(
        "--expect-429",
        action="store_true",
        help="burst-probe admission control and require at least one 429",
    )
    parser.add_argument(
        "--expect-503",
        action="store_true",
        help="burst-probe admission control and require at least one 503",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    rhs = rng.standard_normal((args.n, args.requests))
    ref = SolverService(backend="reference")
    reference = [
        ref.solve(
            rhs[:, j], kernel=args.kernel, n=args.n,
            leaf_size=args.leaf_size, max_rank=args.max_rank,
        )
        for j in range(args.requests)
    ]

    outcome = drive_concurrent_clients(
        args.host, args.port,
        rhs=rhs, kernel=args.kernel, n=args.n, leaf_size=args.leaf_size,
        max_rank=args.max_rank, clients=args.clients, api_key=args.api_key,
    )
    solved = [x for x in outcome["solutions"] if x is not None]
    identical = sum(
        1
        for x, r in zip(outcome["solutions"], reference)
        if x is not None and np.array_equal(x, r)
    )
    print(
        f"solve storm: {len(solved)}/{args.requests} served in "
        f"{outcome['wall_seconds']:.3f}s, statuses {outcome['status_counts']}, "
        f"{identical}/{len(solved)} bit-identical to the reference",
        flush=True,
    )
    failures = []
    if solved and identical != len(solved):
        failures.append(f"only {identical}/{len(solved)} solutions bit-identical")
    if not solved:
        failures.append("no request was served at all")

    if args.expect_429 or args.expect_503:
        counts = _probe_admission_control(
            args.host, args.port,
            n=args.n, kernel=args.kernel, leaf_size=args.leaf_size,
            max_rank=args.max_rank, api_key=args.api_key,
        )
        print(f"admission-control probe: statuses {counts}", flush=True)
        if args.expect_429 and not counts.get("429"):
            failures.append(f"expected at least one 429, got {counts}")
        if args.expect_503 and not counts.get("503"):
            failures.append(f"expected at least one 503, got {counts}")

    for failure in failures:
        print(f"FAIL: {failure}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    raise SystemExit(main())

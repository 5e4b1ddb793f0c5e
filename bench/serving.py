"""The ``serve_blocking`` workload: a solver server subprocess and its load generator.

The server is the program's own ``python -m repro serve`` started in its own
process group; this file only talks HTTP to it.  The load generator is this
one process with two threads and keep-alive connections.  It is a *closed
loop*: a caller of a solver waits for its answer, and two connections cannot
hold an open-loop backlog.

Every request body is encoded before the clock starts; every response is
kept as bytes and decoded, compared with an offline reference solve and
checked against the exact operator only after the timed window.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    ALPHA, BENCH_DIR, KERNEL, OUT, RESIDUAL_LIMIT, ROOT, Round, Tally,
    best_round, child_env, digits, group_alive, median, parallelism, vm_hwm_mb,
)
from direct import sampled_residual
from spans import SpanRecorder

API_KEY = "bench-key"
#: Per-layer metrics only a live server can give; 0 on the ``direct_*`` workloads.
SERVING_LAYER_METRICS = (
    "service.batch_mean", "service.batch_solve_ms", "service.solve_share",
    "http.healthz_ms", "http.submit_ms", "http.fetch_ms", "http.request_kb",
    "http.response_kb", "http.server_s_per_req", "http.rejected", "http.window_wait_ms",
)
_LISTEN = re.compile(r"listening on http://([^:\s]+):(\d+)")
#: Keep-alive connections of the closed loop: the fewest with which the
#: server's batcher has anything to batch.  Their threads wait on the flush
#: window most of the time, so they do not take the free core.
CLIENTS = 2
BOOT_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


class Server:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, label: str, extra_args: List[str], *, trace_out: Optional[str] = None) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.log_path = OUT / f"server-{label}.log"
        #: Names the server's process group while it runs, so that run.py can
        #: still kill it if this load generator dies without reaching stop().
        self.pid_path = OUT / f"server-{label}.pid"
        args = ["serve", "--port", "0", "--backend", "parallel",
                "--workers", str(parallelism()), *extra_args]
        if trace_out is None:
            self.cmd = [sys.executable, "-m", "repro", *args]
        else:
            self.cmd = [sys.executable, str(BENCH_DIR / "traced_server.py"), trace_out, *args]
        self.proc: Optional[subprocess.Popen] = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> "Server":
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.cmd, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        self.pid_path.write_text(str(self.proc.pid))
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; see {self.log_path}")
            match = _LISTEN.search(self.log_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            time.sleep(0.01)
        else:
            raise RuntimeError(f"server did not bind within {BOOT_TIMEOUT}s")
        conn = self.connect()
        try:
            status, _ = request(conn, "GET", "/healthz")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return self

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)

    def stop(self) -> bool:
        """Stop the server (SIGINT, then SIGKILL of the group); True if nothing survives."""
        proc = self.proc
        if proc is None:
            return True
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        deadline = time.monotonic() + 5
        while group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        self.pid_path.unlink(missing_ok=True)
        return not group_alive(proc.pid)


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[bytes] = None, auth: bool = True) -> Tuple[int, bytes]:
    headers = {"x-api-key": API_KEY} if auth else {}
    if body is not None:
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


def solve_body(b: np.ndarray, n: int, size: Dict[str, Any], alpha: float) -> bytes:
    return json.dumps({
        "b": b.tolist(), "kernel": KERNEL, "n": n, "leaf_size": size["leaf_size"],
        "max_rank": size["max_rank"], "format": "hss", "params": {"alpha": alpha},
    }).encode()


def get_json(conn: http.client.HTTPConnection, path: str) -> Dict[str, Any]:
    status, payload = request(conn, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


def http_metrics(conn: http.client.HTTPConnection) -> Dict[str, float]:
    """``repro_http_*`` totals from ``/metrics`` (seconds, count, rejected)."""
    from repro.obs.exposition import parse_prometheus

    status, payload = request(conn, "GET", "/metrics", auth=False)
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    families = parse_prometheus(payload.decode())
    out = {"seconds": 0.0, "count": 0.0, "rejected": 0.0}
    for sample, labels, value in families.get("repro_http_request_seconds", {}).get("samples", ()):
        if labels.get("route") in ("/v1/solve", "/v1/submit", "/v1/tickets/{id}"):
            if sample.endswith("_sum"):
                out["seconds"] += value
            elif sample.endswith("_count"):
                out["count"] += value
    for _sample, _labels, value in families.get("repro_http_rejected_total", {}).get("samples", ()):
        out["rejected"] += value
    return out


class Exchange:
    """What one request did: status, client-side seconds, response bytes."""

    __slots__ = ("index", "status", "seconds", "payload", "t_done")

    def __init__(self, index: int, status: int, seconds: float, payload: bytes, t_done: float) -> None:
        self.index = index
        self.status = status
        self.seconds = seconds
        self.payload = payload
        self.t_done = t_done


def blocking_loop(server: Server, bodies: List[bytes], rec: SpanRecorder) -> Tuple[List[Exchange], float]:
    """Closed loop over keep-alive connections posting ``/v1/solve``; returns wall seconds."""
    clients = CLIENTS
    lanes = [list(range(c, len(bodies), clients)) for c in range(clients)]
    results: List[Optional[Exchange]] = [None] * len(bodies)
    barrier = threading.Barrier(clients + 1)

    def lane(indices: List[int]) -> None:
        conn = server.connect()
        try:
            conn.connect()
            barrier.wait()
            for i in indices:
                with rec.span("op.request", "op", new_op=True):
                    t0 = time.perf_counter()
                    try:
                        with rec.span("client.post_solve", "client"):
                            status, payload = request(conn, "POST", "/v1/solve", bodies[i])
                    except (OSError, http.client.HTTPException) as exc:
                        status, payload = 0, repr(exc).encode()
                        conn.close()
                    t1 = time.perf_counter()
                results[i] = Exchange(i, status, t1 - t0, payload, t1)
        finally:
            conn.close()

    threads = [threading.Thread(target=lane, args=(idx,)) for idx in lanes]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    return [r for r in results if r is not None], wall


def server_args() -> List[str]:
    OUT.mkdir(parents=True, exist_ok=True)
    auth = OUT / "tenants.json"
    auth.write_text(json.dumps({"tenants": [{"name": "bench", "api_key": API_KEY}]}))
    # Room for the hot key and every cold key: at the default of 8 the cold
    # keys evict, and when the evicted factors are collected decides the peak
    # resident size (502 MB or 550-625 MB, run to run).
    return ["--auth-file", str(auth), "--max-cached", "16"]


def boot_and_warm(label: str, hot_body: bytes, trace_out: Optional[str] = None) -> Server:
    """Set-up of a ``serve_*`` run: boot -> ``/healthz`` -> hot key factorized."""
    server = Server(label, server_args(), trace_out=trace_out).start()
    try:
        conn = server.connect()
        try:
            status, payload = request(conn, "POST", "/v1/solve", hot_body)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"hot-key warm answered {status}: {payload[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server


def decode_solution(exchange: Exchange) -> Optional[np.ndarray]:
    if exchange.status != 200:
        return None
    doc = json.loads(exchange.payload)
    if "x" not in doc:
        return None
    return np.asarray(doc["x"], dtype=np.float64)


def run(workload: str, seed: int, size: Dict[str, Any], *, t_spawn: float,
        setup_only: bool, rec: Optional[SpanRecorder] = None,
        trace_path: Optional[str] = None) -> Dict[str, Any]:
    """One ``serve_*`` pass (untraced when ``rec`` is None)."""
    traced = rec is not None
    rec = rec if traced else SpanRecorder()
    n = size["n"]
    rng = np.random.default_rng(seed)
    per_round = size["per_round"]
    requests = size["rounds"] * per_round
    rhs = rng.standard_normal((n, requests))
    warm_rhs = rng.standard_normal((n, size["warmup"]))
    cold_rhs = rng.standard_normal((n, size["cold_keys"]))
    # Cold keys: distinct kernel parameters nobody has factorized yet.
    cold_alphas = [round(ALPHA + 0.1 * (k + 1) + float(rng.uniform(0, 0.05)), 6)
                   for k in range(size["cold_keys"])]
    hot_body = solve_body(warm_rhs[:, 0], n, size, ALPHA)
    server_trace = f"{trace_path}.server" if traced else None

    label = f"{workload}-traced" if traced else workload
    server = boot_and_warm(label, hot_body, trace_out=server_trace)
    setup_s = time.time() - t_spawn
    tally = Tally()
    statuses: Dict[str, int] = {}
    try:
        if setup_only:
            return {"setup_s": setup_s}
        bodies = [solve_body(rhs[:, j], n, size, ALPHA) for j in range(rhs.shape[1])]
        warm_bodies = [solve_body(warm_rhs[:, j], n, size, ALPHA) for j in range(warm_rhs.shape[1])]
        cold_bodies = [solve_body(cold_rhs[:, k], n, size, a) for k, a in enumerate(cold_alphas)]
        ctl = server.connect()

        # -- cold keys: the miss path (compress + factorize inside the server)
        cold_seconds, cold_exchanges, miss_compress, miss_factorize = [], [], [], []
        before = get_json(ctl, "/v1/stats")
        for k, body in enumerate(cold_bodies):
            t0 = time.perf_counter()
            status, payload = request(ctl, "POST", "/v1/solve", body)
            t1 = time.perf_counter()
            cold_seconds.append(t1 - t0)
            cold_exchanges.append(Exchange(k, status, t1 - t0, payload, t1))
            after = get_json(ctl, "/v1/stats")
            miss_compress.append(after["compress_seconds"] - before["compress_seconds"])
            miss_factorize.append(after["factorize_seconds"] - before["factorize_seconds"])
            before = after

        # -- warm-up, then the timed rounds --------------------------------
        blocking_loop(server, warm_bodies, rec)  # rec is off until the rounds
        stats0, http0 = get_json(ctl, "/v1/stats"), http_metrics(ctl)
        rounds: List[Round] = []
        exchanges: List[Exchange] = []
        cpu0 = time.process_time()
        for r in range(size["rounds"]):
            rec.enabled = traced
            done, wall = blocking_loop(server, bodies[r * per_round:(r + 1) * per_round], rec)
            rec.enabled = False
            for ex in done:
                ex.index += r * per_round
            exchanges += done
            rounds.append(Round([], [ex.seconds for ex in done if ex.status == 200], wall))
        wall = sum(r.wall for r in rounds)
        cpu_share = (time.process_time() - cpu0) / wall
        stats1, http1 = get_json(ctl, "/v1/stats"), http_metrics(ctl)
        peak_rss = vm_hwm_mb(server.proc.pid)

        in_situ = {}
        if traced:
            in_situ = micro_requests(server, ctl, size, hot_body)
        ctl.close()
    finally:
        stopped = server.stop()

    # -- correctness, after the timed window ------------------------------
    tally.check(stopped, "server process group still alive after stop")
    from repro.api import StructuredSolver
    from repro.geometry.points import uniform_grid_2d
    from repro.kernels.assembly import KernelMatrix
    from repro.kernels.greens import kernel_by_name

    hot = StructuredSolver.from_kernel(
        KERNEL, n=n, leaf_size=size["leaf_size"], max_rank=size["max_rank"], alpha=ALPHA)
    ref = hot.factorize().solve(rhs)
    solutions = np.full_like(rhs, np.nan)
    for ex in exchanges:
        statuses[str(ex.status)] = statuses.get(str(ex.status), 0) + 1
        x = decode_solution(ex)
        good = x is not None and x.shape == (n,) and np.allclose(
            x, ref[:, ex.index], rtol=1e-8, atol=1e-12)
        if tally.check(good, f"request {ex.index}: status {ex.status}, "
                       f"{'wrong solution' if x is not None else ex.payload[:120]!r}"):
            solutions[:, ex.index] = x
    tally.attempted += len(bodies) - len(exchanges)
    tally.failed += len(bodies) - len(exchanges)
    good_cols = ~np.isnan(solutions[0])
    residual = sampled_residual(hot.kernel_matrix, solutions[:, good_cols], rhs[:, good_cols], seed)
    tally.check(residual <= RESIDUAL_LIMIT, f"hot key residual {residual:.3e}")
    for k, ex in enumerate(cold_exchanges):
        statuses[str(ex.status)] = statuses.get(str(ex.status), 0) + 1
        x = decode_solution(ex)
        if tally.check(x is not None, f"cold key {k}: status {ex.status}"):
            exact = KernelMatrix(kernel_by_name(KERNEL, alpha=cold_alphas[k]), uniform_grid_2d(n))
            r = sampled_residual(exact, x, cold_rhs[:, k], seed)
            tally.check(r <= RESIDUAL_LIMIT, f"cold key {k}: residual {r:.3e}")
            residual = max(residual, r)

    served = best_round(rounds)
    metrics = {
        # The miss path, best of the cold keys (as every compute phase: the
        # fastest sample, see README "Rounds").
        "time_to_solution_s": min(cold_seconds),
        "compress_s": min(miss_compress),
        "factorize_s": min(miss_factorize),
        "residual_digits": digits(residual),
        "peak_rss_mb": peak_rss,
        "latency_p50_ms": served["latency_p50_ms"],
        "throughput_rps": served["throughput_rps"],
    }
    result = {
        "setup_s": setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": metrics,
        "info": {
            "rel_residual": residual,
            "requests": len(bodies),
            "rounds": len(rounds),
            "cold_keys": cold_alphas,
            "latency_samples": served["samples"],
            "latency_p95_ms": served["latency_p95_ms"],
            "latency_samples_beyond_p95": served["beyond_p95"],
            "status_counts": statuses,
            "timed_wall_s": wall,
            "server_log": str(server.log_path.relative_to(ROOT)),
        },
    }
    if traced:
        batches = max(stats1["batches"] - stats0["batches"], 1)
        solve_seconds = stats1["solve_seconds"] - stats0["solve_seconds"]
        http_count = max(http1["count"] - http0["count"], 1.0)
        in_situ.update({
            "service.batch_mean": (stats1["solves"] - stats0["solves"]) / batches,
            "service.batch_solve_ms": solve_seconds / batches * 1e3,
            "service.solve_share": solve_seconds / wall,
            "http.server_s_per_req": (http1["seconds"] - http0["seconds"]) / http_count,
            "http.rejected": http1["rejected"],
            "http.request_kb": sum(len(b) for b in bodies) / len(bodies) / 1024.0,
            "http.response_kb": sum(len(e.payload) for e in exchanges) / max(len(exchanges), 1) / 1024.0,
            "loadgen.cpu_share": cpu_share,
        })
        in_situ["http.window_wait_ms"] = (
            metrics["latency_p50_ms"] - in_situ["http.submit_ms"]
            - in_situ["service.batch_solve_ms"] - in_situ["http.fetch_ms"]
        )
        result["in_situ"] = in_situ
        result["server_trace"] = server_trace
    return result


def micro_requests(server: Server, ctl: http.client.HTTPConnection, size: Dict[str, Any],
                   hot_body: bytes) -> Dict[str, float]:
    """Plumbing floors on the live, idle server: healthz, submit, fetch of a done ticket."""
    reps = min(40, size["rounds"] * size["per_round"] // 2)
    healthz, submit, fetch = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        request(ctl, "GET", "/healthz", auth=False)
        healthz.append(time.perf_counter() - t0)
    tickets = []
    for _ in range(reps):
        t0 = time.perf_counter()
        status, payload = request(ctl, "POST", "/v1/submit", hot_body)
        submit.append(time.perf_counter() - t0)
        if status == 202:
            tickets.append(json.loads(payload)["id"])
    time.sleep(0.3)  # several flush windows: every ticket above is resolved
    for ticket in tickets:
        t0 = time.perf_counter()
        _status, payload = request(ctl, "GET", f"/v1/tickets/{ticket}")
        if b'"done"' in payload[:80]:
            fetch.append(time.perf_counter() - t0)
    return {
        "http.healthz_ms": median(healthz) * 1e3,
        "http.submit_ms": median(submit) * 1e3,
        "http.fetch_ms": median(fetch) * 1e3 if fetch else 0.0,
    }

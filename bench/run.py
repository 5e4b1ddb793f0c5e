"""The repo benchmark: one command, every workload, every metric by name.

    python3 bench/run.py                       # all four workloads, untraced
    python3 bench/run.py --traced              # ... plus the traced pass (per-layer)
    python3 bench/run.py --workload serve_blocking --seed 7 --seconds 16 --trace 0
    python3 bench/run.py --smoke               # tiny sizes, a few seconds
    python3 bench/run.py --repeat-check        # two sets of 3 runs, compared

Each workload runs in fresh subprocesses (``worker.py``) with BLAS pinned to
one thread.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with one
``--workload`` the metric names are exactly BENCHMARK.json's ``end_to_end``
(``--trace 0``) or ``per_layer`` (``--trace 1``) names.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import (
    BENCH_DIR, OUT, ROOT, SPEC_PATH, SRC, THREAD_VARS, WORKLOADS, child_env,
    group_alive, load_spec, median, pin_threads, shm_segments, sizes,
)

pin_threads()

#: Set-ups per untraced run (one in ``--smoke``): ``setup_s`` is their median.
SETUP_REPS = 3
#: A run must end within the driver's 180 s; workers get what is left of this.
RUN_DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn_worker(args: List[str], deadline: float, label: str) -> Dict[str, Any]:
    """Run one ``worker.py`` in its own process group; return its JSON result.

    The group is killed on every exit path and must be empty afterwards --
    a surviving forked worker or server is a leak, reported under ``leaks``.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    err_path = OUT / f"worker-{label}.err"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args, "--t-spawn", repr(time.time())]
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{label}: no result before the run deadline") from None
        finally:
            # multiprocessing's resource tracker notices its parent's exit a
            # moment later; anything still alive after the grace period leaked.
            grace = time.monotonic() + 3.0
            while proc.poll() is not None and group_alive(proc.pid) and time.monotonic() < grace:
                time.sleep(0.01)
            survivors = proc.poll() is None or group_alive(proc.pid)
            kill_group(proc.pid)
            proc.wait()
            # A server whose load generator died before stopping it.
            for pid_file in OUT.glob("server-*.pid"):
                survivors = True
                kill_group(int(pid_file.read_text()))
                pid_file.unlink()
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise WorkerFailed(f"{label}: worker exited with {proc.returncode}\n{tail}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["leaks"] = ["a process of the worker's group outlived it"] if survivors else []
    return result


def new_shm_segments(before: set) -> List[str]:
    """Data-plane segments that appeared during the run and do not go away.

    Another process on the machine may hold a live segment of its own for a
    moment; a leak is still there after the grace period.
    """
    grace = time.monotonic() + 2.0
    while True:
        leaked = sorted(set(shm_segments()) - before)
        if not leaked or time.monotonic() >= grace:
            return leaked
        time.sleep(0.05)


def measure(workload: str, *, seed: int, seconds: float, trace: int, smoke: bool,
            spec: Dict[str, Any]) -> Dict[str, Any]:
    """One run of one workload: the record that goes into the result file."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    size = sizes(workload, seconds=seconds, run_seconds=spec["run_seconds"], smoke=smoke)
    probe = sizes("probe", seconds=seconds, run_seconds=spec["run_seconds"], smoke=smoke)
    base = ["--workload", workload, "--seed", str(seed), "--size", json.dumps(size),
            "--probe-size", json.dumps(probe), "--trace", str(trace)]
    shm_before = set(shm_segments())
    record: Dict[str, Any] = {"workload": workload, "seed": seed, "trace": trace,
                              "seconds": seconds, "smoke": smoke, "sizes": size}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        setups, leaks = [], []
        if not trace:
            for rep in range(0 if smoke else SETUP_REPS - 1):
                res = spawn_worker(base + ["--setup-only"], deadline, f"{workload}-setup{rep}")
                setups.append(res["setup_s"])
                leaks += res["leaks"]
        res = spawn_worker(base, deadline, f"{workload}-trace{trace}")
        leaks += res["leaks"]
        leaked_shm = new_shm_segments(shm_before)
        if leaked_shm:
            leaks.append(f"shared-memory segments left behind: {leaked_shm[:4]}")
        values = dict(res["metrics"])
        if not trace:
            setups.append(res["setup_s"])
            values["setup_s"] = median(setups)
            record["setup_samples"] = setups
        # Two leak checks per run (process group, /dev/shm) count as operations.
        record["attempted"] = res["attempted"] + 2
        record["failed"] = res["failed"] + len(leaks)
        record["failures"] = res["failures"] + leaks
        missing = sorted(set(units) - set(values))
        if missing:
            raise WorkerFailed(f"{workload}: worker reported no value for {missing}")
        record["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
        record["info"] = res.get("info", {})
        if trace:
            record["trace_file"] = os.path.relpath(res["trace_file"], ROOT)
    except WorkerFailed as exc:
        record.update(attempted=1, failed=1, failures=[str(exc)], metrics={}, info={})
    record["correct"] = record["failed"] == 0
    return record


def machine_stamp(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": np.__version__, "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "unix_time": time.time(),
    }


def print_record(record: Dict[str, Any]) -> None:
    kind = "per-layer (traced pass)" if record["trace"] else "end-to-end (untraced pass)"
    print(f"\n== {record['workload']}  seed={record['seed']}  {kind}")
    for name, cell in record["metrics"].items():
        print(f"  {name:<34} {cell['value']:>16.6g} {cell['unit']}")
    statuses = record["info"].get("status_counts")
    if statuses:
        print(f"  responses by status: {statuses}")
    p95 = record["info"].get("latency_p95_ms")
    if p95 is not None:
        # Not an end-to-end metric: too few samples beyond it to gate (README).
        print(f"  {'latency_p95_ms (not gated)':<34} {p95:>16.6g} ms, "
              f"{record['info']['latency_samples_beyond_p95']} samples beyond it per round")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"failed_fraction={record['failed'] / record['attempted']:.4g}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if record.get("trace_file"):
        print(f"  trace: {record['trace_file']}")


def run_set(args: argparse.Namespace, spec: Dict[str, Any], out_path: str) -> Dict[str, Any]:
    """Run every requested (run, workload, pass); write and return the result document."""
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    passes = [0, 1] if args.traced else [args.trace]
    records = []
    for _ in range(args.runs):
        for workload in workloads:
            for trace in passes:
                record = measure(workload, seed=args.seed, seconds=args.seconds,
                                 trace=trace, smoke=args.smoke, spec=spec)
                print_record(record)
                records.append(record)
    doc = {"stamp": machine_stamp(args), "runs": records}
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nresult file: {os.path.relpath(out_path)}")
    return doc


def summary_line(doc: Dict[str, Any], single: bool) -> str:
    """The last line of output (see the module docstring)."""
    runs = doc["runs"]
    metrics: Dict[str, Any] = {}
    for record in runs:
        for name, cell in record["metrics"].items():
            metrics[name if single else f"{record['workload']}/{name}"] = cell
    return json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"bench/run.py: no program to measure: {SRC / 'repro'} or {SPEC_PATH.name} "
              "is missing from this checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="generates right-hand sides, compression seed, cold keys")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="nominal measured seconds; scales the operation counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: untraced pass, end-to-end metrics; 1: traced pass, per-layer")
    parser.add_argument("--traced", action="store_true", help="run both passes")
    parser.add_argument("--runs", type=int, default=1, help="repeat the whole set")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (n=512)")
    parser.add_argument("--out", default=None, help="result file (default: bench/out/)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two sets of --runs 3 of the same code, compared")
    args = parser.parse_args(argv)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    if args.repeat_check:
        import compare

        args.runs = max(args.runs, 3)
        paths = [str(OUT / f"repeat-{stamp}-{side}.json") for side in "AB"]
        docs = [run_set(args, spec, path) for path in paths]
        rows = compare.compare(docs[0], docs[1], spec)
        print()
        print(compare.render(rows))
        verdicts = [r["verdict"] for r in rows]
        drifted = compare.inexact_counts(rows)
        print(f"\nrepeat check: {verdicts.count('regressed')} pair(s) differ by more than "
              f"their bound, {verdicts.count('unresolved')} have a spread wider than it "
              f"(with 3 runs a side the quartiles are the extremes); counts that did not "
              f"repeat exactly: {[(r['workload'], r['metric']) for r in drifted] or 'none'}")
        correct = all(r["correct"] for d in docs for r in d["runs"])
        return 0 if correct and "regressed" not in verdicts and not drifted else 1
    passes = "both" if args.traced else f"trace{args.trace}"
    out_path = args.out or str(OUT / f"result-{args.workload or 'all'}-{passes}.json")
    doc = run_set(args, spec, out_path)
    single = bool(args.workload) and not args.traced and args.runs == 1
    broken = [r for r in doc["runs"] if not r["metrics"]]
    if broken:
        # A pass that produced no numbers is an error, not a result.
        for record in broken:
            print(f"bench/run.py: {record['workload']} produced no metrics: "
                  f"{record['failures']}", file=sys.stderr)
        return 1
    print(summary_line(doc, single))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself (collected by the tier-1 command).

Runs every workload at ``--smoke`` sizes and checks the *shape* of what
comes out: BENCHMARK.json's schema, every declared name in the output with
its unit, correct results, a loadable trace.  No assertion looks at a time.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(BENCH))


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def test_benchmark_json_schema():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"] and doc["command"] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_smoke_run_prints_every_end_to_end_metric():
    import common

    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(common.WORKLOADS)
    result, stdout = run_bench("--smoke", "--seed", "5")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, stdout[-3000:]
    assert result["attempted"] >= 1
    for workload in common.WORKLOADS:
        for metric in doc["end_to_end"]:
            cell = result["metrics"][f"{workload}/{metric['name']}"]
            assert cell["unit"] == metric["unit"]
            assert isinstance(cell["value"], float) and cell["value"] != 0.0
            assert f"{metric['name']:<34}" in stdout  # printed by name, with its unit


def test_smoke_traced_pass_reports_layers_and_a_loadable_trace():
    doc = spec()
    result, stdout = run_bench("--smoke", "--workload", "direct_graph", "--trace", "1")
    assert result["correct"] is True, stdout[-3000:]
    assert set(result["metrics"]) == {m["name"] for m in doc["per_layer"]}
    for metric in doc["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    with open(BENCH / "out" / "trace-direct_graph.json", encoding="utf-8") as fh:
        events = json.load(fh)
    spans = [ev for ev in events if ev["ph"] == "X"]
    assert spans and all({"name", "cat", "ts", "dur", "args"} <= set(ev) for ev in spans)
    by_id = {ev["args"]["id"]: ev for ev in spans}
    assert all(ev["args"]["parent"] in by_id for ev in spans if ev["args"]["parent"] is not None)
    assert any(ev["name"] == "op.iteration" for ev in spans)
    # exact counts of the recorded graphs come out as whole numbers
    for name in ("compress.tasks", "pipeline.tasks.factorize", "kernels.entries", "dist.messages"):
        value = result["metrics"][name]["value"]
        assert value > 0 and value == int(value)


def test_compare_calls_identical_sets_unchanged():
    import compare

    doc = spec()
    bound = {m["name"]: m["bound"] for m in doc["end_to_end"]}

    def runs(compress_s, rps, factorize_s):
        cell = lambda v, unit: {"value": v, "unit": unit}
        return {"runs": [{"workload": "direct_seq", "metrics": {
            "compress_s": cell(compress_s, "s"), "throughput_rps": cell(rps, "1/s"),
            "core.factorize_s": cell(factorize_s, "s")}}] * 3}

    def verdicts(a, b):
        return {r["metric"]: r["verdict"] for r in compare.compare(a, b, doc)}

    base = runs(0.5, 10.0, 0.1)
    # worse by twice the bound: slower compress, lower throughput
    slow = runs(0.5 * (1 + 2 * bound["compress_s"]), 10.0 * (1 - 2 * bound["throughput_rps"]), 0.2)
    assert verdicts(base, base) == {"compress_s": "unchanged", "throughput_rps": "unchanged",
                                    "core.factorize_s": "layer"}
    assert verdicts(base, slow) == {"compress_s": "regressed", "throughput_rps": "regressed",
                                    "core.factorize_s": "layer"}
    assert verdicts(slow, base) == {"compress_s": "improved", "throughput_rps": "improved",
                                    "core.factorize_s": "layer"}

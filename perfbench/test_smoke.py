"""Smoke test of the benchmark: BENCHMARK.json schema, every workload
(those BENCHMARK.json lists and those run by name) at tiny size with and
without tracing, the fail-soft tracer and the run in a
directory that holds only the benchmark.

    python -m pytest perfbench -q

Not part of the tier-1 suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

sys.path.insert(0, BENCH)
import run  # noqa: E402


def load_bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def test_benchmark_json_schema():
    b = load_bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert 1 <= len(b["command"]) <= 32 and all(len(c) <= 200 for c in b["command"])
    assert not any(c.startswith("/") or ".." in c.split("/") for c in b["command"])
    assert 1 <= len(b["paths"]) <= 16
    for p in b["paths"]:
        assert PATH.match(p) and ".." not in p.split("/") and os.path.isdir(os.path.join(ROOT, p))
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    assert {w["name"] for w in b["workloads"]} <= set(run.SIZES)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(b["end_to_end"]) <= 16 and 1 <= len(b["per_layer"]) <= 128
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for x in b["workloads"] + b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.SIZES))
def test_tiny_workload(workload, trace):
    b = load_bench()
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = b["per_layer"] if trace else b["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    assert "trace.overhead" in result["metrics"]
    with open(os.path.join(WORK, f"trace-{workload}-seed7.json"), encoding="utf-8") as fh:
        trace_file = json.load(fh)
    assert trace_file["spans"] and set(trace_file["targets"]) == {m["name"] for m in wanted}
    assert all({"name", "start", "end", "parent", "self"} <= set(s) for s in trace_file["spans"])


def test_tracer_fails_soft_when_a_wrapped_name_is_gone():
    """A later change that removes a wrapped name costs its metrics, not the run."""
    os.makedirs(WORK, exist_ok=True)
    d = tempfile.mkdtemp(dir=WORK)
    try:
        code = (
            "import sys, json\n"
            f"sys.path.insert(0, {BENCH!r})\n"
            "import run, tracer, graphlets.embedding as e\n"
            "del e.sample_all\n"  # the embed path then fails inside the CLI, as it would
            "size = run.SIZES['retrieval-dense']['tiny']\n"
            f"inputs = run.make_inputs('retrieval-dense', 1, size, {d!r})\n"
            f"cmds = [(l, a) for l, a, _ in run.commands('retrieval-dense', 1, size, inputs, {d!r})]\n"
            "r = tracer.run_pass({'traced': True, 'commands': cmds, 'audit_t': None})\n"
            "print(json.dumps([r['rcs'], r['metrics'], r['not_measured']]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        assert proc.returncode == 0, proc.stderr
        rcs, metrics, reasons = json.loads(proc.stdout.strip().splitlines()[-1])
        assert rcs == {"kernel": 0, "knn": 0}
        assert metrics["kernels.matrix_calls"] == 2
        assert reasons["sampling.busy_s"] == "graphlets.embedding.sample_all not found"
    finally:
        shutil.rmtree(d, ignore_errors=True)


def test_tracer_marks_topologies_not_measured_when_the_hash_hook_fails():
    import tracer

    spans = [{"id": 0, "name": "hashing.hash_code", "parent": None, "busy": 1.0, "calls": 3,
              "attrs": {}}]
    missing = {"hashing.hash_code.hook": "hashing.hash_code hook failed: TypeError()"}
    metrics, reasons = tracer.layer_metrics(spans, missing, (2, 1), set())
    assert "hashing.distinct_topologies" not in metrics
    assert reasons["hashing.distinct_topologies"] == missing["hashing.hash_code.hook"]
    assert metrics["hashing.calls"] == 3


def test_failed_in_process_pass_is_a_failed_check(monkeypatch):
    os.makedirs(WORK, exist_ok=True)
    d = tempfile.mkdtemp(dir=WORK)
    try:
        monkeypatch.setattr(run, "BENCH", d)  # no tracer.py there: the pass cannot start
        size = run.SIZES["retrieval-dense"]["tiny"]
        inputs = run.make_inputs("retrieval-dense", 1, size, os.path.join(d, "inputs"))
        checker = run.Checker("retrieval-dense", 1, "tiny", size)
        metrics, reasons, _ = run.traced_layers("retrieval-dense", 1, size, inputs, d, checker)
        assert metrics == {} and "*" in reasons
        assert checker.failures and "untraced in-process pass failed" in checker.failures[0]
    finally:
        shutil.rmtree(d, ignore_errors=True)


def test_refuses_to_run_without_the_program():
    os.makedirs(WORK, exist_ok=True)
    d = tempfile.mkdtemp(dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(BENCH, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run_bench("--workload", "retrieval-dense", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=d)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(d, ignore_errors=True)

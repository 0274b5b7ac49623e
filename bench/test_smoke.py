"""Smoke test of the benchmark at tiny sizes.

    python -m pytest bench/test_smoke.py

Every workload runs untraced and traced; every metric named in BENCHMARK.json
appears with its unit and direction; the traced run writes spans that carry
parents; a scaled time leaves out the reference quanta and rescales the rest.
The statistical checks are not expected to pass at these sizes, so
``correct`` is not asserted here.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, extra=()):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace, ["--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    table = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['unit']:<6} ({m['better']} is better)" in table
    if not trace:
        for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
    elif workload == "heston-audit":
        check_spans_carry_parents(os.path.join(HERE, "out", "heston-audit-seed0-trace1-smoke.spans.jsonl"))


def check_spans_carry_parents(path):
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    by_id = {s["id"]: s for s in spans}
    children = [s for s in spans if s["parent"] is not None]
    assert children
    assert all(s["parent"] in by_id and s["start"] >= by_id[s["parent"]]["start"] for s in children)
    clamp = [s for s in children if s["name"] == "symcone.project_and_sqrt_psd_batch"]
    assert clamp and all(by_id[s["parent"]]["name"] == "simulator.heston_functionals" for s in clamp)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaled_time_removes_quanta_and_rescales():
    sys.path.insert(0, HERE)
    import speed

    sampler = speed.SpeedSampler()
    # handler entries every 0.1 s; the untimed quantum takes 1 ms, the timed one 4 ms
    sampler.starts = [0.1 * k for k in range(1, 40)]
    sampler.timed = [s + 0.001 for s in sampler.starts]
    sampler.ends = [s + 0.005 for s in sampler.starts]
    sampler.ends[5] += 0.1  # a descheduled quantum, left out of the mean
    assert speed.typical([e - t for t, e in zip(sampler.timed, sampler.ends)]) == pytest.approx(0.004)
    own, scaled = sampler.scaled(1.05, 3.05)  # the 20 handler calls from 1.1 s to 3.0 s
    assert own == pytest.approx(2.0 - 20 * 0.005)
    assert scaled == pytest.approx(own * speed.NOMINAL_QUANTUM_S / 0.004)

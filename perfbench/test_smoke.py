"""Self-tests of the benchmark, on tiny seeded rounds of each workload.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
(The repository's own test run does not collect this directory.)
"""
from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = [m["name"] for m in BENCH["per_layer"]
          if m["unit"] != "s"]  # everything but times repeats exactly


def smoke(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_no_failures(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["attempted"] >= 1 and doc["failed"] == 0 and doc["correct"] is True
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert sorted(doc["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} " in proc.stdout and proc.stdout.count(f" {m['unit']}\n")
    assert lines[0].startswith("machine ")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [json.loads(smoke(workload, 1).stdout.strip().splitlines()[-1]) for _ in range(2)]
    for name in COUNTS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = smoke("analyzer", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_wrong_answer(workload):
    wl = workloads.WORKLOADS[workload]()
    for op in wl.round(random.Random(5), smoke=True):
        op = wl.prepare(op)
        result = wl.run(op)
        wl.check(op, result)
        if workload == "scale":
            out, events = result
            key = next(iter(out.terms))
            bad = dict(out.terms)
            bad[key] = -bad[key]
            wrong = (type(out)(bad, out.delays), events)
        elif workload == "field":
            code, text = result
            lines = text.split("\n")
            row = lines[2 + op.expect[-1][0]].split(",")  # a point the check samples
            row[2] = repr(float(row[2]) * 1.5 + 1.0)
            lines[2 + op.expect[-1][0]] = ",".join(row)
            wrong = (code, "\n".join(lines))
        else:
            code, text = result
            last = list(re.finditer(r"-?\d+(\.\d+)?(e[-+]?\d+)?", text))[-1]
            bad = repr(float(last.group()) * 1.5 + 1.0)
            wrong = (code, text[:last.start()] + bad + text[last.end():])
        with pytest.raises(workloads.CheckFailed):
            wl.check(op, wrong)


def test_host_speed_scaling_divides_by_the_bracketing_slowdown():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.KERNEL_REF_S
    speed.samples = [ref, ref, 2 * ref, 2 * ref, ref, 3 * ref]
    assert speed.scale_times([0.1, 0.1, 0.1]) == pytest.approx([0.1, 0.05, 0.05])
    with pytest.raises(ValueError):
        speed.scale_times([0.1])

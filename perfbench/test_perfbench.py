"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of the checkout.  They plant faults through wrappers (the
program's source is not touched), check that generated inputs depend only on
the seed, and check the result line and the refusal to run without source.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import flagcalc.characteristics as ch  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402


def _workload(name):
    return workloads.WORKLOADS[name](root=ROOT, trace=False, scratch=None)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    first = json.dumps(_workload(name).plan(7), sort_keys=True)
    again = json.dumps(_workload(name).plan(7), sort_keys=True)
    other = json.dumps(_workload(name).plan(8), sort_keys=True)
    assert first == again
    assert first != other


def test_planted_wrong_value_and_exception_are_counted(monkeypatch):
    original = ch.characteristic
    calls = {"n": 0}

    def faulty(table, w, classes):
        calls["n"] += 1
        if calls["n"] == 2:
            return original(table, w, classes) + 1
        if calls["n"] == 3:
            raise RuntimeError("planted")
        return original(table, w, classes)

    monkeypatch.setattr(ch, "characteristic", faulty)
    wl = _workload("characteristics")
    plan = wl.plan(1)
    ops = wl.prepare(plan)
    n = len(ops)
    out = worker.measure(wl, plan, [ops], seconds=0)
    assert out["passes"] == 1
    assert out["attempted"] == out["ops_per_pass"] == n
    assert out["failed"] == 2
    assert any("wrong answer" in f for f in out["failures"])
    assert any("RuntimeError: planted" in f for f in out["failures"])


def test_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "present",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"solve_s", "op_p50_ms", "op_tail_ms",
                                      "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "characteristics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

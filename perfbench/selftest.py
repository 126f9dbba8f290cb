"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Not named test_*.py on purpose: the acceptance workload needs about half a
minute per run, so these stay out of the repository's tier-1 test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _first(addix, fields, workload, seed, count):
    stream = workloads.requests(addix, fields, workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    addix, fields, _, _ = run.setup(workload)
    count = 2 * workloads.cycle_length(workload)
    first = _first(addix, fields, workload, 5, count)
    assert first == _first(addix, fields, workload, 5, count)
    assert first != _first(addix, fields, workload, 6, count)


def _run(workload, trace, cwd=run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_produced(workload):
    e2e, layers, units = run.metric_names()
    for trace, names in ((0, e2e), (1, layers)):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
            if trace == 0:
                assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_answers_agree(workload):
    addix, fields, _, _ = run.setup(workload)
    _, failures, plain, _, _ = run.run_loop(addix, fields, workload, 4, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced_failures, traced, _, _ = run.run_loop(addix, fields, workload, 4, 0, tracer)
    finally:
        tracer.uninstall()
    assert not failures and not traced_failures
    assert plain == traced
    assert tracer.spans and tracer.calls


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("image", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

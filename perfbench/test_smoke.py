"""Smoke test for the benchmark: every workload, traced and untraced, at a
tiny size prints every metric BENCHMARK.json names, with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_fails_without_the_package_source():
    # A copy holding only BENCHMARK.json and the benchmark has no src/.
    copy = os.path.join(ROOT, ".perfbench-work", "bare-copy")
    shutil.rmtree(copy, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(copy, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
        proc = _run(copy, "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(copy, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(copy))
        except OSError:
            pass
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

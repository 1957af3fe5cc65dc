"""Fast self-test of the benchmark: every workload's code path at the
``tiny`` config, in both modes, emits exactly the metrics BENCHMARK.json
names, passes its output checks, and appends a tagged trajectory record.

    python3 -m pytest wallbench/test_selftest.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace, tmp_path):
    history = tmp_path / "trajectory.jsonl"
    done = run_bench(["--workload", workload, "--seed", "3", "--seconds",
                      "1", "--trace", str(trace), "--config", "tiny",
                      "--history", str(history)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]

    if not trace:
        # the medians nothing gates are still printed by name
        report = done.stdout.splitlines()[:-1]
        for name in ("loop_ms.p50", "forward_ms.p50", "profile_ms.p50",
                     "restore_ms.p50"):
            assert any(line.split()[:1] == [name] for line in report), name

    record = json.loads(history.read_text().splitlines()[-1])
    assert record["clock"] == "wall" and record["seed"] == 3
    assert record["workload"] == workload and record["host"]["id"]
    assert len(record["source_sha256"]) == 64


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    command = BENCHMARK["command"][1:]
    done = subprocess.run(
        [sys.executable, *command, "--workload", WORKLOADS[0], "--seed",
         "1", "--seconds", "1", "--trace", "0", "--history", ""],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout

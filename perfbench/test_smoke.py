"""Smoke check of the benchmark, each workload at its smallest size.

    python3 -m pytest perfbench/test_smoke.py

Asserts that every metric named in BENCHMARK.json is emitted with its
unit, that a deliberately wrong expected value is counted as a failure,
that the quadrature accuracy section repeats bit for bit across
processes, and that the benchmark refuses to run without the library.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_emitted_and_wrong_value_counted(workload, trace):
    result, _, _, bench = run.run(workload, seed=7, seconds=0.01,
                                  trace=trace, smoke=True)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert bench.check(corrupt=True) >= 1


def accuracy_in_subprocess():
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import slicereg, quadrature; "
            "print(json.dumps(quadrature.accuracy_section(slicereg)))")
    out = subprocess.run([sys.executable, "-c", code, run.SRC, run.HERE],
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout)


def test_accuracy_section_repeats_across_processes():
    assert accuracy_in_subprocess() == accuracy_in_subprocess()


def test_refuses_without_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "algebra", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests

Every workload prints every metric named in BENCHMARK.json with its unit, in
both modes; one seed reproduces identical inputs and output digest; and
without the package sources the benchmark fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--pool", "6"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc, proc.stdout.splitlines()


def line(lines: list[str], prefix: str) -> str:
    return next(text for text in lines if text.startswith(prefix))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, kind):
    proc, lines = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert any(text.split()[:1] == [name] and text.endswith(" " + m["unit"]) for text in lines)


def test_one_seed_reproduces_inputs_and_digest():
    first = run("flat-affine", 0, seed=3)[1]
    again = run("flat-affine", 0, seed=3)[1]
    other = run("flat-affine", 0, seed=4)[1]
    assert line(first, "workload") == line(again, "workload")
    assert line(first, "outputs") == line(again, "outputs")
    assert line(first, "workload") != line(other, "workload")


def test_refuses_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run("small-mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(text.startswith("{") for text in lines)

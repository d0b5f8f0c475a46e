"""Smoke test of the benchmark on tiny inputs (ladder d = 6, five survey
curves, two cli invocations).

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric of BENCHMARK.json is emitted with its unit,
that a corrupted reference trips the correctness gate, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def checkout(tmp_path: Path, with_program: bool = True) -> Path:
    """A copy of the files the benchmark needs, outside this repository."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    return tmp_path


def corrupted(tmp_path: Path, change) -> Path:
    root = checkout(tmp_path)
    reference = wl.load_reference()
    change(reference)
    (root / "perfbench" / "reference.json").write_text(json.dumps(reference))
    return root


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in out["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    values = [metric["value"] for metric in out["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if kind == "end_to_end":
        assert all(v > 0 for v in values)


def test_reference_holds_criterion_1():
    d20 = wl.load_reference()["reports"][wl.ladder_curve(20)]
    assert d20["exponents"] == [9, 19, 19]
    assert d20["tjurina"] == 190
    assert d20["nu"] == 81


def test_corrupted_report_trips_the_gate(tmp_path):
    def change(reference):
        reference["reports"][wl.ladder_curve(6)]["tjurina"] += 1

    proc = bench("--workload", "ladder", cwd=corrupted(tmp_path, change))
    assert proc.returncode == 1
    out = result(proc)
    assert out["correct"] is False and out["failed"] == out["attempted"]
    assert "wrong output" in proc.stderr


def test_corrupted_rejection_trips_the_gate(tmp_path):
    def change(reference):
        for entry in reference["survey_pool"]:
            entry[2] = wl.NOT_REDUCED if entry[2] != wl.NOT_REDUCED else "0" * 16

    proc = bench("--workload", "survey", cwd=corrupted(tmp_path, change))
    assert proc.returncode == 1
    assert result(proc)["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench("--workload", "ladder", cwd=checkout(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert proc.stdout == ""

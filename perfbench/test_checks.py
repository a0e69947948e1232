"""Tests of the benchmark's own checks, and a quick end-to-end run.

    python3 -m pytest perfbench -q

Each output check must fail on a bad input; the quick mode runs both
workloads on the ``tiny`` dataset in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- frontier ----------------------------------------------------------
ROWS = {"a": (10.0, 5.0, 7.0), "b": (8.0, 6.0, 7.0),
        "c": (12.0, 6.0, 8.0), "d": (10.0, 5.0, 7.0)}


def test_frontier_recomputed_from_rows():
    assert checks.pareto_labels(ROWS) == {"a", "b", "d"}
    assert checks.check_frontier(ROWS, ["a", "b", "d"]) == []


def test_dominated_point_in_frontier_fails():
    problems = checks.check_frontier(ROWS, ["a", "b", "c", "d"])
    assert any("dominated" in p and "'c'" in p for p in problems)


def test_missing_frontier_point_fails():
    assert checks.check_frontier(ROWS, ["a", "d"])


def test_unknown_or_repeated_frontier_label_fails():
    assert checks.check_frontier(ROWS, ["a", "b", "d", "zz"])
    assert checks.check_frontier(ROWS, ["a", "b", "d", "a"])


# -- modelled hardware -------------------------------------------------
def test_cycles_at_the_dram_bound_pass():
    assert checks.check_dram_bound("p", 1000, 256_000, 256.0) == []


def test_cycles_below_the_dram_bound_fail():
    problems = checks.check_dram_bound("p", 999, 256_000, 256.0)
    assert problems and "below the DRAM bound" in problems[0]


def test_unit_busy_longer_than_the_run_fails():
    assert checks.check_busy("p", 100, {"dense.compute": 100}) == []
    assert checks.check_busy("p", 100, {"dense.compute": 101})


def test_same_quantity_computed_twice_must_agree():
    assert checks.check_same("p", "cycles", 5, 5) == []
    assert checks.check_same("p", "cycles", 5, 6)


# -- values ------------------------------------------------------------
def test_values_within_tolerance_pass():
    expected = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    assert checks.check_values("v", expected + 5e-6, expected) == []


def test_value_mismatch_above_tolerance_fails():
    expected = np.zeros((3, 4))
    actual = expected.copy()
    actual[1, 2] = 2e-5
    problems = checks.check_values("v", actual, expected)
    assert problems and "1 values differ" in problems[0]


def test_value_shape_and_nan_fail():
    expected = np.zeros((3, 4))
    assert checks.check_values("v", np.zeros((4, 3)), expected)
    assert checks.check_values("v", np.full((3, 4), np.nan), expected)


# -- the whole benchmark, quick ----------------------------------------
def run_benchmark(*args: str, cwd: Path = HERE.parent
                  ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_prints_every_metric(workload, trace):
    done = run_benchmark("--workload", workload, "--seed", "3",
                         "--seconds", "0.2", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_benchmark("--workload", "cold-gat", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

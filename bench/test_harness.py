"""Tiny-size self-check of the benchmark harness.

    python3 -m pytest -q bench

Runs every workload for one pass (``--seconds 0``) and the traced run twice,
all through run.py, and checks that every metric BENCHMARK.json names is
emitted with its unit, that no operation failed, that the traced run's work
counts repeat exactly, and that run.py refuses to run without the package
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1
EXACT_COUNTS = (
    "zeta.iters_per_solve",
    "zeta.iters_ge20_frac",
    "solvers.feasibility_tests_per_solve",
    "solvers.sweeps_per_test",
    "solvers.feasible_frac",
    "solvers.zeta_solves_per_solve",
    "oracles.lattice_points",
)


def run_bench(*args, cwd=ROOT, run_py=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def assert_metrics(result, specs):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    info, result = result_of(run_bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "0",
    ))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert info["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    for m in SPEC["end_to_end"]:
        if m["name"] in info["raw"]:  # the same figure before the host-speed scaling
            assert info["raw"][m["name"]]["unit"] == m["unit"] and info["raw"][m["name"]]["value"] > 0
    assert all(s > 0 for s in info["host_slowdown"].values()) and info["setup_slowdown"] > 0
    assert info["seed"] == SEED and info["nproc"] >= 1
    assert info["numpy"] and info["python"] and info["git_sha"]


def test_per_layer_metrics_and_exact_counts():
    args = ("--workload", "mmf_siso", "--seed", str(SEED), "--trace", "1")
    runs = [result_of(run_bench(*args))[1] for _ in range(2)]
    for result in runs:
        assert_metrics(result, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    assert runs[0]["metrics"]["oracles.lattice_points"]["value"] == 937_024


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "mmf_siso", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, run_py=tmp_path / "bench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

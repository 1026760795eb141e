"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench -q

Each test runs ``run.py`` in a fresh process, as the benchmark is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    out = subprocess.run(
        [sys.executable, str(script), "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def result(*args: str) -> tuple[dict, str]:
    out = bench(*args)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    assert res["correct"] == (res["failed"] == 0)
    return res, out.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    res, _ = result("--workload", workload, "--seed", "1", "--trace", "0")
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted_with_its_unit(workload):
    res, _ = result("--workload", workload, "--seed", "1", "--trace", "1")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", ["solve", "cli"])
def test_a_perturbed_amle_value_counts_as_a_failure(workload):
    clean, _ = result("--workload", workload, "--seed", "2", "--trace", "0")
    assert clean["failed"] == 0
    bad, err = result("--workload", workload, "--seed", "2", "--trace", "0", "--corrupt", "amle")
    assert bad["failed"] >= 1 and not bad["correct"]
    assert "local residual" in err


def test_the_known_poincare_defect_is_reported_and_nothing_fails_on_diagnose():
    res, err = result("--workload", "diagnose", "--seed", "3", "--trace", "0")
    assert res["failed"] == 0, err
    known = [ln for ln in err.splitlines() if "KNOWN DEFECT" in ln]
    assert known and all(": poincare: " in ln and "C = inf" in ln for ln in known)


def test_a_real_oscillation_on_a_one_vertex_ball_is_not_excused():
    res, err = result("--workload", "diagnose", "--seed", "3", "--trace", "0",
                      "--corrupt", "poincare")
    assert res["failed"] >= 1 and not res["correct"]
    assert "FAILED" in err and "oscillation 0.001" in err


def test_sweep_counts_repeat_for_a_seed():
    runs = [result("--workload", "solve", "--seed", "4", "--trace", "1")[0] for _ in range(2)]
    sweeps = [r["metrics"]["amle.solve_amle.sweeps"]["value"] for r in runs]
    assert sweeps[0] == sweeps[1] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = bench("--workload", "solve", "--seed", "1", "--trace", "0",
                    cwd=bare, script=bare / HERE.name / "run.py")
        assert out.returncode != 0
        assert out.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

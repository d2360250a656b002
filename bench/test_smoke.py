"""Smoke test for the benchmark: one short run on the readme workload, with
tracing off and on, so the harness cannot rot.

It lives with the benchmark and stays out of the tier-1 suite, which
collects tests/ only.  Run it from the repository root with

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "readme", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


def assert_metrics(result, declared):
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end_metrics():
    result = result_of(bench(ROOT, "--trace", "0"))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_layer_metrics():
    result = result_of(bench(ROOT, "--trace", "1"))
    assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    # the readme commands load, normalize and serialize, read the newform
    # cache and multiply in number fields
    for name in ("eigensystem.serialize_s", "lmfdb.fetch_newform_s",
                 "numberfield.mul_calls", "numberfield.mul_us.deg4"):
        assert metrics[name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Every workload end to end at smoke scale, untraced and traced, plus ``compare``.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"] for m in SPEC["per_layer"]}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_traced_at_smoke_scale(workload, tmp_path):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "1", "--smoke", "--out", str(tmp_path / "r.json"))
    out = _last_json(proc)
    assert set(out["metrics"]) == LAYERS
    records = json.loads((tmp_path / "r.json").read_text())
    assert [r["traced"] for r in records] == [False, True]
    assert set(records[0]["metrics"]) == E2E
    assert all(r["correct"] for r in records)


def test_untraced_run_reports_end_to_end_metrics():
    out = _last_json(_run("--workload", "colony-tsp", "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(out["metrics"]) == E2E
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "serve-hot", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record_set(directory: Path, throughput: float):
    directory.mkdir()
    for seed in range(3):
        metrics = {m: 1.0 + 0.01 * seed for m in E2E}
        metrics["throughput_per_s"] = throughput + seed
        record = {"workload": "paper-race", "traced": False, "valid": True, "metrics": metrics}
        (directory / f"{seed}.json").write_text(json.dumps([record]))


def test_compare_flags_only_the_metric_outside_its_bound(tmp_path):
    _record_set(tmp_path / "a", 1000.0)
    _record_set(tmp_path / "b", 1000.0)
    _record_set(tmp_path / "slow", 500.0)
    same = _run("compare", str(tmp_path / "a"), str(tmp_path / "b"))
    assert same.returncode == 0, same.stdout
    slow = _run("compare", str(tmp_path / "a"), str(tmp_path / "slow"))
    assert slow.returncode == 1
    flagged = [line for line in slow.stdout.splitlines() if "FLAGGED" in line]
    assert len(flagged) == 1 and "throughput_per_s" in flagged[0]

"""BENCH_tune record: miniature end-to-end run plus schema validation."""

import copy
import json
import os

import pytest

from repro.bench.record import SCHEMA, validate, write
from repro.tune.bench import SMOKE, render_bench_tune, run_bench_tune


@pytest.fixture(scope="module")
def report(tune_record):
    return tune_record


class TestMiniatureRun:
    def test_record_is_well_formed(self, report):
        validate(report)
        assert report["schema"] == SCHEMA
        assert [g["name"] for g in report["gates"] if g["required"]] == [
            "predictor.ok",
            "determinism.ok",
        ]

    def test_calibration_section_carries_the_cost_model(self, report):
        cal = report["calibration"]
        assert cal["draw_ns"] > 0.0
        assert cal["spawn_overhead_s"] > 0.0
        assert cal["min_draws_per_worker"] == pytest.approx(
            cal["spawn_overhead_s"] / (cal["draw_ns"] * 1e-9), abs=1.0
        )
        # The predictor consumed the whole race-rounds probe.
        assert report["predictor"]["trials"] == 4000

    def test_race_law_oracle_holds(self, report):
        # The noise-free half of the prediction gate must pass on any
        # host — it compares the empirical pipeline to the analytic pmf.
        pred = report["predictor"]
        assert pred["ok"], pred
        assert pred["worst_relative_error"] <= pred["tolerance"]

    def test_speedup_gate_ran_or_skipped_with_reason(self, report):
        sg = report["speedup_gate"]
        verdict = next(
            g for g in report["gates"]
            if g["name"] == "speedup_gate.worst_relative_error"
        )
        if verdict["skipped"]:
            assert verdict["reason"] and "per_worker" not in sg
        else:
            assert set(sg["per_worker"]) == {"1", "2", "4"}
            assert sg["worst_relative_error"] >= 0.0

    def test_determinism_certificates(self, report):
        det = report["determinism"]
        assert det["parallel_counts_identical"]
        assert det["ok"]

    def test_write_and_render(self, report, tmp_path):
        path = write(report, str(tmp_path / "BENCH_tune.json"))
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["schema"] == SCHEMA
        text = render_bench_tune(report)
        assert "gates:" in text
        assert "race-law check" in text


def test_bench_tune_writes_no_file(tmp_path, monkeypatch):
    # With no REPRO_* settings and a fresh home, the bench must leave
    # the filesystem as it found it: its numbers live in the record only.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    run_bench_tune(**SMOKE)
    assert list(tmp_path.rglob("*")) == []


class TestValidation:
    def test_rejects_tampered_records(self, report):
        for mutate in (
            lambda r: r.update(schema="repro/other/v1"),
            lambda r: r.pop("calibration"),
            lambda r: r.pop("gates"),
            lambda r: r["predictor"].update(ok="yes"),
            lambda r: r["calibration"].update(draw_ns=float("nan")),
            lambda r: r["calibration"].update(draw_ns=-1.0),
            lambda r: r["gates"][1].update(skipped=True, met=None, reason=None),
        ):
            bad = copy.deepcopy(report)
            mutate(bad)
            with pytest.raises(ValueError):
                validate(bad)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate([])

"""BENCH_select: record assembly, gates, validator, renderer."""

import json

import pytest

from repro.bench.record import SCHEMA, validate, write
from repro.select.bench import render_bench_select


@pytest.fixture(scope="module")
def report(select_record):
    # One small-but-real run shared across the module's assertions.
    return select_record


def _gate(report, name):
    return next(g for g in report["gates"] if g["name"] == name)


def _with_gate(report, name, **changes):
    bad = json.loads(json.dumps(report))
    _gate(bad, name).update(changes)
    return bad


class TestRecord:
    def test_schema_and_sections(self, report):
        assert report["schema"] == SCHEMA
        assert report["bench"] == "select"
        for section in (
            "config", "lottery", "rs", "parallel", "prediction",
            "determinism", "meta",
        ):
            assert isinstance(report[section], dict)

    def test_lottery_gate_separates_backends(self, report):
        lot = report["lottery"]
        precise = lot["methods"]["log_bidding"]["empirical_max_abs"]
        biased = lot["methods"]["independent"]["empirical_max_abs"]
        assert precise <= lot["tolerance"] < biased
        assert _gate(report, "lottery.methods.log_bidding.empirical_max_abs")["met"]
        assert _gate(report, "lottery.methods.independent.empirical_max_abs")["met"]
        # The bias is structural: the analytic (infinite-budget) error
        # of the independent baseline is also outside tolerance.
        assert lot["methods"]["independent"]["analytic_max_abs"] > lot["tolerance"]
        assert lot["methods"]["log_bidding"]["analytic_max_abs"] < 1e-9

    def test_rs_gate(self, report):
        rs = report["rs"]
        assert rs["pcs"] >= rs["target_pcs"]
        assert _gate(report, "rs.pcs")["met"]

    def test_parallel_leg_skips_or_measures(self, report):
        par, verdict = report["parallel"], _gate(report, "parallel.relative_error")
        if verdict["skipped"]:
            assert verdict["met"] is None and "measured_speedup" not in par
            assert "cpu_count" in verdict["reason"]
        else:
            assert par["measured_speedup"] > 0
            assert isinstance(verdict["met"], bool)

    def test_prediction_check(self, report):
        pred = report["prediction"]
        assert pred["round_times_recorded"] >= 2
        assert _gate(report, "prediction.worst_relative_error")["met"]

    def test_determinism_certificate(self, report):
        det = report["determinism"]
        assert det["selections_identical"]
        assert det["sample_counts_identical"]
        assert det["ok"]

    def test_gates_met(self, report):
        required = [g["name"] for g in report["gates"] if g["required"]]
        assert required == [
            "lottery.methods.log_bidding.empirical_max_abs",
            "lottery.methods.independent.empirical_max_abs",
            "determinism.ok",
        ]
        assert all(_gate(report, name)["met"] for name in required)

    def test_round_trips_through_json(self, report, tmp_path):
        path = write(report, str(tmp_path / "BENCH_select.json"))
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        validate(loaded)

    def test_render_is_one_screen(self, report):
        text = render_bench_select(report)
        assert "gates:" in text
        assert "lottery" in text and "rs (" in text


class TestValidator:
    def test_accepts_valid(self, report):
        validate(report)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate([])

    def test_rejects_schema_mismatch(self, report):
        bad = dict(report, schema="repro/other/v1")
        with pytest.raises(ValueError, match="schema"):
            validate(bad)

    def test_rejects_missing_section(self, report):
        bad = {k: v for k, v in report.items() if k != "lottery"}
        with pytest.raises(ValueError, match="lottery"):
            validate(bad)

    def test_requires_determinism_certificate(self, report):
        bad = dict(report, determinism=dict(report["determinism"], ok=False))
        with pytest.raises(ValueError, match="determinism"):
            validate(bad)

    def test_skipped_parallel_needs_reason(self, report):
        bad = _with_gate(
            report, "parallel.relative_error",
            skipped=True, met=None, measured=None, reason="",
        )
        with pytest.raises(ValueError, match="reason"):
            validate(bad)

    def test_rejects_out_of_range_pcs(self, report):
        bad = dict(report, rs=dict(report["rs"], pcs=1.5))
        with pytest.raises(ValueError, match="pcs"):
            validate(bad)

    def test_write_refuses_invalid(self, report, tmp_path):
        bad = dict(report, determinism=dict(report["determinism"], ok=False))
        with pytest.raises(ValueError):
            write(bad, str(tmp_path / "nope.json"))
        assert not (tmp_path / "nope.json").exists()

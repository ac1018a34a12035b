"""BENCH_race.json: produced, validated, rendered, persisted."""

import json

import pytest

from repro.bench.record import SCHEMA, validate, write
from repro.cli import main as cli_main
from repro.engine.race_bench import render_bench_race, run_bench_race


@pytest.fixture(scope="module")
def report(race_record):
    return race_record


def test_run_bench_race_is_well_formed(report):
    validate(report)  # must not raise
    assert report["schema"] == SCHEMA
    assert report["config"]["ks"] == [16, 256]
    r = report["results"]
    assert len(r["per_k"]) == 2
    assert r["speedup_vs_pram"] > 0
    assert r["determinism_rerun_identical"] is True


def test_per_k_entries_track_exact_law(report):
    for entry in report["results"]["per_k"]:
        assert entry["mean_in_ci"], (entry["k"], entry["mean"], entry["ci"])
        assert entry["exact_mean"] <= entry["paper_bound"]
        assert entry["quantiles"].keys() == entry["exact_quantiles"].keys()


def test_speedup_gate_holds_even_tiny(report):
    """The >= 50x acceptance gate clears by orders of magnitude."""
    assert report["results"]["speedup_vs_pram"] >= 50.0
    speedup = next(
        g for g in report["gates"] if g["name"] == "results.speedup_vs_pram"
    )
    assert speedup["met"] is True and not speedup["required"]


def test_race_law_oracle_holds(report):
    # The noise-free speedup-model check passes on any host: the
    # empirical pipeline against the analytic round-count pmf.
    law = report["race_law"]
    assert law["k"] == 64 and law["trials"] == 20_000
    assert law["worst_relative_error"] <= 0.05
    assert "ok" not in law and "tolerance" not in law
    oracle = next(
        g for g in report["gates"] if g["name"] == "race_law.worst_relative_error"
    )
    assert oracle["required"] and oracle["met"] is True
    assert oracle["target"] == "<= 0.05"


def test_race_law_gate_rederives_its_verdict(report):
    # The verdict is re-derived from the error itself: a record whose
    # error is edited to 0.9 (gate measurement included) fails validate.
    bad = json.loads(json.dumps(report))
    bad["race_law"]["worst_relative_error"] = 0.9
    oracle = next(g for g in bad["gates"] if g["name"] == "race_law.worst_relative_error")
    oracle["measured"] = 0.9
    with pytest.raises(ValueError, match="race_law.worst_relative_error"):
        validate(bad)


def test_race_law_oracle_is_seeded(report):
    # sample_round_counts(64, 20_000, seed=0): the value is bit for bit
    # the one the speedup-model oracle has always measured at seed 0.
    assert report["config"]["seed"] == 0
    assert report["race_law"]["worst_relative_error"] == 0.0019142045945384945


def test_write_bench_race_round_trips(tmp_path, report):
    path = write(report, str(tmp_path / "BENCH_race.json"))
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    validate(loaded)
    assert loaded["results"].keys() == report["results"].keys()


def test_render_bench_race_summary(report):
    text = render_bench_race(report)
    assert "race bench" in text
    assert "speedup vs per-step PRAM" in text
    assert "determinism" in text
    assert "exact race law" in text


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("schema"),
        lambda r: r.update(schema="something/else"),
        lambda r: r.pop("results"),
        lambda r: r["results"].pop("per_k"),
        lambda r: r["results"].update(per_k=[]),
        lambda r: r["results"]["per_k"][0].pop("mean"),
        lambda r: r["results"].update(speedup_vs_pram=-1.0),
        lambda r: r["results"].update(determinism_sha256="short"),
        lambda r: r["results"].update(determinism_rerun_identical=False),
        lambda r: r.pop("race_law"),
        lambda r: r["race_law"].update(worst_relative_error=0.9),
        lambda r: r["race_law"].update(worst_relative_error="small"),
    ],
)
def test_validate_bench_race_rejects_malformed(report, mutate):
    bad = json.loads(json.dumps(report))
    mutate(bad)
    with pytest.raises(ValueError):
        validate(bad)


def test_run_bench_race_validation():
    with pytest.raises(ValueError):
        run_bench_race(ks=())
    with pytest.raises(ValueError):
        run_bench_race(ks=(0,))
    with pytest.raises(ValueError):
        run_bench_race(trials=0)


def test_cli_bench_race_writes_report(tmp_path, capsys):
    out = tmp_path / "bench_race.json"
    assert cli_main(["bench", "race", "--smoke", "--output", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "race bench" in captured
    with open(out, encoding="utf-8") as fh:
        loaded = json.load(fh)
    validate(loaded)
    assert loaded["config"]["ks"] == [64, 256]
    assert loaded["config"]["pram_k"] == 64  # anchored to the smoke grid


def test_cli_list_includes_bench_race(capsys):
    assert cli_main(["--list"]) == 0
    assert "bench" in capsys.readouterr().out.split()

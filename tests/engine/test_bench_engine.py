"""BENCH_engine.json: produced, validated, rendered, persisted."""

import json
import os

import pytest

from repro.bench.record import SCHEMA, validate, write
from repro.cli import main as cli_main
from repro.engine.bench import render_bench


@pytest.fixture(scope="module")
def report(engine_record):
    return engine_record


def test_run_bench_is_well_formed(report):
    validate(report)  # must not raise
    assert report["schema"] == SCHEMA
    assert report["bench"] == "engine"
    assert report["config"]["n"] == 50
    assert report["config"]["draws"] == 20_000
    assert report["config"]["kernel_auto"] == "alias"
    assert report["config"]["kernel_faithful"] == "race"
    r = report["results"]
    assert r["speedup_compiled_vs_registry"] > 0
    assert r["compiled_ns_per_draw"] > 0


def test_write_bench_round_trips(tmp_path, report):
    path = write(report, str(tmp_path / "BENCH_engine.json"))
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    validate(loaded)
    assert loaded["results"].keys() == report["results"].keys()


def test_render_bench_summary(report):
    text = render_bench(report)
    assert "engine bench" in text
    assert "speedup compiled/registry" in text
    assert "results.speedup_compiled_vs_registry" in text
    assert "determinism: parallel_counts=True" in text


def test_determinism_certificate(report):
    # parallel_counts(workers=None) replays bit for bit and equals an
    # explicit workers=suggest_workers(size) call.
    det = report["determinism"]
    assert det["parallel_counts_identical"] and det["ok"]
    # Sized at two workers' worth of draws, so it fans out where it can.
    assert det["resolved_workers"] >= min(2, os.cpu_count() or 1)
    cert = next(g for g in report["gates"] if g["name"] == "determinism.ok")
    assert cert["required"] and cert["met"] is True


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("schema"),
        lambda r: r.update(schema="something/else"),
        lambda r: r.pop("results"),
        lambda r: r["results"].pop("stream_counts_s"),
        lambda r: r["results"].update(stream_counts_s=-1.0),
        lambda r: r["results"].update(stream_counts_s="fast"),
        lambda r: r.pop("determinism"),
        lambda r: r["determinism"].update(ok=False),
        lambda r: r["determinism"].update(ok="yes"),
    ],
)
def test_validate_bench_rejects_malformed(report, mutate):
    bad = json.loads(json.dumps(report))
    mutate(bad)
    with pytest.raises(ValueError):
        validate(bad)


def test_validate_bench_rejects_non_dict():
    with pytest.raises(ValueError):
        validate(["not", "a", "report"])


def test_cli_bench_engine_writes_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert cli_main(["bench", "engine", "--smoke", "--output", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "engine bench" in captured
    with open(out, encoding="utf-8") as fh:
        loaded = json.load(fh)
    validate(loaded)
    assert loaded["config"]["n"] == 200  # the --smoke configuration


def test_cli_list_includes_bench_engine(capsys):
    assert cli_main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert "bench" in listed
    assert not [name for name in listed if name.startswith("bench-")]

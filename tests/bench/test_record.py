"""The shared bench record: one validator and its gate rules, all six drivers."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench import record
from repro.bench.record import DRIVERS, GATE, failed_gates, validate, verdict, write
from repro.cli import main as cli_main


_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def lab_record():
    # The lab gate SIGKILLs a real `lab run` subprocess (seconds of wall
    # time); its committed record stands in for a tiny run.
    return json.loads((_ROOT / "BENCH_lab.json").read_text())


@pytest.fixture(params=sorted(DRIVERS))
def report(request):
    """A fresh, mutable copy of each driver's tiny record."""
    return json.loads(json.dumps(request.getfixturevalue(f"{request.param}_record")))


def _gates(report):
    return {g["name"]: g for g in report["gates"]}


def _certificates(report):
    """The gates the driver's REQUIRED data pins as required and evaluated."""
    required = record.driver(report["bench"]).REQUIRED
    return [path for path, kind, *_ in required if kind == GATE]


def _skippable(report):
    """The first gate that may legitimately be skipped, or None."""
    pinned = set(_certificates(report))
    return next((g for g in report["gates"] if g["name"] not in pinned), None)


def _set(node, path, value):
    """Set the value at ``path`` (``*`` takes the first entry)."""
    parts = path.split(".")
    for part in parts[:-1]:
        if part == "*":
            node = next(iter(node.values())) if isinstance(node, dict) else node[0]
        else:
            node = node[part]
    node[parts[-1]] = value


def _drop(node, parts):
    """Delete the first value at a REQUIRED path (``*`` takes the first entry)."""
    for part in parts[:-1]:
        if part == "*":
            node = next(iter(node.values())) if isinstance(node, dict) else node[0]
        else:
            node = node[part]
    if parts[-1] == "*":
        node.clear()
    else:
        del node[parts[-1]]


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_committed_record_validates(name):
    committed = json.loads((_ROOT / f"BENCH_{name}.json").read_text())
    validate(committed)
    assert committed["bench"] == name


def test_valid_record_passes(report, tmp_path):
    validate(report)
    assert report["schema"] == record.SCHEMA
    assert report["bench"] in DRIVERS
    assert set(report["meta"]) >= {"repro", "cpu_count", "timestamp"}
    path = write(report, str(tmp_path / "BENCH.json"))
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == report


def test_every_required_path_is_checked(report):
    gates = _gates(report)
    for path, _kind, *when in record.driver(report["bench"]).REQUIRED:
        if when and gates[when[0]]["skipped"]:
            continue  # not measured on this host, so not required
        bad = json.loads(json.dumps(report))
        _drop(bad, path.split("."))
        with pytest.raises(ValueError):
            validate(bad)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(schema="repro/bench-engine/v1"),
        lambda r: r.update(bench="nope"),
        lambda r: r.pop("config"),
        lambda r: r.pop("meta"),
        lambda r: r.update(gates=[]),
        lambda r: r["gates"][0].pop("required"),
        lambda r: r["gates"].append(dict(r["gates"][0])),  # duplicate name
        lambda r: r["gates"][0].update(met="yes"),
    ],
)
def test_malformed_record_rejected(report, mutate):
    mutate(report)
    with pytest.raises(ValueError):
        validate(report)


def test_required_gate_failure_is_refused(report, tmp_path):
    for g in report["gates"]:
        if g["required"] and not g["skipped"]:
            g["met"] = False
            with pytest.raises(ValueError, match=g["name"]):
                write(report, str(tmp_path / "refused.json"))
            assert not (tmp_path / "refused.json").exists()
            g["met"] = True


def test_advisory_gate_failure_is_recorded(report):
    advisory = []
    for g in report["gates"]:
        if not g["required"] and not g["skipped"]:
            # A bound the measured value cannot meet: x > x is false.
            value = g["measured"]
            g["target"] = f"== {json.dumps(not value)}" if isinstance(value, bool) else (
                f"> {json.dumps(value)}"
            )
            g["met"] = False
            advisory.append(g["name"])
    validate(report)
    assert failed_gates(report) == advisory


def test_met_must_agree_with_the_record(report):
    for g in report["gates"]:
        if g["skipped"]:
            continue
        bad = json.loads(json.dumps(report))
        _gates(bad)[g["name"]]["met"] = not g["met"]
        with pytest.raises(ValueError, match=g["name"]):
            validate(bad)
        bad = json.loads(json.dumps(report))
        _gates(bad)[g["name"]]["measured"] = "tampered"
        with pytest.raises(ValueError, match=g["name"]):
            validate(bad)


def test_flipped_certificate_in_results_is_refused(report):
    flipped = 0
    for g in report["gates"]:
        if g["required"] and isinstance(g["measured"], bool):
            bad = json.loads(json.dumps(report))
            _set(bad, g["name"], not g["measured"])
            with pytest.raises(ValueError, match=g["name"]):
                validate(bad)
            flipped += 1
    assert flipped


def test_certificates_stay_required_and_evaluated(report):
    for name in _certificates(report):
        bad = json.loads(json.dumps(report))
        _gates(bad)[name]["required"] = False
        with pytest.raises(ValueError, match="required"):
            validate(bad)
        bad = json.loads(json.dumps(report))
        _gates(bad)[name].update(
            skipped=True, met=None, measured=None, reason="not measured"
        )
        with pytest.raises(ValueError, match="required"):
            validate(bad)


def test_skipped_gate_needs_reason(report):
    g = report["gates"][-1]
    g.update(skipped=True, met=None, measured=None, reason=None)
    with pytest.raises(ValueError, match="reason"):
        validate(report)
    g["reason"] = ""
    with pytest.raises(ValueError, match="reason"):
        validate(report)


def test_skipped_gate_is_null_and_never_met(report):
    g = _skippable(report)
    if g is None:  # lab: every gate is an exactly-once certificate
        assert _certificates(report) == [x["name"] for x in report["gates"]]
        return
    g.update(skipped=True, met=True, measured=None, reason="not measurable here")
    with pytest.raises(ValueError, match="null"):
        validate(report)
    g["met"] = None
    validate(report)
    assert verdict(g) == "SKIPPED"
    assert g["name"] not in failed_gates(report)
    assert g["name"] not in [x["name"] for x in report["gates"] if x["met"]]


def _with_parallel_leg(r):
    """A select record as a 4-core host writes it: the parallel leg measured."""
    r["parallel"].update(
        measured_speedup=3.0, predicted_speedup=3.2, relative_error=0.0667
    )
    _gates(r)["parallel.relative_error"].update(
        measured=0.0667, met=True, skipped=False, reason=None
    )
    return r


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("race", "results.determinism_sha256", "short"),
        ("race", "results.determinism_sha256", "G" * 64),
        ("race", "results.per_k.*.trials", 0),
        ("serve", "results.legs.naive.requests_per_s", 0),
        ("serve", "results.protocol.legs.jsonl.requests_per_s", 0),
        ("serve", "results.cluster.legs.*.requests_per_s", 0),
        ("serve", "results.update.legs.*.delta_ms", 0),
        ("serve", "results.update.mutate.draws", 0),
        ("serve", "results.update.mutate.per_version_latency", {}),
        ("serve", "results.colony.inprocess_s", 0),
        ("serve", "results.colony.served_s", 0.0),
        ("serve", "results.determinism.methods.*.bitwise_identical", False),
        ("serve", "results.cluster.determinism.wheels.*.bitwise_identical", False),
        ("serve", "results.update.determinism.versions.*.bitwise_identical", False),
    ],
)
def test_driver_value_checks(request, name, path, value):
    bad = json.loads(json.dumps(request.getfixturevalue(f"{name}_record")))
    _set(bad, path, value)
    with pytest.raises(ValueError):
        validate(bad)


@pytest.mark.parametrize(
    "name, measure, section, key",
    [
        ("select", _with_parallel_leg, "parallel", "measured_speedup"),
        ("select", _with_parallel_leg, "parallel", "relative_error"),
    ],
)
def test_measured_sweep_fields_are_required(request, name, measure, section, key):
    bad = json.loads(json.dumps(request.getfixturevalue(f"{name}_record")))
    measure(bad)[section].pop(key)
    with pytest.raises(ValueError):
        validate(bad)


def test_measured_legs_validate_when_present(select_record):
    validate(_with_parallel_leg(json.loads(json.dumps(select_record))))


def test_gate_helpers():
    sections = {"a": {"x": 3.0, "n": 0, "ok": True}}
    g = record.gate(sections, "a.x", ">=", 3.0)
    assert g["name"] == "a.x" and g["measured"] == 3.0 and g["met"] is True
    assert g["target"] == ">= 3"
    assert record.gate(sections, "a.n", ">", 0)["met"] is False
    ok = record.gate(sections, "a.ok", "==", True, required=True)
    assert ok["target"] == "== true" and ok["required"]
    assert record.gate(sections, "a.x", "<=", 0.35)["target"] == "<= 0.35"
    skipped = record.skip("a.y", "<=", 0.5, "one core")
    assert skipped["met"] is None and skipped["skipped"] and verdict(skipped) == "SKIPPED"
    with pytest.raises(ValueError, match="a.y"):
        record.gate(sections, "a.y", ">=", 1)


@pytest.mark.parametrize("flag", [["--iterations", "5"], ["--workers", "4"]])
def test_bench_rejects_driver_knobs(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["bench", "race", *flag])
    assert exc.value.code == 2
    assert "--smoke" in capsys.readouterr().err


def test_smoke_configs_are_driver_kwargs():
    for name, (_module, run, _render) in DRIVERS.items():
        params = inspect.signature(getattr(record.driver(name), run)).parameters
        assert "seed" in params
        assert set(record.driver(name).SMOKE) <= set(params), name


def test_import_repro_loads_no_driver():
    drivers = sorted(module for module, _, _ in DRIVERS.values())
    code = f"import sys, repro; print([m for m in {drivers!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "[]"


def test_render_drift_names_every_gate_and_each_verdict_change():
    sections = {"a": {"x": 2.0, "ok": True}}
    old = {"gates": [record.gate(sections, "a.x", ">=", 3.0), record.skip("a.z", "<=", 1, "no")]}
    sections["a"]["x"] = 4.0
    new = {
        "gates": [
            record.gate(sections, "a.x", ">=", 3.0),
            record.gate(sections, "a.ok", "==", True),
        ]
    }
    lines = record.render_drift(old, new).splitlines()
    assert lines[1] == "  a.x: 2 -> 4 (+100.0%)  NOT MET -> MET"
    assert lines[2] == "  a.ok: added, true MET"
    assert lines[3] == "  a.z: dropped"


def test_bench_prints_drift_before_overwriting(monkeypatch, tmp_path, capsys):
    committed = json.loads((_ROOT / "BENCH_race.json").read_text())
    previous = json.loads(json.dumps(committed))
    first = previous["gates"][0]
    first["measured"] = "stale"
    path = tmp_path / "BENCH_race.json"
    path.write_text(json.dumps(previous))
    monkeypatch.setattr(record, "run", lambda name, **kwargs: committed)
    assert cli_main(["bench", "race", "--output", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"  {first['name']}: stale -> " in out
    assert out.index("drift against the previous record") < out.index("recorded ->")
    assert json.loads(path.read_text()) == committed
    # A fresh path has nothing to compare with.
    assert cli_main(["bench", "race", "--output", str(tmp_path / "new.json")]) == 0
    assert "drift against" not in capsys.readouterr().out

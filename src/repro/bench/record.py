"""One record type for every gate driver behind ``python -m repro bench NAME``.

A driver measures its sections and states its verdicts as a gate list;
this module owns everything else the six drivers used to copy:

* the single schema id :data:`SCHEMA` and the host fingerprint
  (:func:`host_meta`);
* the gate shape ``{name, measured, target, met, skipped, reason,
  required}`` (:func:`gate`, :func:`skip`).  A gate's name is the dotted
  path of the value it measures, so the record holds each verdict's
  input once: :func:`validate` re-reads that value and re-evaluates
  ``met`` against ``target``.  A skipped gate records ``met: null`` with
  its reason and is never counted as met;
* :func:`validate`, driven by data: each driver module declares
  ``REQUIRED``, a short list of ``(dotted path, kind)`` pairs, where a
  ``*`` path segment ranges over every entry of a list or object.  A
  third element names a gate; the entry then applies only when that
  gate was evaluated (e.g. the sweep behind a gate a small host skips);
* :func:`write`, which refuses any record whose *required* gate failed.
  Correctness certificates are required; timing gates stay advisory,
  because a loaded shared host may legitimately miss a throughput target;
* :func:`render_drift`, which ``bench NAME`` prints before it overwrites
  a record: every gated value old -> new, and each verdict that changed.

Each driver module also declares ``SMOKE``, the keyword overrides of its
small ``--smoke`` configuration.
"""

from __future__ import annotations

import importlib
import json
import math
import operator
import os
import platform
import re
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._version import __version__

__all__ = [
    "SCHEMA",
    "DRIVERS",
    "NUMBER",
    "POSITIVE",
    "FRACTION",
    "BOOL",
    "TRUE",
    "NONEMPTY",
    "DIGEST",
    "GATE",
    "host_meta",
    "gate",
    "skip",
    "make_record",
    "driver",
    "run",
    "render",
    "validate",
    "record_path",
    "read",
    "write",
    "render_drift",
    "verdict",
    "failed_gates",
    "render_gates",
]

#: The schema id every bench record carries.
SCHEMA = "repro/bench/v1"

#: ``bench NAME`` -> (driver module, run function, render function).
DRIVERS: Dict[str, Tuple[str, str, str]] = {
    "engine": ("repro.engine.bench", "run_bench", "render_bench"),
    "race": ("repro.engine.race_bench", "run_bench_race", "render_bench_race"),
    "aco": ("repro.engine.aco_bench", "run_bench_aco", "render_bench_aco"),
    "serve": ("repro.service.bench", "run_bench_serve", "render_bench_serve"),
    "select": ("repro.select.bench", "run_bench_select", "render_bench_select"),
    "lab": ("repro.lab.bench", "run_bench_lab", "render_bench_lab"),
}

#: Kinds of a required path: a non-negative number (not NaN), a
#: positive number, a number in [0, 1], a bool, ``true``, a non-empty
#: list, object or string, a hex sha256 digest, or a *required gate*:
#: the gate named by the path must be listed, required and evaluated.
NUMBER, POSITIVE, FRACTION = "number", "positive", "fraction"
BOOL, TRUE, NONEMPTY, DIGEST, GATE = "bool", "true", "nonempty", "digest", "gate"


def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and not math.isnan(value)
    )


_KINDS = {
    NUMBER: lambda v: _is_number(v) and v >= 0,
    POSITIVE: lambda v: _is_number(v) and v > 0,
    FRACTION: lambda v: _is_number(v) and 0 <= v <= 1,
    BOOL: lambda v: isinstance(v, bool),
    TRUE: lambda v: v is True,
    NONEMPTY: lambda v: isinstance(v, (list, dict, str)) and len(v) > 0,
    DIGEST: lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{64}", v),
}

_OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "==": operator.eq,
}

_GATE_KEYS = ("name", "measured", "target", "met", "skipped", "reason", "required")


def host_meta() -> Dict[str, Any]:
    """The host fingerprint stored under every record's ``meta``."""
    return {
        "repro": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def gate(
    sections: Dict[str, Any],
    path: str,
    op: str,
    bound: Any,
    *,
    required: bool = False,
) -> Dict[str, Any]:
    """The gate on the value at dotted ``path`` of ``sections``: met iff
    ``value <op> bound``."""
    measured = _lookup(sections, path)
    return {
        "name": path,
        "measured": measured,
        "target": _target(op, bound),
        "met": bool(_OPS[op](measured, bound)),
        "skipped": False,
        "reason": None,
        "required": required,
    }


def skip(
    path: str, op: str, bound: Any, reason: str, *, required: bool = False
) -> Dict[str, Any]:
    """A gate not evaluated on this host; ``reason`` says why."""
    return {
        "name": path,
        "measured": None,
        "target": _target(op, bound),
        "met": None,
        "skipped": True,
        "reason": reason,
        "required": required,
    }


def make_record(
    bench: str,
    config: Dict[str, Any],
    sections: Dict[str, Any],
    gates: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble a record: schema, config, the driver's sections, gates, meta."""
    return {
        "schema": SCHEMA,
        "bench": bench,
        "config": config,
        **sections,
        "gates": gates,
        "meta": host_meta(),
    }


def driver(name: str):
    """Import and return the driver module behind ``bench NAME``."""
    if name not in DRIVERS:
        raise ValueError(f"unknown bench {name!r}; available: {sorted(DRIVERS)}")
    return importlib.import_module(DRIVERS[name][0])


def run(name: str, *, seed: int = 0, smoke: bool = False) -> Dict[str, Any]:
    """Run driver ``name`` at its default (or ``--smoke``) config."""
    module = driver(name)
    kwargs = dict(module.SMOKE) if smoke else {}
    return getattr(module, DRIVERS[name][1])(seed=seed, **kwargs)


def render(report: Dict[str, Any]) -> str:
    """The driver's one-screen summary of ``report``."""
    return getattr(driver(report["bench"]), DRIVERS[report["bench"]][2])(report)


def _target(op: str, bound: Any) -> str:
    """``"<op> <bound as JSON>"``, which :func:`_parse_target` reads back."""
    if isinstance(bound, float) and bound.is_integer():
        bound = int(bound)
    return f"{op} {json.dumps(bound)}"


def _parse_target(target: Any, name: str) -> Tuple[str, Any]:
    op, _, bound = str(target).partition(" ")
    try:
        if op in _OPS:
            return op, json.loads(bound)
    except ValueError:
        pass
    raise ValueError(f"gate {name!r}: unreadable target {target!r}")


def _resolve(node: Any, parts: Sequence[str], path: str) -> List[Any]:
    """Every value at ``parts`` under ``node``; ``*`` ranges over entries."""
    if not parts:
        return [node]
    head, rest = parts[0], parts[1:]
    if head == "*":
        if isinstance(node, dict):
            children = list(node.values())
        elif isinstance(node, list):
            children = node
        else:
            raise ValueError(f"{path}: expected a list or object")
        if not children:
            raise ValueError(f"{path}: expected at least one entry")
        return [v for child in children for v in _resolve(child, rest, path)]
    if not isinstance(node, dict) or head not in node:
        raise ValueError(f"record missing {path!r}")
    return _resolve(node[head], rest, path)


def _lookup(node: Any, path: str) -> Any:
    """The single value at dotted ``path`` (no ``*``) under ``node``."""
    return _resolve(node, path.split("."), path)[0]


def _check_gate(report: Dict[str, Any], g: Any, seen: set) -> None:
    if not isinstance(g, dict) or any(k not in g for k in _GATE_KEYS):
        raise ValueError(f"gate must carry {_GATE_KEYS}, got {g!r}")
    name = g["name"]
    if not isinstance(name, str) or not name or name in seen:
        raise ValueError(f"gate names must be unique strings, got {name!r}")
    seen.add(name)
    if not isinstance(g["required"], bool) or not isinstance(g["skipped"], bool):
        raise ValueError(f"gate {name!r}: required/skipped must be bools")
    op, bound = _parse_target(g["target"], name)
    if g["skipped"]:
        if not g["reason"]:
            raise ValueError(f"skipped gate {name!r} must record a reason")
        if g["met"] is not None or g["measured"] is not None:
            raise ValueError(f"skipped gate {name!r} must record met: null, measured: null")
        return
    value = _lookup(report, name)
    if g["measured"] != value:
        raise ValueError(
            f"gate {name!r} measured {g['measured']!r}, but the record holds {value!r}"
        )
    try:
        met = bool(_OPS[op](value, bound))
    except TypeError:
        raise ValueError(f"gate {name!r}: {value!r} is not comparable to {bound!r}")
    if g["met"] is not met:
        raise ValueError(f"gate {name!r} records met={g['met']!r} for {value!r} {g['target']}")
    if g["required"] and not met:
        raise ValueError(
            f"required gate {name!r} failed: measured {value!r}, target {g['target']}"
        )


def validate(report: Any) -> None:
    """Raise ``ValueError`` unless ``report`` is a well-formed, passing record.

    Checks the schema, the ``config``/``meta`` objects, the gate list
    (each evaluated gate's ``measured`` and ``met`` re-derived from the
    value at its path, every required gate met, every skip explained)
    and the driver's ``REQUIRED`` paths.
    """
    if not isinstance(report, dict):
        raise ValueError("bench record must be a JSON object")
    if report.get("schema") != SCHEMA:
        raise ValueError(f"schema mismatch: {report.get('schema')!r} != {SCHEMA!r}")
    module = driver(report.get("bench"))
    for section in ("config", "meta"):
        if not isinstance(report.get(section), dict):
            raise ValueError(f"missing section {section!r}")
    gates = report.get("gates")
    if not isinstance(gates, list) or not gates:
        raise ValueError("record must carry a non-empty gates list")
    seen: set = set()
    for g in gates:
        _check_gate(report, g, seen)
    by_name = {g["name"]: g for g in gates}
    for path, kind, *when in module.REQUIRED:
        if when:
            if when[0] not in by_name:
                raise ValueError(f"record missing gate {when[0]!r}")
            if by_name[when[0]]["skipped"]:
                continue
        if kind == GATE:
            g = by_name.get(path)
            if g is None or not g["required"] or g["skipped"]:
                raise ValueError(f"{path!r} must be a required, evaluated gate")
            continue
        for value in _resolve(report, path.split("."), path):
            if not _KINDS[kind](value):
                raise ValueError(f"{path} must be {kind}, got {value!r}")


def record_path(report: Dict[str, Any], path: Optional[str] = None) -> str:
    """Where :func:`write` puts ``report``: ``path``, else ``BENCH_<bench>.json``."""
    return str(path or f"BENCH_{report['bench']}.json")


def read(path: str) -> Optional[Dict[str, Any]]:
    """The record at ``path``, or None if there is none to read."""
    try:
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        return None
    return old if isinstance(old, dict) and isinstance(old.get("gates"), list) else None


def write(report: Dict[str, Any], path: Optional[str] = None) -> str:
    """Validate and write ``report`` (default ``BENCH_<bench>.json``)."""
    validate(report)
    path = record_path(report, path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def verdict(g: Dict[str, Any]) -> str:
    """``MET``, ``NOT MET`` or ``SKIPPED``."""
    if g["skipped"]:
        return "SKIPPED"
    return "MET" if g["met"] else "NOT MET"


def failed_gates(report: Dict[str, Any]) -> List[str]:
    """Names of the evaluated gates that were not met."""
    return [g["name"] for g in report["gates"] if g["met"] is False]


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value).lower() if isinstance(value, bool) else str(value)


def render_drift(old: Dict[str, Any], new: Dict[str, Any]) -> str:
    """Every gated value of ``new`` against the record ``old`` it replaces.

    One line per gate, ``old -> new`` (with the relative change of a
    number), and the verdicts when they differ; gates only one side has
    are marked as added or dropped.
    """
    before = {g["name"]: g for g in old["gates"]}
    lines = ["drift against the previous record:"]
    for g in new["gates"]:
        prev = before.pop(g["name"], None)
        if prev is None:
            lines.append(f"  {g['name']}: added, {_fmt(g['measured'])} {verdict(g)}")
            continue
        line = f"  {g['name']}: {_fmt(prev['measured'])} -> {_fmt(g['measured'])}"
        a, b = prev["measured"], g["measured"]
        if _is_number(a) and _is_number(b) and a:
            line += f" ({(b - a) / abs(a):+.1%})"
        if verdict(prev) != verdict(g):
            line += f"  {verdict(prev)} -> {verdict(g)}"
        lines.append(line)
    lines += [f"  {name}: dropped" for name in before]
    return "\n".join(lines)


def render_gates(report: Dict[str, Any]) -> str:
    """One line per gate: measured vs target, verdict, skip reason."""
    lines = ["gates:"]
    width = max(len(g["name"]) for g in report["gates"])
    for g in report["gates"]:
        line = (
            f"  {g['name']:<{width}s} {_fmt(g['measured']):>10s}  "
            f"{g['target']:<12s} {verdict(g)}"
        )
        if g["required"]:
            line += " (required)"
        if g["skipped"]:
            line += f": {g['reason']}"
        lines.append(line)
    return "\n".join(lines)

"""The workbench acceptance gate: kill-and-resume with exactly-once cells.

``python -m repro bench lab`` runs a small real matrix (engine + serve
scenarios x 2 methods x 2 seeds, plus a block of fixed-duration sleep
cells that guarantee a mid-run kill window), SIGKILLs the run while a
cell is executing, resumes it with the same config, and audits the
execution log:

* every cell that finished before the kill must **not** re-execute on
  resume (zero duplicated cell executions);
* no cell may ever publish twice;
* after resume the matrix must be complete, the tidy rows must cover
  every cell, and ``lab report`` must render.

The result is recorded in ``BENCH_lab.json``.  Every gate is pure
correctness (no timing thresholds), so every gate is required — a
loaded CI runner can be slow, but it can never excuse a re-executed
cell.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import repro
from repro.bench.record import BOOL, GATE, NUMBER, gate, make_record, render_gates
from repro.lab.cells import Experiment
from repro.lab.config import parse_experiment
from repro.lab.report import render_report, status_counts, tidy_rows
from repro.lab.runner import run_experiment
from repro.lab.store import CellStore

__all__ = ["gate_config", "run_bench_lab", "render_bench_lab", "REQUIRED", "SMOKE"]

#: Paths every lab record must carry (see :func:`repro.bench.record.validate`).
REQUIRED = [
    ("results.killed_mid_run", BOOL),
    ("results.completed_before_kill", NUMBER),
    ("results.executed_on_resume", NUMBER),
    *[
        (f"results.{key}", GATE)
        for key in (
            "re_executed_cells",
            "duplicate_done_cells",
            "resume_complete",
            "tidy_rows",
            "report_rendered",
        )
    ],
    ("results.phase_a_s", NUMBER),
    ("results.phase_b_s", NUMBER),
]

#: ``--smoke``: the gate is already small, so smoke is the default run.
SMOKE: Dict[str, Any] = {}

#: Sleep cells appended after the real scenarios: they open a
#: deterministic window in which the kill lands mid-cell.
_SLEEP_CELLS = 6
_SLEEP_MS = 250.0


def gate_config(seed: int = 0) -> Dict[str, Any]:
    """The gate's design matrix (as a parsed config document).

    Two real scenarios (engine + serve) x two methods x two seeds — the
    acceptance-criteria floor — followed by the sleep block.
    """
    return {
        "experiment": {"name": "lab-resume-gate"},
        "grid": [
            {
                "scenario": "engine",
                "matrix": {
                    "method": ["log_bidding", "alias"],
                    "seed": [seed, seed + 1],
                },
                "base": {"n": 200, "draws": 20_000},
            },
            {
                "scenario": "serve",
                "matrix": {
                    "method": ["log_bidding", "alias"],
                    "seed": [seed, seed + 1],
                },
                "base": {
                    "n": 128,
                    "clients": 8,
                    "requests_per_client": 4,
                    "n_draws": 4,
                },
            },
            {
                "scenario": "sleep",
                "matrix": {"idx": list(range(_SLEEP_CELLS))},
                "base": {"ms": _SLEEP_MS},
            },
        ],
    }


def _spawn_lab_run(config_path: str, workdir: str) -> subprocess.Popen:
    """Launch ``python -m repro lab run`` as a killable subprocess."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "lab", "run", config_path,
            "--workdir", workdir, "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _await_kill_window(
    store: CellStore, proc: subprocess.Popen, timeout_s: float = 300.0
) -> bool:
    """Wait until a sleep cell is mid-execution, then SIGKILL the run.

    Returns True if the process was killed mid-run; False if it finished
    first (possible only on pathologically fast sleep handling — the
    gate still audits exactly-once behaviour in that case).
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return False
        events = store.read_log()
        started = {e["key"] for e in events if e.get("event") == "start"}
        done = {e["key"] for e in events if e.get("event") == "done"}
        sleeping = [
            e for e in events
            if e.get("event") == "start"
            and e.get("scenario") == "sleep"
            and e["key"] not in done
        ]
        if sleeping and len(done) >= 2 and len(started) > len(done):
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            return True
        time.sleep(0.02)
    proc.send_signal(signal.SIGKILL)  # pragma: no cover - watchdog only
    proc.wait(timeout=30)  # pragma: no cover
    return True  # pragma: no cover


def run_bench_lab(
    seed: int = 0, workdir: Optional[str] = None
) -> Dict[str, Any]:
    """Run the kill-and-resume gate; returns the BENCH_lab record."""
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-lab-gate-")
        workdir = tmp.name
    try:
        doc = gate_config(seed)
        experiment: Experiment = parse_experiment(doc)
        cells = experiment.cells()
        config_path = os.path.join(workdir, "gate.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        cell_dir = os.path.join(workdir, "run")
        store = CellStore(cell_dir)

        # Phase A: real process, real SIGKILL mid-cell.
        t0 = time.perf_counter()
        proc = _spawn_lab_run(config_path, cell_dir)
        killed = _await_kill_window(store, proc)
        kill_t = time.time()
        before = store.done_keys([c.key for c in cells])
        phase_a_s = time.perf_counter() - t0

        # Phase B: resume with the same config against the same workdir.
        t1 = time.perf_counter()
        outcome = run_experiment(
            experiment, workdir=cell_dir, resume=True, progress=False
        )
        phase_b_s = time.perf_counter() - t1

        # Audit the execution log for exactly-once behaviour.
        events = store.read_log()
        starts: Dict[str, List[float]] = {}
        dones: Dict[str, int] = {}
        for e in events:
            if e.get("event") == "start":
                starts.setdefault(e["key"], []).append(e.get("t", 0.0))
            elif e.get("event") == "done":
                dones[e["key"]] = dones.get(e["key"], 0) + 1
        re_executed = sorted(
            k for k in before
            if any(t > kill_t for t in starts.get(k, []))
        )
        duplicate_done = sorted(k for k, c in dones.items() if c > 1)
        counts = status_counts(experiment, store)
        rows = tidy_rows(experiment, store)
        report_text = render_report(experiment, store)
        resume_complete = counts["missing"] == 0 and outcome.failed == 0
        config = {
            "seed": seed,
            "cells": len(cells),
            "scenarios": sorted({c.scenario for c in cells}),
            "sleep_cells": _SLEEP_CELLS,
            "sleep_ms": _SLEEP_MS,
        }
        results = {
            "killed_mid_run": bool(killed),
            "completed_before_kill": len(before),
            "executed_on_resume": outcome.executed,
            "cached_on_resume": outcome.cached,
            "re_executed_cells": len(re_executed),
            "duplicate_done_cells": len(duplicate_done),
            "resume_complete": bool(resume_complete),
            "tidy_rows": len(rows),
            "report_rendered": bool(report_text.strip()),
            "phase_a_s": phase_a_s,
            "phase_b_s": phase_b_s,
        }
        sections = {"results": results}
        gates = [
            gate(sections, "results.re_executed_cells", "==", 0, required=True),
            gate(sections, "results.duplicate_done_cells", "==", 0, required=True),
            gate(sections, "results.resume_complete", "==", True, required=True),
            gate(sections, "results.tidy_rows", "==", len(cells), required=True),
            gate(sections, "results.report_rendered", "==", True, required=True),
        ]
        return make_record("lab", config, sections, gates)
    finally:
        if tmp is not None:
            tmp.cleanup()


def render_bench_lab(report: Dict[str, Any]) -> str:
    """Human-readable gate summary for the CLI."""
    r = report["results"]
    c = report["config"]
    lines = [
        "== lab kill-and-resume gate ==",
        f"matrix: {c['cells']} cells over {', '.join(c['scenarios'])}",
        f"killed mid-run: {r['killed_mid_run']} "
        f"({r['completed_before_kill']} cells done at kill)",
        f"resume: {r['executed_on_resume']} executed, "
        f"{r['cached_on_resume']} cached, complete={r['resume_complete']}",
        f"re-executed finished cells: {r['re_executed_cells']} "
        f"(duplicate publishes: {r['duplicate_done_cells']})",
        f"tidy rows: {r['tidy_rows']}  report rendered: {r['report_rendered']}",
        render_gates(report),
    ]
    return "\n".join(lines)

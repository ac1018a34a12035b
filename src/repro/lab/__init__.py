"""`repro.lab` — the declarative, resumable experiment workbench.

An :class:`~repro.lab.cells.Experiment` is a design matrix (methods x
workloads x scales x seeds x backend options) declared in TOML/JSON and
expanded into content-addressed *cells*: one cell is one scenario run at
one parameter point, keyed by the SHA-256 of its canonical config.  The
runner executes missing cells, caches each result on disk atomically,
and therefore resumes for free — killing a paper-scale run and
re-running with ``--resume`` re-executes only the cells that never
finished (the same trick as the PR 5 content-addressed wheel registry).

Results export as tidy JSON/CSV rows plus a Tables-I/II-style ASCII
report; the gate drivers behind ``python -m repro bench NAME`` (engine,
race, aco, serve) are wired in as scenario plugins so a new scenario PR
is a config file under ``examples/lab/``, not a new driver.

Entry point: ``python -m repro lab {run,status,report,clean,scenarios}``;
the kill-and-resume gate is ``python -m repro bench lab``.
"""

from repro.lab.cells import Cell, Experiment, Grid, canonical_config, cell_key
from repro.lab.config import load_experiment
from repro.lab.report import render_report, tidy_rows
from repro.lab.runner import run_experiment
from repro.lab.scenarios import SCENARIOS, run_cell, scenario
from repro.lab.store import CellStore

__all__ = [
    "Cell",
    "CellStore",
    "Experiment",
    "Grid",
    "SCENARIOS",
    "canonical_config",
    "cell_key",
    "load_experiment",
    "render_report",
    "run_cell",
    "run_experiment",
    "scenario",
    "tidy_rows",
]

"""``python -m repro lab`` — run/status/report/clean for experiment matrices.

Exit codes: 0 success; 1 cell failures (failed cells are retried by the
next ``run``); 2 usage; 3 the run stopped early (``--max-cells``) or
other runners still hold cells — the matrix is not yet complete.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro lab`` argument parser (run/status/report/clean/...)."""
    parser = argparse.ArgumentParser(
        prog="repro lab",
        description=(
            "Declarative, resumable experiment workbench: expand a TOML/JSON "
            "design matrix into content-addressed cells, execute the missing "
            "ones with per-cell on-disk caching, and export tidy rows plus a "
            "Tables-I/II-style report."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the missing cells of a matrix")
    run.add_argument("config", help="experiment config (.toml or .json)")
    run.add_argument(
        "--resume",
        action="store_true",
        default=True,
        help="skip cells with cached results (the default; kept explicit "
        "so interrupted runs read naturally: `lab run --resume cfg.toml`)",
    )
    run.add_argument(
        "--fresh",
        action="store_true",
        help="clear the cell cache first and re-run the whole matrix",
    )
    run.add_argument("--workdir", default=None, help="override the cache dir")
    run.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop after executing this many cells (exit 3: incomplete)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress the progress/ETA line"
    )

    status = sub.add_parser("status", help="done/missing cell accounting")
    status.add_argument("config")
    status.add_argument("--workdir", default=None)
    status.add_argument("--json", action="store_true", dest="as_json")

    report = sub.add_parser(
        "report", help="render the ASCII report; optionally export tidy rows"
    )
    report.add_argument("config")
    report.add_argument("--workdir", default=None)
    report.add_argument(
        "--json", default=None, metavar="PATH", help="write tidy rows as JSON"
    )
    report.add_argument(
        "--csv", default=None, metavar="PATH", help="write tidy rows as CSV"
    )

    clean = sub.add_parser("clean", help="drop every cached cell and the log")
    clean.add_argument("config")
    clean.add_argument("--workdir", default=None)

    sub.add_parser("scenarios", help="list available scenario plugins")

    return parser


def _load(args):
    from repro.lab.config import load_experiment
    from repro.lab.store import CellStore

    experiment = load_experiment(args.config)
    store = CellStore(experiment.resolve_workdir(args.workdir))
    return experiment, store


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro lab``; returns the exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "scenarios":
        from repro.lab.scenarios import SCENARIOS

        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()
            print(f"{name:12s} {doc[0] if doc else ''}")
        return 0

    experiment, store = _load(args)

    if args.command == "run":
        from repro.lab.report import status_counts
        from repro.lab.runner import run_experiment

        outcome = run_experiment(
            experiment,
            workdir=args.workdir,
            resume=not args.fresh,
            jobs=args.jobs,
            max_cells=args.max_cells,
            progress=not args.quiet,
        )
        counts = status_counts(experiment, store)
        print(
            f"[lab] {experiment.name}: {outcome.executed} executed, "
            f"{outcome.cached} cached, {outcome.failed} failed "
            f"({counts['done']}/{counts['total']} cells done, "
            f"{outcome.elapsed_s:.1f}s)"
        )
        for err in outcome.errors:
            print(f"[lab] FAILED {err}", file=sys.stderr)
        if outcome.failed:
            return 1
        if not outcome.complete or counts["missing"]:
            return 3
        return 0

    if args.command == "status":
        from repro.lab.report import status_counts

        counts = status_counts(experiment, store)
        if args.as_json:
            print(json.dumps(counts, indent=2))
        else:
            print(
                f"{experiment.name}: {counts['done']}/{counts['total']} "
                f"cells done ({counts['missing']} missing)"
            )
            for name, c in sorted(counts["scenarios"].items()):
                print(f"  {name:12s} {c['done']}/{c['total']}")
        return 0 if counts["missing"] == 0 else 3

    if args.command == "report":
        from repro.lab.report import (
            render_report,
            tidy_rows,
            write_rows_csv,
            write_rows_json,
        )

        print(render_report(experiment, store))
        if args.json or args.csv:
            rows = tidy_rows(experiment, store)
            if args.json:
                print(f"tidy rows (json) -> {write_rows_json(rows, args.json)}")
            if args.csv:
                print(f"tidy rows (csv)  -> {write_rows_csv(rows, args.csv)}")
        return 0

    if args.command == "clean":
        removed = store.clean()
        print(f"[lab] {experiment.name}: removed {removed} cached files")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

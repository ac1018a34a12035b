"""The repository benchmark.

    python perfbench/run.py [--workload W ...] [--seed S] [--seconds T]
                            [--trace [0|1]] [--out FILE] [--smoke]
    python perfbench/run.py compare A/ B/

Runs each workload in fresh processes, prints every metric by name with
its unit, checks the program's outputs, and exits non-zero if a check
fails.  The last line of standard output is one JSON object: the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace`` its
per-layer metrics, taken from a second, traced pass of the same workload.

``compare`` reads the records two sets of runs wrote with ``--out`` and
prints per-metric medians and quartiles, flagging every end-to-end metric
whose median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(_ROOT)
sys.path.insert(1, str(_ROOT / "src"))

from perfbench.common import (  # noqa: E402
    WORKLOADS,
    RunResult,
    load_spec,
    median,
    quartiles,
    require_source,
)


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> RunResult:
    if name.startswith("serve-"):
        from perfbench import serve as module
    else:
        from perfbench import inproc as module
    return module.run(name, seed, seconds, traced, smoke)


def worsening(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, in the metric's unit."""
    return after - before if metric["better"] == "lower" else before - after


def _print(result: RunResult, spec: dict) -> None:
    tag = f"{result.workload}{' (traced)' if result.traced else ''}"
    for m in spec["end_to_end"]:
        print(f"{tag:22s} {m['name']:34s} {result.metrics[m['name']]:14.6g} {m['unit']}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in result.layers.items():
        print(f"{tag:22s} {name:34s} {value:14.6g} {units.get(name, '')}")
    for name, (value, unit) in result.detail.items():
        if name not in result.layers:
            print(f"{tag:22s} {name:34s} {value:14.6g} {unit}")
    for name, ok in result.checks.items():
        print(f"{tag:22s} check {name:28s} {'ok' if ok else 'FAILED'}")
    print(f"{tag:22s} {'requests attempted/failed':34s} {result.attempted}/{result.failed}")
    for note in result.notes:
        print(f"{tag:22s} note: {note}")


def _measured(values: dict, names) -> dict:
    missing = [n for n in names if not math.isfinite(values.get(n, math.nan))]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    return {n: values[n] for n in names}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run each workload traced and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None, help="write the run records here (JSON)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    spec = load_spec()
    require_source()
    # SIGTERM (a caller's timeout) unwinds like an error, so the cleanup
    # blocks stop every server and child process this run started.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec["per_layer"]]

    records, outputs = [], {}
    correct, attempted, failed = True, 0, 0
    for name in args.workload or WORKLOADS:
        base = run_workload(name, args.seed, seconds, False, args.smoke)
        _print(base, spec)
        records.append(base.to_json())
        runs = [base]
        if args.trace:
            traced = run_workload(name, args.seed, seconds, True, args.smoke)
            for metric, m in e2e.items():
                traced.layers[f"trace_overhead.{metric}"] = worsening(
                    m, base.metrics[metric], traced.metrics[metric]
                )
            _print(traced, spec)
            records.append(traced.to_json())
            runs.append(traced)
            outputs[name] = _measured(traced.layers, layer_names)
        else:
            outputs[name] = _measured(base.metrics, e2e)
        for r in runs:
            correct &= r.correct
            attempted += r.attempted
            failed += r.failed

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(records, indent=1))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if len(outputs) == 1:
        (values,) = outputs.values()
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    else:
        metrics = {
            f"{w}/{n}": {"value": v, "unit": units[n]}
            for w, values in outputs.items()
            for n, v in values.items()
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _load_set(directory: Path) -> dict:
    """``{workload: {metric: [values]}}`` over the untraced, valid records."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        records = json.loads(path.read_text())
        for rec in records if isinstance(records, list) else [records]:
            if rec["traced"] or not rec.get("valid", True):
                continue
            by_metric = out.setdefault(rec["workload"], {})
            for metric, value in rec["metrics"].items():
                by_metric.setdefault(metric, []).append(value)
    return out


def compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description="Compare two sets of run records.")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    before, after = _load_set(args.before), _load_set(args.after)
    flagged = 0
    print(f"{'workload':12s} {'metric':18s} {'n':>5s} {'before q1/med/q3':>30s} "
          f"{'after q1/med/q3':>30s} {'worse by':>9s} {'bound':>6s}")
    for workload in WORKLOADS:
        if workload not in before or workload not in after:
            continue
        for m in spec["end_to_end"]:
            a, b = before[workload][m["name"]], after[workload][m["name"]]
            qa, qb = quartiles(a), quartiles(b)
            worse = worsening(m, median(a), median(b)) / median(a)
            flag = worse > m["bound"]
            flagged += flag
            print(f"{workload:12s} {m['name']:18s} {len(a):>2d}/{len(b):<2d} "
                  f"{qa[0]:10.4g}/{qa[1]:.4g}/{qa[2]:<8.4g} {qb[0]:10.4g}/{qb[1]:.4g}/{qb[2]:<8.4g} "
                  f"{worse:+9.1%} {m['bound']:6.0%}{'  FLAGGED' if flag else ''}")
    print(f"{flagged} metric(s) outside their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

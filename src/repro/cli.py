"""Command-line entry point: ``python -m repro <experiment> [options]``.

Runs the paper-reproduction experiments registered in
:data:`repro.bench.experiments.EXPERIMENTS` and prints their tables, the
six gate drivers (``python -m repro bench NAME [--smoke]``, each
recorded in ``BENCH_<NAME>.json``; see :mod:`repro.bench.record`), the
differential degenerate-wheel audit (``python -m repro audit``, exit 0
iff zero violations across every backend), the async selection service
(``python -m repro serve``, binary frames and JSON-lines over TCP or
stdio), and the experiment workbench (``python -m repro lab``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro._version import __version__
from repro.bench.experiments import EXPERIMENTS
from repro.bench.record import DRIVERS

__all__ = ["main", "build_parser"]


def _jsonable(obj):
    """Recursively convert experiment data (ndarrays etc.) to JSON types."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'The Logarithmic Random Bidding "
            "for the Parallel Roulette Wheel Selection with Precise "
            "Probabilities' (IPPS 2024)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all", "audit", "bench", "serve"],
        help=(
            "experiment to run ('all' runs every paper experiment; "
            "'audit' runs the differential degenerate-wheel audit over "
            "every selection backend; "
            "'bench NAME' runs one gate driver and records "
            f"BENCH_NAME.json, NAME one of {', '.join(DRIVERS)}; "
            "'lab' is the declarative experiment workbench — "
            "'lab run CONFIG' executes a TOML/JSON design matrix resumably "
            "with per-cell caching (see 'lab --help'); "
            "'serve' runs the selection service — binary frames + "
            "JSON-lines over TCP, sharded across processes with "
            "--workers N)"
        ),
    )
    parser.add_argument(
        "name", nargs="?", metavar="NAME", help="bench only: the gate driver to run"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="bench only: the driver's small CI configuration",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="Monte-Carlo draws for table experiments (default: driver's default; "
        "the paper used 10**9)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--engine",
        type=str,
        default=None,
        help=(
            "drive table1/table2 with a from-scratch RNG engine at 32-bit "
            "resolution (e.g. 'mt19937' = the paper's exact rand(); slower)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the experiment's raw data as JSON instead of a table",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help=(
            "bench: where to record the measurements (default "
            "BENCH_NAME.json); audit: also write the JSON report here"
        ),
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=200,
        help=(
            "audit only: draws per (backend, case) pair for vectorised "
            "backends; simulated machines get max(20, trials//2) (default 200)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "serve only: shard worker processes — >1 starts the sharded "
            "multi-process cluster (default: 1, in-process)"
        ),
    )
    parser.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="serve only: TCP bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7077,
        help="serve only: TCP port (default 7077)",
    )
    parser.add_argument(
        "--stdio",
        action="store_true",
        help="serve only: speak JSON-lines over stdin/stdout instead of TCP",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="serve only: requests coalesced per kernel call (default 64)",
    )
    parser.add_argument(
        "--max-delay-us",
        type=float,
        default=200.0,
        help=(
            "serve only: batching delay bound in microseconds (default 200); "
            "with --workers, shards answer each read at once and never wait"
        ),
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        help="serve only: queued requests before shedding (default 1024)",
    )
    parser.add_argument(
        "--max-wheels",
        type=int,
        default=256,
        help="serve only: registry LRU capacity (default 256)",
    )
    return parser


def _run_bench(args) -> int:
    """Run one gate driver and record it; exit 0 iff the record was written."""
    from repro.bench import record

    report = record.run(args.name, seed=args.seed, smoke=args.smoke)
    path = record.record_path(report, args.output)
    try:
        record.validate(report)
    except ValueError as exc:
        print(f"bench {args.name}: record refused: {exc}", file=sys.stderr)
        return 1
    previous = record.read(path)
    if previous is not None:
        # Before the old record is overwritten; on stderr under --json,
        # whose stdout is the record alone.
        out = sys.stderr if args.json else sys.stdout
        print(record.render_drift(previous, report), file=out)
    record.write(report, path)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(record.render(report))
        print(f"recorded -> {path}")
    return 0


async def _serve_tcp_until_signal(service, host: str, port: int) -> None:
    """Serve TCP with graceful drain on SIGTERM / SIGINT.

    On signal: stop accepting connections, flip the service into
    ``draining`` (in-flight requests complete; new frames get the typed
    ``draining`` refusal), flush, then exit — no accepted request lost.
    """
    import asyncio
    import signal

    from repro.service.server import start_tcp_server

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    server = await start_tcp_server(service, host, port)
    bound = server.sockets[0].getsockname()
    workers = getattr(service, "workers", 1)
    print(
        f"repro selection service listening on {bound[0]}:{bound[1]} "
        f"(binary frames + JSON lines; workers={workers}; "
        f"SIGTERM/ctrl-c drains gracefully)",
        file=sys.stderr,
        flush=True,
    )
    try:
        await stop.wait()
        server.close()
        await server.wait_closed()
        print("draining: completing in-flight requests", file=sys.stderr, flush=True)
        await service.drain()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await service.close()


def _run_serve(args) -> int:
    """Run the selection service until EOF (stdio) or signal (TCP)."""
    import asyncio

    from repro.service.scheduler import BatchConfig

    config = BatchConfig(
        max_batch=args.max_batch,
        max_delay_us=args.max_delay_us,
        queue_limit=args.queue_limit,
    )
    if args.workers is not None and args.workers > 1:
        # Sharded multi-process cluster; must be built before any event
        # loop exists (workers are forked in the constructor).
        from repro.service.cluster import ClusterService

        service = ClusterService(
            workers=args.workers,
            seed=args.seed,
            config=config,
            max_wheels=args.max_wheels,
        )
    else:
        from repro.service.server import SelectionService

        service = SelectionService(
            seed=args.seed, config=config, max_wheels=args.max_wheels
        )
    try:
        if args.stdio:
            from repro.service.server import serve_stdio

            asyncio.run(serve_stdio(service))
        else:
            asyncio.run(_serve_tcp_until_signal(service, args.host, args.port))
    except KeyboardInterrupt:  # pragma: no cover - signal raced the handler
        pass
    return 0


def _run_audit(args) -> int:
    """Run the degenerate-wheel audit; exit 0 iff zero violations."""
    from repro.audit import render_report, run_audit

    report = run_audit(trials=args.trials, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
        if args.output:
            print(f"recorded -> {args.output}")
    return 0 if report["summary"]["passed"] else 1


def _run_one(
    name: str,
    iterations: Optional[int],
    seed: int,
    as_json: bool = False,
    engine: Optional[str] = None,
) -> str:
    driver = EXPERIMENTS[name]
    kwargs = {"seed": seed}
    if iterations is not None and name in ("table1", "table2", "worked-example", "rng"):
        kwargs["iterations"] = iterations
    if engine is not None and name in ("table1", "table2"):
        kwargs["engine"] = engine
    report = driver(**kwargs)
    if as_json:
        return json.dumps(
            {"name": report.name, "title": report.title, "data": _jsonable(report.data)},
            indent=2,
        )
    return report.render()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lab":
        # The workbench has its own subcommand tree (run/status/report/
        # clean/scenarios); delegate before the flat parser runs.
        from repro.lab.cli import main as lab_main

        return lab_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(EXPERIMENTS) + ["audit", "bench", "lab", "serve"]:
            print(name)
        return 0
    if args.experiment is None:
        parser.print_help()
        return 2
    if args.experiment == "bench":
        if args.name not in DRIVERS:
            parser.error(f"bench NAME must be one of {', '.join(DRIVERS)}")
        if args.iterations is not None or args.workers is not None or args.engine:
            parser.error("bench takes no --iterations, --workers or --engine; use --smoke")
        return _run_bench(args)
    if args.name is not None or args.smoke:
        parser.error("NAME and --smoke apply only to 'bench'")
    if args.experiment == "audit":
        return _run_audit(args)
    if args.experiment == "serve":
        return _run_serve(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(
            _run_one(
                name, args.iterations, args.seed, as_json=args.json, engine=args.engine
            )
        )
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())

"""Engine perf gate — the acceptance configuration of BENCH_engine.json.

Runs :func:`repro.engine.bench.run_bench` at the gate configuration
(n = 1000 items, 10^6 draws, single core) and asserts the compiled
engine's headline claim: >= 3x over the registry ``select_many`` path.
The measured record is refreshed at the repo root so the committed
``BENCH_engine.json`` tracks the current tree.

On this wheel size the crossover is not close: the precomputed alias
kernel runs at ~110 ns/draw vs ~7000 ns/draw for the registry key race
(see ``test_method_throughput.py`` for the per-method landscape).
"""

import json
import pathlib

from repro.bench.record import validate, write
from repro.engine.bench import render_bench, run_bench

#: The acceptance gate from the issue: n=1000, 1e6 draws, one core.
GATE_N = 1000
GATE_DRAWS = 1_000_000
GATE_SPEEDUP = 3.0

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_engine_speedup_gate(benchmark):
    report = benchmark.pedantic(
        run_bench,
        kwargs={"n": GATE_N, "draws": GATE_DRAWS, "seed": 0},
        rounds=1,
        iterations=1,
    )
    validate(report)
    print()
    print(render_bench(report))

    speedup = report["results"]["speedup_compiled_vs_registry"]
    assert speedup >= GATE_SPEEDUP, (
        f"compiled select_many must be >= {GATE_SPEEDUP}x the registry path "
        f"at n={GATE_N}, draws={GATE_DRAWS}; measured {speedup:.2f}x"
    )

    # Refresh the committed record and confirm it round-trips.
    path = write(report, str(_REPO_ROOT / "BENCH_engine.json"))
    with open(path, encoding="utf-8") as fh:
        validate(json.load(fh))

    benchmark.extra_info["speedup_compiled_vs_registry"] = speedup
    benchmark.extra_info["compiled_ns_per_draw"] = report["results"]["compiled_ns_per_draw"]

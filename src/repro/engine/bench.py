"""The engine's perf gate: measure, compare, and record throughput.

:func:`run_bench` times the registry path against the compiled kernels
on one wheel configuration and returns a :mod:`repro.bench.record`
record; ``python -m repro bench engine`` writes it to
``BENCH_engine.json`` so subsequent changes have a perf trajectory to
regress against.  The record also carries the required determinism
certificate of ``parallel_counts(workers=None)``.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.bench.record import GATE, NUMBER, gate, make_record, render_gates
from repro.bench.timers import timed
from repro.core.fitness import validate_fitness
from repro.core.methods.base import get_method
from repro.engine.compiled import DEFAULT_CHUNK_BYTES, CompiledWheel
from repro.engine.parallel import MIN_DRAWS_PER_WORKER, parallel_counts, suggest_workers

__all__ = ["run_bench", "render_bench", "REQUIRED", "SMOKE"]

#: Paths every engine record must carry (see :func:`repro.bench.record.validate`).
REQUIRED = [
    *[
        (f"results.{key}", NUMBER)
        for key in (
            "registry_select_many_s",
            "compiled_select_many_s",
            "compiled_race_select_many_s",
            "stream_counts_s",
            "parallel_counts_s",
            "speedup_compiled_vs_registry",
            "speedup_race_vs_registry",
        )
    ],
    ("determinism.ok", GATE),
]

#: ``--smoke``: 50k draws on a 200-item wheel.
SMOKE = {"draws": 50_000, "n": 200}

#: The engine's acceptance gate: compiled >= 3x the registry path.
GATE_SPEEDUP = 3.0


def _determinism_section(f, *, seed: int, method: str) -> Dict[str, Any]:
    """The certificate: ``workers=None`` is a pure choice."""
    # workers=None picks suggest_workers(size) on both calls; at two
    # workers' worth of draws a host with 2+ CPUs fans out to processes.
    size = 2 * MIN_DRAWS_PER_WORKER
    c1 = parallel_counts(f, size, method=method, seed=seed)
    c2 = parallel_counts(f, size, method=method, seed=seed)
    resolved_workers = suggest_workers(size)
    c3 = parallel_counts(f, size, method=method, seed=seed, workers=resolved_workers)
    identical = bool(np.array_equal(c1, c2) and np.array_equal(c1, c3))
    return {
        "parallel_counts_identical": identical,
        "resolved_workers": resolved_workers,
        "ok": identical,
    }


def run_bench(
    n: int = 1000,
    draws: int = 1_000_000,
    seed: int = 0,
    method: str = "log_bidding",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Dict[str, Any]:
    """Time registry vs compiled selection on one wheel.

    The default configuration (``n=1000``, ``draws=10**6``) is the
    acceptance gate: ``speedup_compiled_vs_registry`` must stay >= 3.
    ``parallel_counts(workers=None)`` must replay bit for bit and equal
    an explicit ``workers=suggest_workers(size)`` call (required).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if draws <= 0:
        raise ValueError(f"draws must be positive, got {draws}")
    f = validate_fitness(1.0 - np.random.default_rng(seed).random(n))
    sel = get_method(method)

    registry_s = timed(lambda: sel.select_many(f, np.random.default_rng(seed + 1), draws))

    compiled_auto = CompiledWheel(f, method, kernel="auto", chunk_bytes=chunk_bytes)
    compiled_s = timed(
        lambda: compiled_auto.select_many(draws, rng=np.random.default_rng(seed + 1))
    )

    compiled_race = CompiledWheel(f, method, kernel="faithful", chunk_bytes=chunk_bytes)
    race_s = timed(
        lambda: compiled_race.select_many(draws, rng=np.random.default_rng(seed + 1))
    )

    counts_s = timed(lambda: compiled_auto.counts(draws, rng=np.random.default_rng(seed + 1)))

    workers = suggest_workers(draws)
    parallel_s = timed(
        lambda: parallel_counts(
            f, draws, method=method, seed=seed, workers=workers, chunk_bytes=chunk_bytes
        )
    )

    speedup = registry_s / compiled_s if compiled_s else float("inf")
    config = {
        "n": n,
        "draws": draws,
        "seed": seed,
        "method": method,
        "chunk_bytes": chunk_bytes,
        "kernel_auto": compiled_auto.kernel,
        "kernel_faithful": compiled_race.kernel,
        "workers": workers,
    }
    results = {
        "registry_select_many_s": registry_s,
        "compiled_select_many_s": compiled_s,
        "compiled_race_select_many_s": race_s,
        "stream_counts_s": counts_s,
        "parallel_counts_s": parallel_s,
        "speedup_compiled_vs_registry": speedup,
        "speedup_race_vs_registry": registry_s / race_s if race_s else float("inf"),
        "registry_ns_per_draw": 1e9 * registry_s / draws,
        "compiled_ns_per_draw": 1e9 * compiled_s / draws,
    }
    sections = {
        "results": results,
        "determinism": _determinism_section(f, seed=seed, method=method),
    }
    gates = [
        gate(sections, "results.speedup_compiled_vs_registry", ">=", GATE_SPEEDUP),
        gate(sections, "determinism.ok", "==", True, required=True),
    ]
    return make_record("engine", config, sections, gates)


def render_bench(report: Dict[str, Any]) -> str:
    """One-screen human summary of a bench report."""
    c, r, det = report["config"], report["results"], report["determinism"]
    lines = [
        f"== engine bench: n={c['n']}, draws={c['draws']}, method={c['method']} ==",
        f"registry select_many      {r['registry_select_many_s']:.3f} s"
        f"  ({r['registry_ns_per_draw']:.0f} ns/draw)",
        f"compiled ({c['kernel_auto']:>12s})  {r['compiled_select_many_s']:.3f} s"
        f"  ({r['compiled_ns_per_draw']:.0f} ns/draw)",
        f"compiled ({c['kernel_faithful']:>12s})  {r['compiled_race_select_many_s']:.3f} s",
        f"stream_counts             {r['stream_counts_s']:.3f} s",
        f"parallel_counts (w={c['workers']})    {r['parallel_counts_s']:.3f} s",
        f"speedup compiled/registry {r['speedup_compiled_vs_registry']:.1f}x",
        f"speedup race/registry     {r['speedup_race_vs_registry']:.2f}x",
        f"determinism: parallel_counts={det['parallel_counts_identical']}",
        render_gates(report),
    ]
    return "\n".join(lines)

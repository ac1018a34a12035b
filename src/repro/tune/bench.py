"""``python -m repro bench tune``: score the tuner against measurement.

The record (``BENCH_tune.json``) evaluates the **prediction gate** —
the Las Vegas speedup model applied to a real multi-process race:
capture the sequential runtime distribution of a geometric
draws-until-target workload, predict ``E[min of W]`` for a
``{1, 2, 4}`` worker sweep, then *measure* the same sweep with
pre-spawned racing workers.  Relative error must stay within 20%.  On
hosts with fewer cores than the sweep needs the measurement is
meaningless (racers time-slice one core), so the gate auto-skips with
the reason recorded — the same discipline as BENCH_serve's scaling
gate.  The model itself is still validated on every host against the
exact race round-count law of ``repro.stats.race_theory`` (empirical
sample in, analytic pmf as oracle), which has no wall-clock noise at
all.

Plus the determinism certificate: ``parallel_counts`` with
``workers=None`` is byte-identical on a rerun and to an explicit
``suggest_workers(size)``.  The probes' cost constants are reported
in the record and nowhere else: no later call reads them.
"""

from __future__ import annotations

import os
import platform
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, Sequence

import numpy as np

from repro.bench.record import GATE, NONEMPTY, NUMBER, gate, make_record, render_gates, skip
from repro.tune.predictor import RuntimeDistribution
from repro.tune.probes import calibrate
from repro.tune.sample import RuntimeSample
from repro.tune.timers import timed

__all__ = ["run_bench_tune", "render_bench_tune", "REQUIRED", "SMOKE"]

#: The worker-sweep gate, skipped on hosts with fewer than 4 cores.
_SPEEDUP_GATE = "speedup_gate.worst_relative_error"

#: Paths every tune record must carry (see :func:`repro.bench.record.validate`).
REQUIRED = [
    ("calibration.draw_ns", NUMBER),
    ("predictor.ok", GATE),
    ("speedup_gate.workers.*", NUMBER),
    ("speedup_gate.per_worker", NONEMPTY, _SPEEDUP_GATE),
    ("determinism.ok", GATE),
]

#: ``--smoke``: a miniature calibration and race sweep.
SMOKE = {"trials": 6, "race_trials": 3, "wheel_n": 256, "race_trials_probe": 5000}

#: Worker sweep of the prediction gate.
_SWEEP_WORKERS = (1, 2, 4)

#: Prediction-gate tolerance on the measured worker sweep.
PREDICTION_TOLERANCE = 0.20

#: The analytic race-law validation is noise-free on the model side;
#: with 20k empirical trials, 5% bounds ~5 standard errors.
_RACE_LAW_TOLERANCE = 0.05


# ----------------------------------------------------------------------
# Las Vegas workload for the prediction gate (top-level: must pickle).
def _lv_race_task(payload) -> float:
    """Wall seconds of one geometric draws-until-target search.

    The wheel gives index 0 a small fixed probability, so the number of
    draws to first hit is geometric and the wall time is near-
    exponential — the memoryless regime where multi-walk racing pays.
    Built fresh per task so every racer carries identical constant
    costs (iid copies, the model's assumption).
    """
    from repro.engine.compiled import CompiledWheel

    seed, n, method, rare_weight, chunk = payload

    def search() -> None:
        values = np.ones(n, dtype=np.float64)
        values[0] = rare_weight
        wheel = CompiledWheel(values, method, kernel="auto")
        rng = np.random.default_rng(seed)
        while True:
            if (wheel.select_many(chunk, rng=rng) == 0).any():
                return

    return timed(search)


def _speedup_section(
    seed: int,
    *,
    workers: Sequence[int],
    trials: int,
    race_trials: int,
    n: int,
    method: str,
    rare_weight: float,
    chunk: int,
) -> Dict[str, Any]:
    """Predicted vs measured E[min of W] across the worker sweep."""
    max_w = max(workers)
    base = (n, method, rare_weight, chunk)
    with ProcessPoolExecutor(max_workers=max_w) as pool:
        # Warm every worker (interpreter + numpy import) before timing.
        wait([pool.submit(_lv_race_task, (w, *base)) for w in range(max_w)])
        # Sequential runtime distribution: `trials` one-copy runs.
        seq = RuntimeSample(unit="s")
        for t in range(trials):
            fut = pool.submit(_lv_race_task, (seed * 1_000_003 + t, *base))
            seq.record(fut.result())
        dist = seq.distribution()
        per_worker: Dict[str, Any] = {}
        worst_error = 0.0
        for w in workers:
            predicted = dist.expected_min(w)
            measured_runs = []
            for t in range(race_trials):
                futures = [
                    pool.submit(
                        _lv_race_task,
                        (seed * 2_000_003 + t * max_w * 7 + i, *base),
                    )
                    for i in range(w)
                ]
                start = time.perf_counter()
                wait(futures, return_when=FIRST_COMPLETED)
                measured_runs.append(time.perf_counter() - start)
                wait(futures)  # drain stragglers before the next trial
            measured = float(np.mean(measured_runs))
            error = abs(predicted - measured) / measured if measured else 0.0
            worst_error = max(worst_error, error)
            per_worker[str(w)] = {
                "predicted_s": predicted,
                "measured_s": measured,
                "relative_error": error,
                "predicted_speedup": dist.speedup(w),
                "measured_speedup": seq.mean / measured if measured else 1.0,
            }
    return {
        "workers": list(workers),
        "sequential_trials": trials,
        "race_trials": race_trials,
        "sequential_mean_s": seq.mean,
        "per_worker": per_worker,
        "worst_relative_error": worst_error,
    }


# ----------------------------------------------------------------------
def _predictor_section(race_rounds: RuntimeSample) -> Dict[str, Any]:
    """Empirical pipeline vs the exact race round-count law (k = 64)."""
    from repro.stats.race_theory import expected_rounds

    k = 64
    exact = RuntimeDistribution.from_race_law(k)
    empirical = race_rounds.distribution()
    grid = (1, 2, 4, 8)
    exact_curve = exact.speedup_curve(grid)
    empirical_curve = empirical.speedup_curve(grid)
    errors = {
        str(w): abs(empirical_curve[w] - exact_curve[w]) / exact_curve[w]
        for w in grid
    }
    mean_error = abs(empirical.mean() - exact.mean()) / exact.mean()
    worst = max(max(errors.values()), mean_error)
    return {
        "k": k,
        "trials": race_rounds.count,
        "exact_mean_rounds": exact.mean(),
        "analytic_mean_rounds": expected_rounds(k),
        "empirical_mean_rounds": empirical.mean(),
        "exact_speedups": {str(w): exact_curve[w] for w in grid},
        "empirical_speedups": {str(w): empirical_curve[w] for w in grid},
        "relative_errors": errors,
        "worst_relative_error": worst,
        "tolerance": _RACE_LAW_TOLERANCE,
        "ok": bool(worst <= _RACE_LAW_TOLERANCE),
    }


# ----------------------------------------------------------------------
def _determinism_section(
    *, seed: int, wheel_n: int, method: str
) -> Dict[str, Any]:
    """The acceptance certificate: ``workers=None`` is a pure choice."""
    from repro.engine.parallel import parallel_counts, suggest_workers

    fitness = 1.0 - np.random.default_rng(seed).random(wheel_n)

    # workers=None picks suggest_workers(size) on both calls.
    size = 200_000
    c1 = parallel_counts(fitness, size, method=method, seed=seed)
    c2 = parallel_counts(fitness, size, method=method, seed=seed)
    resolved_workers = suggest_workers(size)
    c3 = parallel_counts(
        fitness, size, method=method, seed=seed, workers=resolved_workers
    )
    engine_ok = bool(np.array_equal(c1, c2) and np.array_equal(c1, c3))
    return {
        "parallel_counts_identical": engine_ok,
        "resolved_workers": resolved_workers,
        "ok": engine_ok,
    }


# ----------------------------------------------------------------------
def run_bench_tune(
    seed: int = 0,
    *,
    workers: Sequence[int] = _SWEEP_WORKERS,
    trials: int = 24,
    race_trials: int = 8,
    wheel_n: int = 1024,
    method: str = "log_bidding",
    rare_weight: float = 0.02,
    chunk: int = 8192,
    race_trials_probe: int = 20_000,
) -> Dict[str, Any]:
    """Probe, predict, measure, and assemble the BENCH_tune record.

    Writes nothing: the probed cost constants go into the returned
    record only.
    """
    cpu_count = os.cpu_count() or 1

    cal, probe_costs = calibrate(
        seed=seed, n=wheel_n, method=method, race_trials=race_trials_probe
    )
    calibration_section = {
        "host": platform.node() or "localhost",
        "cpu_count": cpu_count,
        "spawn_overhead_s": cal.spawn_overhead_s,
        "draw_ns": cal.draw_s * 1e9,
        "min_draws_per_worker": cal.min_draws_per_worker,
        "probe_costs_s": probe_costs,
    }

    predictor = _predictor_section(cal.race_rounds)
    max_w = max(workers)
    if cpu_count < max_w:
        speedup_gate = {"workers": list(workers)}
        speedup_verdict = skip(
            _SPEEDUP_GATE, "<=", PREDICTION_TOLERANCE,
            f"cpu_count={cpu_count} < {max_w}: racers would time-slice "
            f"cores and the min-of-W measurement would not reflect the "
            f"iid-parallel model",
        )
    else:
        speedup_gate = _speedup_section(
            seed,
            workers=workers,
            trials=trials,
            race_trials=race_trials,
            n=wheel_n,
            method=method,
            rare_weight=rare_weight,
            chunk=chunk,
        )
        speedup_verdict = gate(
            {"speedup_gate": speedup_gate}, _SPEEDUP_GATE, "<=", PREDICTION_TOLERANCE
        )
    determinism = _determinism_section(seed=seed, wheel_n=wheel_n, method=method)

    sections = {
        "calibration": calibration_section,
        "predictor": predictor,
        "speedup_gate": speedup_gate,
        "determinism": determinism,
    }
    gates = [
        gate(sections, "predictor.ok", "==", True, required=True),
        speedup_verdict,
        gate(sections, "determinism.ok", "==", True, required=True),
    ]
    config = {
        "seed": seed,
        "workers": list(workers),
        "trials": trials,
        "race_trials": race_trials,
        "wheel_n": wheel_n,
        "method": method,
    }
    return make_record("tune", config, sections, gates)


def render_bench_tune(report: Dict[str, Any]) -> str:
    """One-screen human summary of a tune bench report."""
    cal, pred = report["calibration"], report["predictor"]
    sg, det = report["speedup_gate"], report["determinism"]
    lines = [
        f"== tune bench: host={cal['host']}, cpus={cal['cpu_count']} ==",
        f"calibration: spawn={cal['spawn_overhead_s'] * 1e3:.1f} ms, "
        f"draw={cal['draw_ns']:.0f} ns",
        f"break-even min_draws_per_worker: {cal['min_draws_per_worker']}",
        f"race-law check (k={pred['k']}): worst error "
        f"{pred['worst_relative_error'] * 100:.2f}%",
    ]
    if "worst_relative_error" in sg:
        lines.append(
            f"speedup gate: worst error {sg['worst_relative_error'] * 100:.1f}% "
            f"over W={sg['workers']}"
        )
    lines += [
        f"determinism: parallel_counts={det['parallel_counts_identical']}",
        render_gates(report),
    ]
    return "\n".join(lines)

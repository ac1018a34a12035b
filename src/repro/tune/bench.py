"""``python -m repro bench tune``: score the tuner against measurement.

The record (``BENCH_tune.json``) evaluates the two tentpole gates:

1. **Prediction gate** — the Las Vegas speedup model applied to a real
   multi-process race: capture the sequential runtime distribution of a
   geometric draws-until-target workload, predict ``E[min of W]`` for a
   ``{1, 2, 4}`` worker sweep, then *measure* the same sweep with
   pre-spawned racing workers.  Relative error must stay within 20%.
   On hosts with fewer cores than the sweep needs the measurement is
   meaningless (racers time-slice one core), so the gate auto-skips
   with the reason recorded — the same discipline as BENCH_serve's
   scaling gate.  The model itself is still validated on every host
   against the exact race round-count law of ``repro.stats.race_theory``
   (empirical sample in, analytic pmf as oracle), which has no
   wall-clock noise at all.

2. **Autotune gate** — calibrated configuration beats exhaustive
   measurement: ``BatchConfig.autotune`` fed by the batch-kernel probe
   and one short arrival-rate estimate must land within 10% of the best
   config found by a full static sweep, while spending at most 5% of
   the sweep's wall-clock probe budget.

Plus the acceptance-criterion determinism certificates: calibrated
``suggest_workers`` leaves ``parallel_counts`` byte-identical, and the
online delay controller leaves batched serving bit-identical to solo
serving and direct substream replay.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.bench.record import GATE, NONEMPTY, NUMBER, gate, make_record, render_gates, skip
from repro.tune.calibration import (
    resolve_min_draws_per_worker,
    save_calibration,
)
from repro.tune.controller import DelayController
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
    ("autotune_gate.probe_budget_fraction", NUMBER),
    ("autotune_gate.ratio_vs_best_static", NUMBER),
    ("determinism.ok", GATE),
]

#: ``--smoke``: a miniature calibration, sweep and traffic probe.
SMOKE = {
    "trials": 6,
    "race_trials": 3,
    "wheel_n": 256,
    "clients": 8,
    "requests_per_client": 16,
    "race_trials_probe": 5000,
}

#: Worker sweep of the prediction gate.
_SWEEP_WORKERS = (1, 2, 4)

#: Gate tolerances (the tentpole's acceptance numbers).
PREDICTION_TOLERANCE = 0.20
AUTOTUNE_TOLERANCE = 0.10
PROBE_BUDGET_FRACTION = 0.05

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
def _predictor_section(cal) -> Dict[str, Any]:
    """Empirical pipeline vs the exact race round-count law (k = 64)."""
    from repro.stats.race_theory import expected_rounds

    k = 64
    exact = RuntimeDistribution.from_race_law(k)
    empirical = cal.sample("race_rounds").distribution()
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
        "trials": cal.sample("race_rounds").count,
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
def _autotune_section(
    cal,
    calibration_probe_s: float,
    *,
    seed: int,
    wheel_n: int,
    method: str,
    clients: int,
    requests_per_client: int,
    n_draws: int,
) -> Dict[str, Any]:
    """Static sweep vs calibrated ``BatchConfig.autotune``, plus budget."""
    from repro.service.loadgen import run_closed_loop
    from repro.service.registry import WheelRegistry
    from repro.service.scheduler import BatchConfig, MicroBatchScheduler

    fitness = 1.0 - np.random.default_rng(seed).random(wheel_n)

    def run_once(cfg: BatchConfig, reqs: int):
        # Fresh registry + scheduler per run: no cache warmth leaks
        # between grid cells.
        registry = WheelRegistry()
        wid, _ = registry.register(fitness, method=method)
        sched = MicroBatchScheduler(registry, cfg, seed=seed)
        elapsed = asyncio.run(
            run_closed_loop(
                sched, wid,
                clients=clients, requests_per_client=reqs, n_draws=n_draws,
            )
        )
        return elapsed, sched.metrics

    def run_config(cfg: BatchConfig, reqs: int) -> float:
        # Best-of-2 for the same reason the engine bench uses
        # min-of-reps: preemption only ever adds time.
        return min(run_once(cfg, reqs)[0], run_once(cfg, reqs)[0])

    sweep_start = time.perf_counter()
    grid: Dict[str, float] = {}
    for max_batch in (4, 16, 64, 256):
        for delay_us in (0.0, 200.0, 1000.0):
            cfg = BatchConfig(max_batch=max_batch, max_delay_us=delay_us)
            grid[f"batch={max_batch},delay={delay_us:g}us"] = run_config(
                cfg, requests_per_client
            )
    sweep_cost_s = time.perf_counter() - sweep_start
    best_key = min(grid, key=grid.get)
    best_static_s = grid[best_key]

    # --- the autotuned path: calibration probe + one short traffic
    # probe.  The traffic probe estimates the arrival rate (requests
    # per wall second) and the burst concurrency (the scheduler's
    # queue_peak) under the *default* config — everything autotune
    # needs, at a small fraction of one sweep cell.
    probe_start = time.perf_counter()
    probe_reqs = max(1, requests_per_client // 16)
    probe_elapsed, probe_metrics = run_once(BatchConfig(), probe_reqs)
    probe_requests = clients * probe_reqs
    arrival_rate_rps = probe_requests / probe_elapsed if probe_elapsed else 1.0
    auto_cfg = BatchConfig.autotune(
        batch_base_s=cal.batch_base_s,
        batch_per_draw_s=cal.batch_per_draw_s,
        arrival_rate_rps=arrival_rate_rps,
        n_draws=n_draws,
        concurrency=max(1.0, float(probe_metrics.queue_peak)),
    )
    probe_budget_s = (time.perf_counter() - probe_start) + calibration_probe_s
    auto_s = run_config(auto_cfg, requests_per_client)

    ratio = auto_s / best_static_s if best_static_s else 1.0
    budget_fraction = probe_budget_s / sweep_cost_s if sweep_cost_s else 0.0
    return {
        "workload": {
            "wheel_n": wheel_n,
            "method": method,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "n_draws": n_draws,
        },
        "sweep": grid,
        "sweep_cost_s": sweep_cost_s,
        "best_static": {"config": best_key, "elapsed_s": best_static_s},
        "estimated_arrival_rate_rps": arrival_rate_rps,
        "estimated_concurrency": probe_metrics.queue_peak,
        "autotuned": {
            "max_batch": auto_cfg.max_batch,
            "max_delay_us": auto_cfg.max_delay_us,
            "elapsed_s": auto_s,
        },
        "probe_budget_s": probe_budget_s,
        "probe_budget_fraction": budget_fraction,
        "ratio_vs_best_static": ratio,
    }


# ----------------------------------------------------------------------
def _determinism_section(
    *, seed: int, wheel_n: int, method: str
) -> Dict[str, Any]:
    """The acceptance certificates: tuning changes nothing bitwise."""
    from repro.engine.parallel import parallel_counts, suggest_workers
    from repro.rng.streams import request_stream
    from repro.service.registry import WheelRegistry, digest_key
    from repro.service.scheduler import BatchConfig, MicroBatchScheduler

    fitness = 1.0 - np.random.default_rng(seed).random(wheel_n)

    # parallel_counts under calibrated suggest_workers (workers=None
    # resolves through the calibration chain on both calls).
    size = 200_000
    c1 = parallel_counts(fitness, size, method=method, seed=seed)
    c2 = parallel_counts(fitness, size, method=method, seed=seed)
    resolved_workers = suggest_workers(size)
    c3 = parallel_counts(
        fitness, size, method=method, seed=seed, workers=resolved_workers
    )
    engine_ok = bool(np.array_equal(c1, c2) and np.array_equal(c1, c3))

    # Batched serving with the online controller enabled, against solo
    # serving and direct substream replay.
    sizes = [1, 5, 17, 3, 64, 2, 9, 30, 12, 7, 21, 4]

    async def gather(sched, wid):
        return await asyncio.gather(
            *(sched.draw(wid, n, seed=i) for i, n in enumerate(sizes))
        )

    def serve(max_batch: int, controller) -> list:
        registry = WheelRegistry()
        wid, _ = registry.register(fitness, method=method)
        sched = MicroBatchScheduler(
            registry,
            BatchConfig(max_batch=max_batch, max_delay_us=100.0),
            seed=seed,
            controller=controller,
        )
        return asyncio.run(gather(sched, wid))

    controller = DelayController(adjust_every=1, max_delay_us=500.0)
    coalesced = serve(len(sizes), controller)
    solo = serve(1, DelayController(adjust_every=1, max_delay_us=500.0))
    registry = WheelRegistry()
    wid, _ = registry.register(fitness, method=method)
    wheel = registry.get(wid)
    serving_ok = True
    for i, n in enumerate(sizes):
        direct = wheel.select_many(n, request_stream(seed, digest_key(wid), i))
        if not (
            np.array_equal(coalesced[i], solo[i])
            and np.array_equal(coalesced[i], direct)
        ):
            serving_ok = False
    return {
        "parallel_counts_identical": engine_ok,
        "resolved_workers": resolved_workers,
        "serving_identical_with_controller": serving_ok,
        "controller_retunes": controller.retunes,
        "ok": bool(engine_ok and serving_ok),
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
    clients: int = 16,
    requests_per_client: int = 32,
    n_draws: int = 8,
    rare_weight: float = 0.02,
    chunk: int = 8192,
    race_trials_probe: int = 20_000,
    calibration_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Probe, predict, measure, and assemble the BENCH_tune record.

    The calibration produced along the way is published to the per-host
    cache (``calibration_out`` overrides the path), so running the
    bench *is* how a host gets tuned.
    """
    cpu_count = os.cpu_count() or 1

    probe_start = time.perf_counter()
    cal, probe_costs = calibrate(
        seed=seed, n=wheel_n, method=method, race_trials=race_trials_probe
    )
    calibration_probe_s = time.perf_counter() - probe_start
    cache_path = save_calibration(cal, calibration_out)
    min_draws = resolve_min_draws_per_worker()

    calibration_section = {
        "path": cache_path,
        "host": cal.host,
        "cpu_count": cal.cpu_count,
        "spawn_overhead_s": cal.spawn_overhead_s,
        "draw_ns": cal.draw_s * 1e9,
        "batch_base_us": cal.batch_base_s * 1e6,
        "batch_per_draw_ns": cal.batch_per_draw_s * 1e9,
        "min_draws_per_worker": cal.min_draws_per_worker(),
        "resolved_min_draws_per_worker": min_draws,
        "probe_costs_s": probe_costs,
        "total_probe_s": calibration_probe_s,
        "samples": sorted(cal.samples),
    }

    predictor = _predictor_section(cal)
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
    autotune_gate = _autotune_section(
        cal,
        # Only the batch-kernel probe feeds BatchConfig.autotune; the
        # budget charges what the decision actually consumed.
        float(probe_costs.get("batch", 0.0)),
        seed=seed,
        wheel_n=wheel_n,
        method=method,
        clients=clients,
        requests_per_client=requests_per_client,
        n_draws=n_draws,
    )
    determinism = _determinism_section(seed=seed, wheel_n=wheel_n, method=method)

    sections = {
        "calibration": calibration_section,
        "predictor": predictor,
        "speedup_gate": speedup_gate,
        "autotune_gate": autotune_gate,
        "determinism": determinism,
    }
    gates = [
        gate(sections, "predictor.ok", "==", True, required=True),
        speedup_verdict,
        gate(
            sections, "autotune_gate.ratio_vs_best_static", "<=",
            1.0 + AUTOTUNE_TOLERANCE,
        ),
        gate(
            sections, "autotune_gate.probe_budget_fraction", "<=",
            PROBE_BUDGET_FRACTION,
        ),
        gate(sections, "determinism.ok", "==", True, required=True),
    ]
    config = {
        "seed": seed,
        "workers": list(workers),
        "trials": trials,
        "race_trials": race_trials,
        "wheel_n": wheel_n,
        "method": method,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "n_draws": n_draws,
    }
    return make_record("tune", config, sections, gates)


def render_bench_tune(report: Dict[str, Any]) -> str:
    """One-screen human summary of a tune bench report."""
    cal, pred = report["calibration"], report["predictor"]
    sg, at, det = (
        report["speedup_gate"],
        report["autotune_gate"],
        report["determinism"],
    )
    lines = [
        f"== tune bench: host={cal['host']}, cpus={cal['cpu_count']} ==",
        f"calibration: spawn={cal['spawn_overhead_s'] * 1e3:.1f} ms, "
        f"draw={cal['draw_ns']:.0f} ns, "
        f"flush base={cal['batch_base_us']:.1f} us "
        f"(+{cal['batch_per_draw_ns']:.0f} ns/draw)",
        f"min_draws_per_worker: calibrated={cal['min_draws_per_worker']}, "
        f"resolved={cal['resolved_min_draws_per_worker']}",
        f"race-law check (k={pred['k']}): worst error "
        f"{pred['worst_relative_error'] * 100:.2f}%",
    ]
    if "worst_relative_error" in sg:
        lines.append(
            f"speedup gate: worst error {sg['worst_relative_error'] * 100:.1f}% "
            f"over W={sg['workers']}"
        )
    lines += [
        f"autotune gate: {at['autotuned']['elapsed_s'] * 1e3:.1f} ms vs best "
        f"static {at['best_static']['elapsed_s'] * 1e3:.1f} ms "
        f"({at['ratio_vs_best_static']:.2f}x) at "
        f"{at['probe_budget_fraction'] * 100:.1f}% of sweep budget",
        f"determinism: engine={det['parallel_counts_identical']}, "
        f"serving={det['serving_identical_with_controller']}",
        render_gates(report),
    ]
    return "\n".join(lines)

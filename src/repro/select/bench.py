"""``python -m repro bench select``: gate the selection workloads.

The record (``BENCH_select.json``) evaluates the subsystem's claims:

1. **Lottery exactness gate** — the headline precision win.  A smooth
   partial lottery (``K`` candidates, ``k`` seats, score-smoothed
   marginals) is compiled to one committee wheel and sampled with the
   precise log-bidding backend and with the paper's independent-
   roulette baseline *at the same draw budget*.  The gate requires the
   precise backend's worst marginal error to stay within tolerance
   while the independent baseline measurably exceeds it — the bias is
   structural (the closed-form induced marginals are recorded
   alongside), so no budget rescues it.

2. **R&S PCS gate** — screening on the slippage configuration (every
   inferior system exactly ``delta`` below the best) must select the
   true best in at least a ``1 - alpha`` fraction of replications.

3. **Parallel-screening speedup leg** — replication fan-out wall-clock
   at ``1`` vs ``N`` workers against the
   :func:`repro.stats.runtime.sharded_speedup` work-sharing model.  On
   hosts with fewer than 4 cores the measurement is meaningless (workers
   time-slice), so the leg auto-skips with the reason recorded.

4. **Prediction check** — screening-round runtimes recorded into a
   :class:`repro.stats.runtime.RuntimeSample` must yield
   a distribution whose ``expected_min(W)`` matches a seeded Monte
   Carlo resampling of min-of-``W`` from the same sample.  This
   validates the speedup-curve inputs on every host, with no wall-clock
   noise in the oracle.

Plus the acceptance-criterion **determinism certificate**: ``run_rs``
selections and sample counts are byte-identical for 1 and ``N``
workers.  The certificate and the lottery gate are required: the
record is refused unless both hold.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict

import numpy as np

from repro.bench.record import (
    FRACTION,
    GATE,
    NONEMPTY,
    NUMBER,
    gate,
    make_record,
    render_gates,
    skip,
)
from repro.bench.timers import best_of
from repro.rng.streams import derive_seed
from repro.select.lottery import CommitteeLottery
from repro.select.rs import make_systems, run_rs
from repro.stats.runtime import RuntimeSample, sharded_speedup

__all__ = ["run_bench_select", "render_bench_select", "REQUIRED", "SMOKE"]

#: The parallel leg's gate, skipped on hosts with fewer than 4 cores.
_PARALLEL_GATE = "parallel.relative_error"

#: Paths every select record must carry (see :func:`repro.bench.record.validate`).
REQUIRED = [
    ("lottery.tolerance", NUMBER),
    ("lottery.separation", NUMBER),
    ("lottery.methods.*.empirical_max_abs", NUMBER),
    ("rs.pcs", FRACTION),
    ("parallel.workers", NUMBER),
    *[
        (f"parallel.{key}", NUMBER, _PARALLEL_GATE)
        for key in ("measured_speedup", "predicted_speedup")
    ],
    ("prediction.worst_relative_error", NUMBER),
    ("lottery.methods.log_bidding.empirical_max_abs", GATE),
    ("lottery.methods.independent.empirical_max_abs", GATE),
    ("determinism.ok", GATE),
    ("determinism.workers_compared", NONEMPTY),
]

#: ``--smoke``: 40k lottery draws, 10 screening replications.
SMOKE = {"lottery_draws": 40_000, "rs_replications": 10}

#: Worst per-seat marginal error the precise backend must stay inside.
#: At the default 200k-draw budget the sampling noise on a marginal is
#: ~1e-3, two orders below the tolerance; the independent baseline's
#: structural bias on the default wheel is ~0.4, two orders above it.
LOTTERY_TOLERANCE = 0.02

#: Relative error allowed between ``expected_min`` and its Monte Carlo
#: resampling oracle (20k trials keeps the MC noise well inside this).
PREDICTION_TOLERANCE = 0.05

#: Relative error allowed between the work-sharing speedup model and
#: the measured fan-out speedup (wall-clock leg, multi-core hosts only).
SPEEDUP_TOLERANCE = 0.35

#: Worker count of the speedup leg and the determinism certificate.
_FANOUT_WORKERS = 4

#: Integer key namespace for :func:`repro.rng.streams.derive_seed`
#: (string keys are not supported): keeps the bench's substreams
#: disjoint from the replication streams ``derive_seed(seed, r)``.
_KEY_SCORES = 1_000_001
_KEY_DRAWS = {"log_bidding": 1_000_002, "independent": 1_000_003}
_KEY_PRED = 1_000_004


# ----------------------------------------------------------------------
def _lottery_section(
    seed: int, *, n: int, k: int, smoothing: float, draws: int
) -> Dict[str, Any]:
    """Precise vs independent committee marginals at one draw budget."""
    rng = np.random.default_rng(derive_seed(seed, _KEY_SCORES))
    scores = rng.normal(size=n)
    results: Dict[str, Any] = {}
    elapsed: Dict[str, float] = {}
    for method in ("log_bidding", "independent"):
        lottery = CommitteeLottery(scores, k, smoothing=smoothing, method=method)
        draw_rng = np.random.default_rng(derive_seed(seed, _KEY_DRAWS[method]))
        start = time.perf_counter()
        counts = lottery.component_counts(draws, rng=draw_rng)
        elapsed[method] = time.perf_counter() - start
        empirical = lottery.empirical_marginals(counts)
        emp_err = lottery.marginal_error(empirical)
        analytic = lottery.induced_marginals()
        ana_err = lottery.marginal_error(analytic)
        results[method] = {
            "empirical_max_abs": emp_err["max_abs"],
            "empirical_tv_per_seat": emp_err["tv_per_seat"],
            "analytic_max_abs": ana_err["max_abs"],
            "analytic_tv_per_seat": ana_err["tv_per_seat"],
            "elapsed_s": elapsed[method],
            "draws_per_s": draws / elapsed[method] if elapsed[method] else 0.0,
        }
    precise = results["log_bidding"]["empirical_max_abs"]
    biased = results["independent"]["empirical_max_abs"]
    return {
        "n": n,
        "k": k,
        "smoothing": smoothing,
        "draws": draws,
        "n_components": lottery.n_components,
        "methods": results,
        "tolerance": LOTTERY_TOLERANCE,
        "separation": biased / precise if precise > 0 else math.inf,
    }


# ----------------------------------------------------------------------
def _rs_section(
    seed: int,
    *,
    n_systems: int,
    delta: float,
    alpha: float,
    replications: int,
    n0: int,
    round_sample: RuntimeSample,
) -> Dict[str, Any]:
    """PCS on the slippage configuration, single-worker reference run."""
    instance = make_systems(n_systems, delta)
    report = run_rs(
        instance,
        replications,
        alpha=alpha,
        n0=n0,
        seed=seed,
        workers=1,
        round_sample=round_sample,
    )
    return {
        "n_systems": n_systems,
        "delta": delta,
        "alpha": alpha,
        "replications": replications,
        "n0": n0,
        "true_best": report["true_best"],
        "pcs": report["pcs"],
        "correct": report["correct"],
        "mean_rounds": report["mean_rounds"],
        "mean_samples": report["mean_samples"],
        "total_samples": report["total_samples"],
        "wall_s": report["wall_s"],
        "samples_per_s": report["samples_per_s"],
        "target_pcs": 1.0 - alpha,
    }


# ----------------------------------------------------------------------
def _noop() -> int:
    """Top-level trivial task (must be picklable for the pool probe)."""
    return 0


def _probe_spawn_overhead() -> float:
    """Serial seconds to stand up one pool worker and run a no-op.

    Times ``ProcessPoolExecutor(max_workers=1)`` end to end — spawn,
    one round-trip submit, shutdown.  Min-of-reps: preemption only
    inflates the spawn, never deflates it.
    """

    def spawn_once() -> None:
        with ProcessPoolExecutor(max_workers=1) as pool:
            pool.submit(_noop).result()

    return best_of(spawn_once, repeats=2)


def _parallel_section(
    seed: int,
    *,
    n_systems: int,
    delta: float,
    alpha: float,
    replications: int,
    n0: int,
) -> Dict[str, Any]:
    """Measured fan-out speedup vs the work-sharing model."""
    instance = make_systems(n_systems, delta)
    kwargs = dict(alpha=alpha, n0=n0, seed=seed)
    solo = run_rs(instance, replications, workers=1, **kwargs)
    fanned = run_rs(instance, replications, workers=_FANOUT_WORKERS, **kwargs)
    measured = solo["wall_s"] / fanned["wall_s"] if fanned["wall_s"] else 1.0
    # Pool startup is the only modelled overhead; measure it here.
    overhead = _probe_spawn_overhead()
    predicted = sharded_speedup(
        solo["wall_s"], _FANOUT_WORKERS, overhead_s=overhead
    )
    error = abs(predicted - measured) / measured if measured else 0.0
    return {
        "workers": _FANOUT_WORKERS,
        "solo_wall_s": solo["wall_s"],
        "fanned_wall_s": fanned["wall_s"],
        "measured_speedup": measured,
        "predicted_speedup": predicted,
        "spawn_overhead_s": overhead,
        "relative_error": error,
    }


# ----------------------------------------------------------------------
def _prediction_section(
    seed: int, round_sample: RuntimeSample, *, trials: int = 20_000
) -> Dict[str, Any]:
    """``expected_min`` vs seeded resampling of min-of-W round times.

    The distribution built from recorded screening-round runtimes is
    exactly what :meth:`repro.stats.runtime.RuntimeDistribution.speedup_curve`
    consumes; resampling min-of-``W`` from the *same* empirical values
    is a noise-free-model / noisy-oracle check that runs identically on
    every host.
    """
    if round_sample.count < 2:
        raise ValueError(
            f"need at least 2 recorded round times, got {round_sample.count}"
        )
    dist = round_sample.distribution()
    rng = np.random.default_rng(derive_seed(seed, _KEY_PRED))
    values = np.asarray(round_sample.values)
    grid = (1, 2, 4, 8)
    per_worker: Dict[str, Any] = {}
    worst = 0.0
    for w in grid:
        predicted = dist.expected_min(w)
        resampled = float(
            values[rng.integers(0, values.size, size=(trials, w))]
            .min(axis=1)
            .mean()
        )
        error = abs(predicted - resampled) / resampled if resampled else 0.0
        worst = max(worst, error)
        per_worker[str(w)] = {
            "expected_min_s": predicted,
            "resampled_min_s": resampled,
            "relative_error": error,
        }
    curve = dist.speedup_curve(grid)
    return {
        "round_times_recorded": round_sample.count,
        "mean_round_s": round_sample.mean,
        "resample_trials": trials,
        "per_worker": per_worker,
        "speedup_curve": {str(w): curve[w] for w in grid},
        "worst_relative_error": worst,
    }


# ----------------------------------------------------------------------
def _determinism_section(
    seed: int,
    *,
    n_systems: int,
    delta: float,
    alpha: float,
    replications: int,
    n0: int,
) -> Dict[str, Any]:
    """1-worker ≡ N-worker replay of the full replication fan-out."""
    instance = make_systems(n_systems, delta)
    kwargs = dict(alpha=alpha, n0=n0, seed=seed)
    solo = run_rs(instance, replications, workers=1, **kwargs)
    fanned = run_rs(instance, replications, workers=_FANOUT_WORKERS, **kwargs)
    selections_identical = solo["selected"] == fanned["selected"]
    samples_identical = solo["total_samples"] == fanned["total_samples"]
    return {
        "replications": replications,
        "workers_compared": [1, _FANOUT_WORKERS],
        "selections_identical": bool(selections_identical),
        "sample_counts_identical": bool(samples_identical),
        "pcs_identical": bool(solo["pcs"] == fanned["pcs"]),
        "ok": bool(selections_identical and samples_identical),
    }


# ----------------------------------------------------------------------
def run_bench_select(
    seed: int = 0,
    *,
    lottery_n: int = 64,
    lottery_k: int = 8,
    smoothing: float = 0.35,
    lottery_draws: int = 200_000,
    rs_systems: int = 10,
    rs_delta: float = 0.05,
    rs_alpha: float = 0.1,
    rs_replications: int = 40,
    rs_n0: int = 32,
) -> Dict[str, Any]:
    """Run every leg and assemble the BENCH_select record."""
    cpu_count = os.cpu_count() or 1
    round_sample = RuntimeSample(unit="s")

    lottery = _lottery_section(
        seed, n=lottery_n, k=lottery_k, smoothing=smoothing, draws=lottery_draws
    )
    rs = _rs_section(
        seed,
        n_systems=rs_systems,
        delta=rs_delta,
        alpha=rs_alpha,
        replications=rs_replications,
        n0=rs_n0,
        round_sample=round_sample,
    )
    if cpu_count < _FANOUT_WORKERS:
        parallel = {"workers": _FANOUT_WORKERS}
        parallel_gate = skip(
            _PARALLEL_GATE, "<=", SPEEDUP_TOLERANCE,
            f"cpu_count={cpu_count} < {_FANOUT_WORKERS}: replication "
            f"workers would time-slice cores and the wall-clock speedup "
            f"would not reflect the work-sharing model",
        )
    else:
        parallel = _parallel_section(
            seed,
            n_systems=rs_systems,
            delta=rs_delta,
            alpha=rs_alpha,
            replications=rs_replications,
            n0=rs_n0,
        )
        parallel_gate = gate(
            {"parallel": parallel}, _PARALLEL_GATE, "<=", SPEEDUP_TOLERANCE
        )
    prediction = _prediction_section(seed, round_sample)
    determinism = _determinism_section(
        seed,
        n_systems=rs_systems,
        delta=rs_delta,
        alpha=rs_alpha,
        replications=min(rs_replications, 12),
        n0=rs_n0,
    )
    sections = {
        "lottery": lottery,
        "rs": rs,
        "parallel": parallel,
        "prediction": prediction,
        "determinism": determinism,
    }
    gates = [
        gate(
            sections, "lottery.methods.log_bidding.empirical_max_abs",
            "<=", LOTTERY_TOLERANCE, required=True,
        ),
        gate(
            sections, "lottery.methods.independent.empirical_max_abs",
            ">", LOTTERY_TOLERANCE, required=True,
        ),
        gate(sections, "rs.pcs", ">=", rs["target_pcs"]),
        parallel_gate,
        gate(
            sections, "prediction.worst_relative_error", "<=", PREDICTION_TOLERANCE
        ),
        gate(sections, "determinism.ok", "==", True, required=True),
    ]
    config = {
        "seed": seed,
        "lottery_n": lottery_n,
        "lottery_k": lottery_k,
        "smoothing": smoothing,
        "lottery_draws": lottery_draws,
        "rs_systems": rs_systems,
        "rs_delta": rs_delta,
        "rs_alpha": rs_alpha,
        "rs_replications": rs_replications,
        "rs_n0": rs_n0,
    }
    return make_record("select", config, sections, gates)


def render_bench_select(report: Dict[str, Any]) -> str:
    """One-screen human summary of a select bench report."""
    lot, rs = report["lottery"], report["rs"]
    par, pred, det = (
        report["parallel"],
        report["prediction"],
        report["determinism"],
    )
    precise = lot["methods"]["log_bidding"]["empirical_max_abs"]
    biased = lot["methods"]["independent"]["empirical_max_abs"]
    lines = [
        f"== select bench: cpus={report['meta']['cpu_count']} ==",
        f"lottery (K={lot['n']}, k={lot['k']}, "
        f"smoothing={lot['smoothing']:g}, {lot['draws']} draws, "
        f"{lot['n_components']} committees):",
        f"  log_bidding max marginal error {precise:.2e} "
        f"(tol {lot['tolerance']:g}), independent {biased:.3f} "
        f"-> {lot['separation']:.0f}x separation",
        f"rs (K={rs['n_systems']}, delta={rs['delta']:g}, "
        f"alpha={rs['alpha']:g}): PCS {rs['pcs']:.3f} over "
        f"{rs['replications']} replications "
        f"(target {rs['target_pcs']:.2f}), "
        f"{rs['mean_samples']:.0f} samples/rep in "
        f"{rs['mean_rounds']:.1f} rounds",
    ]
    if "measured_speedup" in par:
        lines.append(
            f"parallel leg: measured {par['measured_speedup']:.2f}x vs "
            f"predicted {par['predicted_speedup']:.2f}x at W={par['workers']}"
        )
    lines += [
        f"prediction: worst expected-min error "
        f"{pred['worst_relative_error'] * 100:.2f}% over "
        f"{pred['round_times_recorded']} round times",
        f"determinism: selections={det['selections_identical']}, "
        f"samples={det['sample_counts_identical']} over "
        f"W={det['workers_compared']}",
        render_gates(report),
    ]
    return "\n".join(lines)

"""The race lab's perf-and-law gate: measure, validate, and record.

:func:`run_bench_race` drives the rank-space race kernel
(:func:`repro.engine.races.sample_round_counts` and its process fan-out)
across a ``k`` grid up to paper scale (``k = 2**20``), checks the
measured round-count moments and quantiles against the exact harmonic
law of :mod:`repro.stats.race_theory`, times the per-step PRAM race at
the largest shared ``k`` for the speedup gate, and re-runs the fan-out
to certify byte-identical determinism.  It also validates the Las
Vegas speedup model of :mod:`repro.stats.runtime` on the race itself:
the speedup curve predicted from an empirical round-count sample must
match the one predicted from the exact law.  ``python -m repro bench
race`` records the result in ``BENCH_race.json``.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.bench.record import (
    BOOL,
    DIGEST,
    GATE,
    NONEMPTY,
    NUMBER,
    POSITIVE,
    gate,
    make_record,
    render_gates,
)
from repro.bench.timers import timed
from repro.engine.races import (
    parallel_round_counts,
    sample_round_counts,
    suggest_race_workers,
)
from repro.pram.algorithms.max_random_write import max_random_write_race
from repro.rng.streams import stream_seeds
from repro.stats.confidence import mean_interval
from repro.stats.race_theory import (
    expected_rounds,
    paper_bound,
    rounds_quantiles,
    variance_rounds,
)
from repro.stats.runtime import RuntimeDistribution, RuntimeSample

__all__ = ["run_bench_race", "render_bench_race", "REQUIRED", "SMOKE"]

#: Paths every race record must carry (see :func:`repro.bench.record.validate`).
REQUIRED = [
    ("results.per_k", NONEMPTY),
    *[
        (f"results.per_k.*.{key}", NUMBER)
        for key in ("k", "elapsed_s", "trials_per_s", "mean", "exact_mean",
                    "var", "exact_var", "paper_bound")
    ],
    *[(f"results.per_k.*.{key}", NONEMPTY) for key in ("ci", "quantiles", "exact_quantiles")],
    ("results.per_k.*.trials", POSITIVE),
    ("results.per_k.*.mean_in_ci", BOOL),
    ("results.speedup_vs_pram", NUMBER),
    ("results.pram_k", NUMBER),
    ("results.pram_s_per_trial", NUMBER),
    ("results.vector_s_per_trial", NUMBER),
    ("results.determinism_sha256", DIGEST),
    ("results.determinism_rerun_identical", GATE),
    ("race_law.worst_relative_error", GATE),
]

#: ``--smoke``: 5000 trials over k in {64, 256}, PRAM leg at k = 64.
SMOKE = {"trials": 5000, "ks": (64, 256), "pram_k": 64}

#: The vectorized kernel must beat the per-step PRAM race by this factor.
GATE_SPEEDUP = 50.0

#: Quantile grid recorded per k.
_QUANTILES = (0.25, 0.5, 0.75, 0.99)

#: Race size and empirical trials of the speedup-model oracle.
_RACE_LAW_K = 64
_RACE_LAW_TRIALS = 20_000

#: Bound on the race-law oracle's worst relative error.  The analytic
#: side is noise-free; with 20k empirical trials, 5% bounds ~5 standard
#: errors.
GATE_RACE_LAW = 0.05


def _race_law_section(seed: int) -> Dict[str, Any]:
    """Empirical speedup pipeline vs the exact race round-count law (k = 64)."""
    k = _RACE_LAW_K
    rounds = sample_round_counts(k, _RACE_LAW_TRIALS, seed=seed)
    race_rounds = RuntimeSample(unit="rounds", values=rounds.astype(np.float64))
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
    }


def run_bench_race(
    ks: Sequence[int] = (2**10, 2**14, 2**17, 2**20),
    trials: int = 100_000,
    seed: int = 0,
    workers: Optional[int] = None,
    pram_k: int = 256,
    pram_reps: int = 20,
    confidence: float = 0.99,
) -> Dict[str, Any]:
    """Run the race lab across ``ks`` and report law agreement + speedup.

    The default configuration is the acceptance gate: ``k`` up to
    ``2**20`` with ``10**5`` trials each, every measured mean inside its
    exact-law CI band, and ``speedup_vs_pram >= 50`` at ``pram_k`` (the
    largest ``k`` both the per-step PRAM race and the vectorized kernel
    share; the per-step machine is infeasible far beyond it, which is the
    point).  The fan-out is re-run once to certify the byte-identical
    determinism contract for fixed ``(seed, workers)``, and the speedup
    model is checked against the exact round-count law at ``k = 64``.
    """
    ks = [int(k) for k in ks]
    if not ks or min(ks) < 1:
        raise ValueError(f"ks must be non-empty positive ints, got {ks}")
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if workers is None:
        workers = suggest_race_workers(trials)
    k_seeds = stream_seeds(seed, len(ks))

    per_k = []
    vector_s_per_trial = None
    for k, k_seed in zip(ks, k_seeds):
        start = time.perf_counter()
        counts = parallel_round_counts(k, trials, seed=k_seed, workers=workers)
        elapsed = time.perf_counter() - start
        mean = float(counts.mean())
        var = float(counts.var(ddof=1))
        exact_mean = expected_rounds(k)
        exact_var = variance_rounds(k)
        lo, hi = mean_interval(exact_mean, exact_var, trials, confidence=confidence)
        obs_q = np.quantile(counts, _QUANTILES, method="inverted_cdf")
        exact_q = rounds_quantiles(k, _QUANTILES)
        per_k.append(
            {
                "k": k,
                "trials": trials,
                "elapsed_s": elapsed,
                "trials_per_s": trials / elapsed if elapsed else float("inf"),
                "mean": mean,
                "ci": [lo, hi],
                "exact_mean": exact_mean,
                "mean_in_ci": bool(lo <= mean <= hi),
                "var": var,
                "exact_var": exact_var,
                "quantiles": {str(q): int(v) for q, v in zip(_QUANTILES, obs_q)},
                "exact_quantiles": {
                    str(q): int(v) for q, v in zip(_QUANTILES, exact_q)
                },
                "paper_bound": paper_bound(k),
            }
        )
        if k == pram_k:
            vector_s_per_trial = elapsed / trials

    # Speedup gate: per-trial cost of the per-step PRAM machine vs the
    # vectorized kernel at the largest k both can run.
    if vector_s_per_trial is None:
        gate_seed = stream_seeds(seed + 1, 1)[0]
        start = time.perf_counter()
        parallel_round_counts(pram_k, trials, seed=gate_seed, workers=workers)
        vector_s_per_trial = (time.perf_counter() - start) / trials
    rng = np.random.default_rng(seed)

    def pram_trials() -> None:
        for _ in range(pram_reps):
            values = rng.random(pram_k)
            max_random_write_race(values, seed=int(rng.integers(2**31)))

    pram_s_per_trial = timed(pram_trials) / pram_reps
    speedup = pram_s_per_trial / vector_s_per_trial if vector_s_per_trial else float("inf")

    # Determinism contract: the fan-out must be byte-identical across
    # runs for fixed (seed, workers).
    det_k, det_seed = ks[0], k_seeds[0]
    first = parallel_round_counts(det_k, trials, seed=det_seed, workers=workers)
    second = parallel_round_counts(det_k, trials, seed=det_seed, workers=workers)
    digest = hashlib.sha256(first.tobytes()).hexdigest()
    identical = bool(np.array_equal(first, second))

    config = {
        "ks": ks,
        "trials": trials,
        "seed": seed,
        "workers": workers,
        "pram_k": pram_k,
        "pram_reps": pram_reps,
        "confidence": confidence,
        "quantile_grid": list(_QUANTILES),
    }
    results = {
        "per_k": per_k,
        "speedup_vs_pram": speedup,
        "pram_k": pram_k,
        "pram_s_per_trial": pram_s_per_trial,
        "vector_s_per_trial": vector_s_per_trial,
        "determinism_sha256": digest,
        "determinism_rerun_identical": identical,
        "means_in_ci": sum(e["mean_in_ci"] for e in per_k),
    }
    sections = {"results": results, "race_law": _race_law_section(seed)}
    gates = [
        gate(sections, "results.determinism_rerun_identical", "==", True, required=True),
        gate(
            sections, "race_law.worst_relative_error", "<=", GATE_RACE_LAW, required=True
        ),
        gate(sections, "results.means_in_ci", "==", len(per_k)),
        gate(sections, "results.speedup_vs_pram", ">=", GATE_SPEEDUP),
    ]
    return make_record("race", config, sections, gates)


def render_bench_race(report: Dict[str, Any]) -> str:
    """One-screen human summary of a race bench report."""
    c, r, law = report["config"], report["results"], report["race_law"]
    lines = [
        f"== race bench: trials={c['trials']}, workers={c['workers']}, "
        f"seed={c['seed']} ==",
        f"{'k':>9s}  {'E[T] meas':>10s}  {'H_k exact':>10s}  {'in CI':>5s}  "
        f"{'p50':>4s}  {'2ceil(lg k)':>11s}  {'trials/s':>10s}",
    ]
    for entry in r["per_k"]:
        lines.append(
            f"{entry['k']:>9d}  {entry['mean']:>10.4f}  {entry['exact_mean']:>10.4f}  "
            f"{'yes' if entry['mean_in_ci'] else 'NO':>5s}  "
            f"{entry['quantiles']['0.5']:>4d}  {entry['paper_bound']:>11d}  "
            f"{entry['trials_per_s']:>10.0f}"
        )
    lines += [
        f"speedup vs per-step PRAM at k={r['pram_k']}: {r['speedup_vs_pram']:.0f}x"
        f"  ({1e3 * r['pram_s_per_trial']:.2f} ms vs "
        f"{1e6 * r['vector_s_per_trial']:.2f} us per trial)",
        f"fan-out determinism: sha256 {r['determinism_sha256'][:16]}..."
        f" re-run identical: {r['determinism_rerun_identical']}",
        f"speedup model vs exact race law (k={law['k']}): worst error "
        f"{law['worst_relative_error'] * 100:.2f}%",
        render_gates(report),
    ]
    return "\n".join(lines)

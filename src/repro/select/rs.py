"""Parallel ranking & selection: best-arm identification by screening.

Ni, Henderson & Ciocan ("Efficient Ranking and Selection in Parallel
Computing Environments", PAPERS.md) run large-scale R&S as rounds of
*screening*: simulate every surviving system a bit more, eliminate the
statistically dominated ones, repeat — and parallelise by fanning the
simulation work over many processors.  This module reproduces that shape
on this repo's stack:

* each *system* is a :class:`repro.engine.compiled.CompiledWheel` over a
  shared outcome grid, so its simulation output distribution — and in
  particular its true mean — is known in closed form (ground truth for
  PCS accounting comes for free);
* one screening *round* draws a geometrically growing batch per
  surviving system through the constant-memory ``counts`` kernel and
  updates running moments from the histogram (never materialising
  samples);
* elimination uses the Bonferroni-corrected normal screen: system ``j``
  leaves when some survivor ``i`` satisfies ``Xbar_i - Xbar_j >
  z_{1 - alpha/(K-1)} * sqrt(S_i^2/N_i + S_j^2/N_j)``.  Union-bounding
  over the ``K - 1`` inferior systems bounds the probability the best
  system is ever eliminated by ``alpha``, so the procedure attains
  ``PCS >= 1 - alpha`` whenever the configured indifference zone
  ``delta`` separates the best mean from the rest (the slippage
  configuration :func:`make_systems` builds);
* replications are embarrassingly parallel and *deterministically
  seeded*: replication ``r`` consumes only streams derived from
  ``derive_seed(seed, r, round, system)``, so :func:`run_rs` returns
  byte-identical selections for any worker-pool size — the same
  contract as :func:`repro.engine.parallel.parallel_counts`.

Screening-round wall times are captured as a
:class:`repro.stats.runtime.RuntimeSample`, feeding the Las Vegas
speedup predictor of :mod:`repro.stats.runtime` (the bench's
prediction-vs-measurement check lives in :mod:`repro.select.bench`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.compiled import CompiledWheel
from repro.rng.streams import derive_seed
from repro.stats.runtime import RuntimeSample

__all__ = [
    "RSInstance",
    "ScreenResult",
    "make_systems",
    "screen",
    "run_rs",
]

#: Mean of the best system in the default slippage configuration; the
#: inferior systems sit ``delta`` below it.  Centred so both sides keep
#: non-trivial variance on the unit outcome grid.
DEFAULT_BEST_MEAN = 0.6


@dataclass
class RSInstance:
    """``K`` simulated systems over one shared outcome grid.

    ``wheels[j]`` is system ``j``'s fitness vector over ``values``; the
    exact simulation-output mean of system ``j`` is
    ``sum_i F_i * values[i]`` — recorded in ``means`` so correctness of
    a selection is a table lookup, not an estimate.
    """

    values: np.ndarray
    wheels: List[np.ndarray]
    means: np.ndarray
    delta: float

    @property
    def n_systems(self) -> int:
        return len(self.wheels)

    @property
    def best(self) -> int:
        """Index of the true best system."""
        return int(np.argmax(self.means))


@dataclass
class ScreenResult:
    """Outcome of one screening replication."""

    selected: int
    correct: bool
    rounds: int
    total_samples: int
    survivors_per_round: List[int] = field(default_factory=list)
    round_seconds: List[float] = field(default_factory=list)


def _mean_of_beta(beta: float, values: np.ndarray) -> float:
    """Mean outcome of the exponentially tilted wheel ``exp(beta * v)``."""
    w = np.exp(beta * (values - values.max()))
    return float(np.dot(w, values) / w.sum())


def _solve_beta(target: float, values: np.ndarray) -> float:
    """Bisection for ``beta`` with ``mean(exp(beta v)) == target``."""
    lo, hi = -200.0, 200.0
    if not values.min() < target < values.max():
        raise ValueError(
            f"target mean {target} outside the open outcome range "
            f"({values.min()}, {values.max()})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _mean_of_beta(mid, values) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def make_systems(
    n_systems: int,
    delta: float,
    *,
    outcomes: int = 33,
    best_mean: float = DEFAULT_BEST_MEAN,
    best: int = 0,
) -> RSInstance:
    """The slippage configuration: one best system, the rest ``delta`` back.

    Every system is an exponentially tilted wheel ``f_i = exp(beta_j
    v_i)`` over the unit grid ``v = linspace(0, 1, outcomes)``, with
    ``beta_j`` solved by bisection so system ``best`` has exact mean
    ``best_mean`` and every other system exactly ``best_mean - delta``.
    This is the worst case for the indifference-zone guarantee — every
    inferior system sits right at the edge of the zone.
    """
    if n_systems < 1:
        raise ValueError(f"need at least one system, got {n_systems}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {outcomes}")
    if not 0 <= best < n_systems:
        raise ValueError(f"best index {best} outside [0, {n_systems})")
    values = np.linspace(0.0, 1.0, outcomes)
    targets = np.full(n_systems, best_mean - delta)
    targets[best] = best_mean
    wheels = []
    means = np.empty(n_systems)
    for j, target in enumerate(targets):
        beta = _solve_beta(float(target), values)
        w = np.exp(beta * (values - values.max()))
        wheels.append(w / w.max())  # scale-free; keep magnitudes tame
        means[j] = _mean_of_beta(beta, values)
    return RSInstance(values=values, wheels=wheels, means=means, delta=delta)


def _bonferroni_z(alpha: float, n_systems: int) -> float:
    """``z_{1 - alpha/(K-1)}`` — the screen's elimination quantile."""
    from scipy import stats as sps

    comparisons = max(1, n_systems - 1)
    return float(sps.norm.ppf(1.0 - alpha / comparisons))


def screen(
    instance: RSInstance,
    *,
    alpha: float = 0.1,
    n0: int = 64,
    growth: float = 2.0,
    max_rounds: int = 10,
    seed: int = 0,
    round_sample: Optional[RuntimeSample] = None,
) -> ScreenResult:
    """One screening replication: rounds of simulate → eliminate.

    Round ``r`` draws ``n0 * growth**r`` samples from every surviving
    system (through the compiled ``counts`` kernel — running moments
    come from the histogram against the outcome grid) and then applies
    the Bonferroni normal screen.  Stops when one survivor remains or
    ``max_rounds`` is exhausted; the selection is the surviving system
    with the highest sample mean.

    Determinism: the draw for ``(round, system)`` always runs on the
    stream ``derive_seed(seed, round, system)``, independent of the
    survivor set's history or any parallel context.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n0 < 2:
        raise ValueError(f"n0 must be >= 2 for a variance estimate, got {n0}")
    if growth < 1.0:
        raise ValueError(f"growth must be >= 1, got {growth}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    k = instance.n_systems
    values = instance.values
    sq_values = values * values
    wheels = [CompiledWheel(f, "log_bidding") for f in instance.wheels]
    z = _bonferroni_z(alpha, k)
    n = np.zeros(k, dtype=np.int64)
    total = np.zeros(k)
    total_sq = np.zeros(k)
    alive = np.ones(k, dtype=bool)
    survivors_per_round: List[int] = []
    round_seconds: List[float] = []
    rounds = 0
    for r in range(max_rounds):
        if int(alive.sum()) <= 1:
            break
        rounds = r + 1
        batch = int(round(n0 * growth**r))
        start = time.perf_counter()
        for j in np.flatnonzero(alive):
            rng = np.random.default_rng(derive_seed(seed, r, int(j)))
            hist = wheels[j].counts(batch, rng=rng)
            n[j] += batch
            total[j] += float(hist @ values)
            total_sq[j] += float(hist @ sq_values)
        elapsed = time.perf_counter() - start
        round_seconds.append(elapsed)
        if round_sample is not None:
            round_sample.record(elapsed)
        means = total[alive] / n[alive]
        # Unbiased per-system variance from the running moments.
        var = (total_sq[alive] - n[alive] * means**2) / np.maximum(
            n[alive] - 1, 1
        )
        var = np.maximum(var, 0.0)
        se_sq = var / n[alive]
        # Pairwise screen among survivors: j falls when some i beats it
        # by more than the Bonferroni margin.
        margin = z * np.sqrt(se_sq[:, None] + se_sq[None, :])
        dominated = (means[:, None] - means[None, :] > margin).any(axis=0)
        idx = np.flatnonzero(alive)
        # Never eliminate the current leader, even under float ties.
        dominated[int(np.argmax(means))] = False
        alive[idx[dominated]] = False
        survivors_per_round.append(int(alive.sum()))
    live = np.flatnonzero(alive)
    selected = int(live[np.argmax(total[live] / np.maximum(n[live], 1))])
    return ScreenResult(
        selected=selected,
        correct=selected == instance.best,
        rounds=rounds,
        total_samples=int(n.sum()),
        survivors_per_round=survivors_per_round,
        round_seconds=round_seconds,
    )


# ----------------------------------------------------------------------
# Multi-process replication fan-out
# ----------------------------------------------------------------------
def _replication_batch(payload) -> List[Dict[str, Any]]:
    """Top-level worker body (must be picklable for the process pool)."""
    (values, wheels, means, delta, alpha, n0, growth, max_rounds, seed, reps) = payload
    instance = RSInstance(
        values=values, wheels=list(wheels), means=means, delta=delta
    )
    out = []
    for r in reps:
        result = screen(
            instance,
            alpha=alpha,
            n0=n0,
            growth=growth,
            max_rounds=max_rounds,
            seed=derive_seed(seed, r),
        )
        out.append(
            {
                "replication": r,
                "selected": result.selected,
                "correct": result.correct,
                "rounds": result.rounds,
                "total_samples": result.total_samples,
                "round_seconds": result.round_seconds,
            }
        )
    return out


def run_rs(
    instance: RSInstance,
    replications: int,
    *,
    alpha: float = 0.1,
    n0: int = 64,
    growth: float = 2.0,
    max_rounds: int = 10,
    seed: int = 0,
    workers: Optional[int] = None,
    round_sample: Optional[RuntimeSample] = None,
) -> Dict[str, Any]:
    """Estimate PCS over independent screening replications.

    Replication ``r`` is a pure function of ``derive_seed(seed, r)``;
    the fan-out only changes *where* it runs.  Results are reduced in
    replication order, so the report (selections, PCS, sample counts)
    is byte-identical for every ``workers`` value — the determinism
    certificate ``python -m repro bench select`` records.

    ``workers=None`` consults
    :func:`repro.engine.parallel.suggest_workers` with the estimated
    total draw budget.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    if workers is None:
        from repro.engine.parallel import suggest_workers

        # Budget estimate: every system could survive all rounds.
        per_rep = int(n0 * (growth**max_rounds - 1) / max(growth - 1, 1e-9))
        workers = suggest_workers(replications * per_rep * instance.n_systems)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    workers = min(workers, replications)
    base = (
        instance.values,
        tuple(instance.wheels),
        instance.means,
        instance.delta,
        alpha,
        n0,
        growth,
        max_rounds,
        seed,
    )
    shards = [list(range(w, replications, workers)) for w in range(workers)]
    start = time.perf_counter()
    if workers == 1:
        shard_results = [_replication_batch((*base, shards[0]))]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shard_results = list(
                pool.map(_replication_batch, [(*base, s) for s in shards])
            )
    wall_s = time.perf_counter() - start
    by_rep = sorted(
        (row for shard in shard_results for row in shard),
        key=lambda row: row["replication"],
    )
    if round_sample is not None:
        for row in by_rep:
            round_sample.record_many(row["round_seconds"])
    correct = np.asarray([row["correct"] for row in by_rep], dtype=bool)
    samples = np.asarray([row["total_samples"] for row in by_rep], dtype=np.int64)
    rounds = np.asarray([row["rounds"] for row in by_rep], dtype=np.int64)
    return {
        "replications": replications,
        "workers": workers,
        "pcs": float(correct.mean()),
        "correct": int(correct.sum()),
        "selected": [row["selected"] for row in by_rep],
        "total_samples": int(samples.sum()),
        "mean_samples": float(samples.mean()),
        "mean_rounds": float(rounds.mean()),
        "wall_s": wall_s,
        "samples_per_s": float(samples.sum() / wall_s) if wall_s > 0 else 0.0,
        "true_best": instance.best,
        "alpha": alpha,
        "delta": instance.delta,
    }

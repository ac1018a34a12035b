"""Short probe runs measuring this host's cost constants.

Each probe measures one cost constant or captures one runtime
distribution, deliberately spending a few tens of milliseconds — the
whole point of the tuner is that a probe budget of well under a second
replaces static-sweep measurement campaigns.  Probes return plain
numbers or :class:`repro.tune.sample.RuntimeSample` objects;
:func:`calibrate` runs the standard set into a :class:`Calibration`.
Nothing is persisted: the caller reports the values it was handed.

All probes are deterministic given ``seed`` (modulo the wall clock they
are measuring, which is the product).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, NamedTuple, Tuple

import numpy as np

from repro.tune.sample import RuntimeSample
from repro.tune.timers import measure

__all__ = [
    "Calibration",
    "probe_spawn_overhead",
    "probe_draw_cost",
    "probe_race_rounds",
    "calibrate",
]


def _noop() -> int:
    """Top-level trivial task (must be picklable for the pool probe)."""
    return 0


def probe_spawn_overhead(repeats: int = 2) -> float:
    """Serial seconds to stand up one pool worker and run a no-op.

    Times ``ProcessPoolExecutor(max_workers=1)`` end to end — spawn,
    one round-trip submit, shutdown — which is exactly the cost
    ``parallel_counts`` pays per worker before any draw happens.
    Min-of-reps: preemption only inflates the spawn, never deflates it.
    """

    def spawn_once() -> None:
        with ProcessPoolExecutor(max_workers=1) as pool:
            pool.submit(_noop).result()

    return measure(spawn_once, repeats=repeats, warmup=0).best


def probe_draw_cost(
    n: int = 1024,
    draws: int = 200_000,
    *,
    method: str = "log_bidding",
    seed: int = 0,
    repeats: int = 3,
) -> float:
    """Per-draw seconds of the compiled throughput kernel on this host.

    Min-of-reps over ``repeats`` batches of ``draws`` draws at wheel
    size ``n`` — the workload shape ``suggest_workers`` shards.
    """
    from repro.engine.compiled import CompiledWheel

    values = 1.0 - np.random.default_rng(seed).random(n)
    wheel = CompiledWheel(values, method, kernel="auto")
    rng = np.random.default_rng(seed + 1)
    result = measure(lambda: wheel.select_many(draws, rng=rng), repeats=repeats)
    return result.best / draws


def probe_race_rounds(
    k: int = 64, trials: int = 20_000, *, seed: int = 0
) -> RuntimeSample:
    """Empirical round-count distribution of the paper's race (unit ``rounds``).

    This is the one probe with an analytic oracle
    (:mod:`repro.stats.race_theory`), which is what lets the bench
    validate the whole empirical->prediction pipeline before trusting
    it on wall-clock samples.
    """
    from repro.engine.races import sample_round_counts

    rounds = sample_round_counts(k, trials, seed=seed)
    return RuntimeSample(unit="rounds", values=rounds.astype(np.float64))


class Calibration(NamedTuple):
    """One run of the standard probe set, held in memory."""

    #: Serial cost of standing up one pool worker process, seconds.
    spawn_overhead_s: float
    #: Compiled-kernel cost of one draw, seconds (throughput path).
    draw_s: float
    #: The paper's race round counts (unit ``"rounds"``).
    race_rounds: RuntimeSample

    @property
    def min_draws_per_worker(self) -> int:
        """The measured break-even shard size, ``spawn_overhead_s / draw_s``.

        A worker pays for its own startup only when its shard's kernel
        time at least matches the serial cost of spawning it.
        """
        return math.ceil(self.spawn_overhead_s / self.draw_s)


def calibrate(
    *,
    seed: int = 0,
    n: int = 1024,
    draws: int = 200_000,
    method: str = "log_bidding",
    race_k: int = 64,
    race_trials: int = 20_000,
) -> Tuple[Calibration, Dict[str, Any]]:
    """Run the standard probe set; returns ``(calibration, probe_costs)``.

    ``probe_costs`` maps probe name to wall seconds spent (plus their
    ``total``), recorded in the bench's calibration section.
    """
    costs: Dict[str, Any] = {}

    start = time.perf_counter()
    spawn_overhead_s = probe_spawn_overhead()
    costs["spawn"] = time.perf_counter() - start

    start = time.perf_counter()
    draw_s = probe_draw_cost(n=n, draws=draws, method=method, seed=seed)
    costs["draw"] = time.perf_counter() - start

    start = time.perf_counter()
    race_rounds = probe_race_rounds(race_k, race_trials, seed=seed)
    costs["race"] = time.perf_counter() - start

    costs["total"] = sum(v for v in costs.values())
    return Calibration(spawn_overhead_s, draw_s, race_rounds), costs

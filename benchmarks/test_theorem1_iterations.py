"""Theorem 1 — expected O(log k) iterations of the CRCW max race.

The paper proves the race's while loop runs O(log k) expected iterations
on the random-arbitration CRCW PRAM and that 2*ceil(log2 k) iterations
suffice in expectation.  The vectorized race lab takes the measurement
to paper scale (k = 2**20, 10**5 trials per k) and asserts the measured
means against the exact law E[T(k)] = H_k within 99% CI bands, with a
small full-PRAM leg cross-checking the kernel where the per-step machine
is feasible — plus the >= 50x speedup gate that justifies the kernel's
existence.
"""

import math

import numpy as np

from repro.bench.experiments import theorem1_iterations
from repro.stats.confidence import mean_interval
from repro.stats.race_theory import expected_rounds, variance_rounds

#: Paper-scale grid: the full sweep the per-step PRAM machine cannot touch.
PAPER_KS = (1, 2, 16, 256, 4096, 2**16, 2**18, 2**20)
TRIALS = 100_000


def test_theorem1_scaling(benchmark):
    report = benchmark.pedantic(
        theorem1_iterations,
        kwargs={
            "ks": PAPER_KS,
            "reps": TRIALS,
            "pram_reps": 20,
            "pram_k_limit": 256,
            "seed": 0,
        },
        rounds=1,
        iterations=1,
    )
    print()
    print(report.render())
    ks = report.data["ks"]
    means = report.data["model_mean"]

    for k, mean in zip(ks, means):
        bound = 2 * math.ceil(math.log2(k)) if k > 1 else 1
        # The paper's sufficient bound holds with margin...
        assert mean <= bound + 0.5, (k, mean, bound)
        # ...and the measurement sits inside the exact law's 99% CI band.
        lo, hi = mean_interval(expected_rounds(k), variance_rounds(k), TRIALS)
        assert lo <= mean <= hi, (k, mean, (lo, hi))

    # PRAM race and vectorized kernel agree wherever both ran.
    for model, pram in zip(means, report.data["pram_mean"]):
        if pram is not None:
            assert abs(model - pram) < 1.0

    # Logarithmic growth: k = 2**20 vs k = 16 is a 2**16 factor in size
    # but only ~ln(2**16) ~ 11 extra rounds.
    idx16, idx_top = ks.index(16), ks.index(2**20)
    assert means[idx_top] < means[idx16] + 12.0
    benchmark.extra_info["model_means"] = dict(zip(map(str, ks), means))


def test_race_kernel_speedup_gate(benchmark):
    """The vectorized kernel must beat the per-step PRAM race >= 50x.

    Measured at the largest k both paths can run (k = 256; the per-step
    machine needs seconds per *single* race beyond that, which is the
    reason the kernel exists).  In practice the margin is ~4 orders of
    magnitude.
    """
    from repro.bench.record import validate
    from repro.engine.race_bench import run_bench_race

    report = benchmark.pedantic(
        run_bench_race,
        kwargs={"ks": (256, 2**20), "trials": TRIALS, "seed": 0, "pram_k": 256},
        rounds=1,
        iterations=1,
    )
    validate(report)
    results = report["results"]
    assert results["speedup_vs_pram"] >= 50.0, results["speedup_vs_pram"]
    assert results["determinism_rerun_identical"] is True
    for entry in results["per_k"]:
        assert entry["mean_in_ci"], (entry["k"], entry["mean"], entry["ci"])
    benchmark.extra_info["speedup_vs_pram"] = results["speedup_vs_pram"]


def test_single_race_latency(benchmark):
    """Wall-clock of one simulated race at k = 256 (the harness cost)."""
    from repro.pram.algorithms import max_random_write_race

    rng = np.random.default_rng(0)
    values = rng.random(256)

    counter = {"seed": 0}

    def one_race():
        counter["seed"] += 1
        return max_random_write_race(values, seed=counter["seed"])

    result = benchmark(one_race)
    assert result.winner == int(np.argmax(values))

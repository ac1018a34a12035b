"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A fresh, deterministic NumPy generator per test."""
    return np.random.default_rng(20240607)


@pytest.fixture
def table1_fitness():
    """The paper's Table I workload: f_i = i, 0 <= i <= 9."""
    return np.arange(10, dtype=np.float64)


@pytest.fixture
def table2_fitness():
    """The paper's Table II workload: f_0 = 1, f_1..f_99 = 2."""
    f = np.full(100, 2.0)
    f[0] = 1.0
    return f


@pytest.fixture
def sparse_wheel():
    """A wheel with many zeros (the ACO late-construction regime)."""
    f = np.zeros(64)
    f[[3, 17, 31, 40, 59]] = [1.0, 2.0, 0.5, 4.0, 2.5]
    return f


# ----------------------------------------------------------------------
# Tiny bench records, one per gate driver, shared by the per-driver tests
# and the cross-driver validator test (tests/bench/test_record.py).
# Session scope: each driver runs once per suite.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def engine_record():
    from repro.engine.bench import run_bench

    return run_bench(n=50, draws=20_000, seed=0)


@pytest.fixture(scope="session")
def race_record():
    from repro.engine.race_bench import run_bench_race

    # Small configuration: the schema and gates, not the paper-scale run.
    return run_bench_race(ks=(16, 256), trials=5_000, seed=0, pram_k=256, pram_reps=3)


@pytest.fixture(scope="session")
def aco_record():
    from repro.engine.aco_bench import run_bench_aco

    return run_bench_aco(
        n=40,
        n_ants=6,
        iterations=2,
        seed=0,
        scalar_ants=3,
        equivalence_n=16,
        equivalence_ants=3,
    )


@pytest.fixture(scope="session")
def select_record():
    from repro.select.bench import run_bench_select

    return run_bench_select(
        seed=0, lottery_draws=20_000, rs_replications=8, rs_delta=0.1
    )


@pytest.fixture(scope="session")
def serve_record():
    from repro.service.bench import run_bench_serve

    # Smallest run that still coalesces and exercises every section:
    # 8 clients, a couple of rounds, a 2-worker cluster sweep, small
    # protocol payloads.
    return run_bench_serve(
        wheel_size=64,
        clients=8,
        requests_per_client=2,
        n_draws=4,
        cluster_workers=[1, 2],
        protocol_draws=32,
        protocol_requests_per_client=2,
        update_every=2,
        update_k=2,
        update_n=20_000,
        colony_n=10_000,
        colony_ants=64,
        colony_iterations=8,
    )

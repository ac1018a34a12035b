"""Deterministic multi-process fan-out: reproducibility, sharding, tuning."""

import numpy as np
import pytest

from repro.core.fitness import exact_probabilities
from repro.engine import (
    MIN_DRAWS_PER_WORKER,
    CompiledWheel,
    parallel_counts,
    parallel_select_many,
    shard_sizes,
    suggest_workers,
    worker_streams,
)

FITNESS = np.array([4.0, 1.0, 0.0, 2.0, 3.0])
SIZE = 30_000


def test_parallel_counts_byte_identical_for_same_seed_and_workers():
    a = parallel_counts(FITNESS, SIZE, seed=42, workers=3)
    b = parallel_counts(FITNESS, SIZE, seed=42, workers=3)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.int64


def test_parallel_counts_total_invariant_in_workers():
    totals = {}
    for w in (1, 2, 3):
        counts = parallel_counts(FITNESS, SIZE, seed=0, workers=w)
        assert int(counts.sum()) == SIZE
        assert counts[FITNESS == 0.0].sum() == 0
        totals[w] = counts
    # Different worker counts consume different streams: same total and
    # distribution, different realisations.
    assert not np.array_equal(totals[1], totals[3])
    target = exact_probabilities(FITNESS)
    for counts in totals.values():
        assert np.abs(counts / SIZE - target).max() < 0.02


def test_single_worker_matches_inline_compiled_wheel():
    counts = parallel_counts(FITNESS, SIZE, seed=9, workers=1)
    compiled = CompiledWheel(FITNESS, "log_bidding", kernel="auto")
    inline = compiled.counts(SIZE, rng=worker_streams(9, 1)[0])
    np.testing.assert_array_equal(counts, inline)


def test_parallel_select_many_deterministic_and_sharded():
    a = parallel_select_many(FITNESS, 1_001, seed=5, workers=3)
    b = parallel_select_many(FITNESS, 1_001, seed=5, workers=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1_001,)
    # Worker-order concatenation: shard w is exactly worker w's stream.
    shards = shard_sizes(1_001, 3)
    start = 0
    for w, shard in enumerate(shards):
        compiled = CompiledWheel(FITNESS, "log_bidding", kernel="auto")
        want = compiled.select_many(shard, rng=worker_streams(5, 3)[w])
        np.testing.assert_array_equal(a[start : start + shard], want)
        start += shard


def test_faithful_kernel_and_explicit_method_flow_through():
    counts = parallel_counts(
        FITNESS, 2_000, method="gumbel", kernel="faithful", seed=1, workers=2
    )
    assert int(counts.sum()) == 2_000


def test_engine_streams_are_deterministic():
    a = parallel_counts(FITNESS, 400, seed=3, workers=2, engine="pcg32")
    b = parallel_counts(FITNESS, 400, seed=3, workers=2, engine="pcg32")
    np.testing.assert_array_equal(a, b)
    assert int(a.sum()) == 400
    with pytest.raises(ValueError):
        worker_streams(0, 2, engine="not-an-engine")


def test_empty_and_error_inputs():
    assert int(parallel_counts(FITNESS, 0, workers=2).sum()) == 0
    assert parallel_select_many(FITNESS, 0, workers=2).shape == (0,)
    with pytest.raises(ValueError):
        parallel_counts(FITNESS, -1, workers=2)
    with pytest.raises(ValueError):
        parallel_counts(FITNESS, 10, workers=0)


# ---------------------------------------------------------------------------
# Worker auto-tuning and sharding.
# ---------------------------------------------------------------------------
def test_suggest_workers_scales_with_draws():
    m = MIN_DRAWS_PER_WORKER
    assert suggest_workers(0, available=8, min_draws_per_worker=m) == 1
    assert suggest_workers(m - 1, available=8, min_draws_per_worker=m) == 1
    assert suggest_workers(2 * m, available=8, min_draws_per_worker=m) == 2
    assert suggest_workers(100 * m, available=8, min_draws_per_worker=m) == 8
    assert suggest_workers(10**9, available=1, min_draws_per_worker=m) == 1
    with pytest.raises(ValueError):
        suggest_workers(10, available=0)
    with pytest.raises(ValueError):
        suggest_workers(-1)


def test_suggest_workers_default_ignores_the_environment(monkeypatch):
    # The default threshold is the constant; no env var can move it, so
    # a workers=None call replays on every host and shell.
    monkeypatch.setenv("REPRO_MIN_DRAWS_PER_WORKER", "1000")
    assert suggest_workers(10_000, available=8) == suggest_workers(
        10_000, available=8, min_draws_per_worker=MIN_DRAWS_PER_WORKER
    )


def test_shard_sizes_partition_exactly():
    for size, workers in [(10, 3), (9, 3), (1, 4), (0, 2), (1_001, 7)]:
        shards = shard_sizes(size, workers)
        assert len(shards) == workers
        assert sum(shards) == size
        assert max(shards) - min(shards) <= 1
        assert shards == sorted(shards, reverse=True)
    with pytest.raises(ValueError):
        shard_sizes(10, 0)
    with pytest.raises(ValueError):
        shard_sizes(-1, 2)


def test_worker_streams_are_independent_and_reproducible():
    first = [s.random(4) for s in worker_streams(7, 3)]
    second = [s.random(4) for s in worker_streams(7, 3)]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    # Distinct workers see distinct streams.
    assert not np.array_equal(first[0], first[1])

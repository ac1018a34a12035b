"""CompiledWheel: bit-compatibility, kernel policies, degenerate wheels,
and the constant-memory contract."""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import RouletteWheel, get_method
from repro.core.fitness import exact_probabilities
from repro.engine import (
    DEFAULT_CHUNK_BYTES,
    KERNELS,
    CompiledWheel,
    compile_wheel,
    stream_counts,
)
from repro.errors import DegenerateFitnessError, UnknownMethodError

#: Methods with a bit-faithful compiled kernel (must match _FAITHFUL_KERNEL).
FAITHFUL_METHODS = (
    "log_bidding",
    "gumbel",
    "efraimidis_spirakis",
    "independent",
    "prefix_sum",
    "binary_search",
    "alias",
)


@pytest.fixture
def fitness():
    return np.array([5.0, 0.0, 1.0, 3.0, 0.5, 2.5, 0.0, 4.0])


# ---------------------------------------------------------------------------
# Faithful kernels reproduce the registry methods draw-for-draw.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("method", FAITHFUL_METHODS)
def test_faithful_bit_compatible_with_registry(method, fitness):
    size = 7_001  # crosses several chunk boundaries at this chunk_bytes
    compiled = CompiledWheel(fitness, method, kernel="faithful", chunk_bytes=1 << 12)
    got = compiled.select_many(size, rng=np.random.default_rng(7))
    want = get_method(method).select_many(fitness, np.random.default_rng(7), size)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("method", FAITHFUL_METHODS)
def test_counts_equals_bincount_of_select_many(method, fitness):
    size = 5_000
    compiled = CompiledWheel(fitness, method, kernel="faithful", chunk_bytes=1 << 12)
    counts = compiled.counts(size, rng=np.random.default_rng(3))
    draws = compiled.select_many(size, rng=np.random.default_rng(3))
    np.testing.assert_array_equal(counts, np.bincount(draws, minlength=len(fitness)))
    assert counts.dtype == np.int64
    assert int(counts.sum()) == size


def test_faithful_matches_wheel_at_default_chunk(fitness):
    # Chunk size must not change the draws — the registry consumes the
    # same uniforms in the same order regardless of batching.
    a = CompiledWheel(fitness, "log_bidding", chunk_bytes=1 << 10, kernel="faithful")
    b = CompiledWheel(fitness, "log_bidding", kernel="faithful")
    np.testing.assert_array_equal(
        a.select_many(4_000, rng=np.random.default_rng(0)),
        b.select_many(4_000, rng=np.random.default_rng(0)),
    )


# ---------------------------------------------------------------------------
# The auto policy keeps each method's exact distribution.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("method", ["log_bidding", "gumbel", "binary_search", "alias"])
def test_auto_kernel_is_exact(method, fitness):
    size = 200_000
    compiled = CompiledWheel(fitness, method, kernel="auto")
    counts = compiled.counts(size, rng=np.random.default_rng(11))
    target = exact_probabilities(fitness)
    assert np.abs(counts / size - target).max() < 5e-3
    assert counts[fitness == 0.0].sum() == 0


def test_auto_never_resamples_independent(fitness):
    # The baseline's bias is its contract: auto must keep the race.
    assert CompiledWheel(fitness, "independent").kernel == "race"
    with pytest.raises(ValueError):
        CompiledWheel(fitness, "independent", kernel="alias")


def test_kernel_policy_errors(fitness):
    with pytest.raises(ValueError):
        CompiledWheel(fitness, kernel="warp-drive")
    with pytest.raises(ValueError):
        CompiledWheel(fitness, "binary_search", kernel="race")
    with pytest.raises(UnknownMethodError):
        CompiledWheel(fitness, "linear_scan", kernel="faithful")
    with pytest.raises(UnknownMethodError):
        CompiledWheel(fitness, "no_such_method")
    with pytest.raises(ValueError):
        CompiledWheel(fitness, chunk_bytes=0)


# ---------------------------------------------------------------------------
# Degenerate wheels.
# ---------------------------------------------------------------------------
def test_all_zero_fitness_raises():
    with pytest.raises(DegenerateFitnessError):
        CompiledWheel([0.0, 0.0, 0.0])


@pytest.mark.parametrize("kernel", KERNELS)
def test_single_item_wheel_always_zero(kernel):
    if kernel == "race":
        compiled = CompiledWheel([2.5], "log_bidding", kernel="race")
    else:
        method = "binary_search" if kernel == "searchsorted" else "alias"
        compiled = CompiledWheel([2.5], method, kernel=kernel)
    draws = compiled.select_many(257, rng=np.random.default_rng(0))
    assert (draws == 0).all()
    assert compiled.select(rng=np.random.default_rng(1)) == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_zero_masks_live_on_race_wheels_only(fitness, kernel):
    """The lookup kernels never read the O(n) masks, so they keep none —
    after compile, after an update and after a pickle round trip alike."""
    method = {"race": "log_bidding", "searchsorted": "binary_search", "alias": "alias"}
    compiled = CompiledWheel(fitness, method[kernel], kernel=kernel)
    updated = compiled.apply_updates([2], [0.0])
    for wheel in (compiled, updated, pickle.loads(pickle.dumps(compiled))):
        assert wheel._has_zeros
        assert hasattr(wheel, "_zero_mask") == (kernel == "race")
        assert hasattr(wheel, "_positive_mask") == (kernel == "race")


@pytest.mark.parametrize("method", ["log_bidding", "efraimidis_spirakis"])
def test_subnormal_fitness_stays_faithful(method):
    # Positive-but-subnormal fitness exercises the overflow/underflow
    # clamps; winners must stay on the support and match the registry.
    f = np.array([1e-310, 0.0, 2e-310, 5e-311])
    compiled = CompiledWheel(f, method, kernel="faithful")
    draws = compiled.select_many(2_000, rng=np.random.default_rng(5))
    want = get_method(method).select_many(f, np.random.default_rng(5), 2_000)
    np.testing.assert_array_equal(draws, want)
    assert (f[draws] > 0.0).all()


def test_empty_and_negative_size(fitness):
    compiled = CompiledWheel(fitness)
    assert compiled.select_many(0).shape == (0,)
    assert int(compiled.counts(0).sum()) == 0
    with pytest.raises(ValueError):
        compiled.select_many(-1)
    with pytest.raises(ValueError):
        compiled.counts(-1)


# ---------------------------------------------------------------------------
# Memory budget.
# ---------------------------------------------------------------------------
def test_chunk_rows_respects_budget(fitness):
    n = len(fitness)
    compiled = CompiledWheel(fitness, "log_bidding", kernel="race", chunk_bytes=8 * n * 16)
    assert compiled.chunk_rows == 16
    tiny = CompiledWheel(fitness, "log_bidding", kernel="race", chunk_bytes=1)
    assert tiny.chunk_rows == 1
    assert CompiledWheel(fitness).chunk_rows <= DEFAULT_CHUNK_BYTES


def test_race_peak_memory_is_chunk_bounded():
    # A (size, n) key matrix here would be 5e5 * 64 * 8 = 256 MB; the
    # budgeted kernel must stay within a few chunks of it.
    n, size, budget = 64, 500_000, 1 << 18
    f = np.linspace(1.0, 2.0, n)
    compiled = CompiledWheel(f, "log_bidding", kernel="race", chunk_bytes=budget)
    tracemalloc.start()
    counts = compiled.counts(size, rng=np.random.default_rng(0))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert int(counts.sum()) == size
    assert peak < 8 * budget, f"peak {peak} bytes breaks the O(chunk x n) contract"


def test_stream_counts_hundred_million_draws_constant_memory():
    # The issue's scale gate: 1e8 draws must run in O(chunk) memory —
    # the draws array alone would be 800 MB.
    n, size = 100, 100_000_000
    f = np.arange(1.0, n + 1.0)
    tracemalloc.start()
    counts = stream_counts(f, size, rng=np.random.default_rng(0), kernel="auto")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert int(counts.sum()) == size
    assert peak < 64 * (1 << 20), f"peak {peak} bytes is not constant-memory"
    assert np.abs(counts / size - exact_probabilities(f)).max() < 1e-3


# ---------------------------------------------------------------------------
# stream_counts / compile_wheel front doors.
# ---------------------------------------------------------------------------
def test_stream_counts_honours_wheel_method_and_rng(fitness):
    wheel = RouletteWheel(fitness, method="gumbel", rng=123)
    counts = stream_counts(wheel, 3_000)
    reference = RouletteWheel(fitness, method="gumbel", rng=123).counts(3_000)
    np.testing.assert_array_equal(counts, reference)


def test_stream_counts_accepts_compiled_and_raw(fitness):
    compiled = CompiledWheel(fitness, "alias")
    np.testing.assert_array_equal(
        stream_counts(compiled, 1_000, rng=np.random.default_rng(2)),
        compiled.counts(1_000, rng=np.random.default_rng(2)),
    )
    raw = stream_counts(fitness, 1_000, rng=np.random.default_rng(2))
    assert int(raw.sum()) == 1_000


def test_compile_wheel_preserves_bound_method(fitness):
    wheel = RouletteWheel(fitness, method="prefix_sum")
    compiled = compile_wheel(wheel, kernel="faithful")
    assert compiled.method == "prefix_sum"
    assert compiled.kernel == "searchsorted"
    assert compile_wheel(fitness).method == "log_bidding"

"""Las Vegas speedup predictor: anchors, order statistics, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.race_theory import expected_rounds, log_rounds_pmf
from repro.stats.runtime import RuntimeDistribution, sharded_speedup

runtime_samples = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=50,
)


# ---------------------------------------------------------------------------
# Analytic anchors.
# ---------------------------------------------------------------------------
def test_deterministic_runtime_multiwalk_speedup_is_one():
    # Racing identical clones wins nothing: E[min of W copies] = E[T].
    dist = RuntimeDistribution.from_samples([3.0] * 10)
    for w in (1, 2, 4, 16, 256):
        assert dist.expected_min(w) == pytest.approx(3.0)
        assert dist.speedup(w) == pytest.approx(1.0)


def test_deterministic_work_sharded_speedup_is_exactly_workers():
    # Work-sharing splits deterministic work perfectly at zero overhead.
    for w in (1, 2, 4, 16, 256):
        assert sharded_speedup(1.0, w) == pytest.approx(float(w))


def test_exponential_speedup_matches_memoryless_ideal():
    # E[min of W iid Exp] = E[T] / W, so speedup == W exactly.  The
    # empirical version converges at the Monte-Carlo rate; 50k samples
    # put a ~1% CI band around the ideal for W <= 8.
    rng = np.random.default_rng(7)
    dist = RuntimeDistribution.from_samples(rng.exponential(2.0, 50_000))
    for w in (2, 4, 8):
        assert dist.speedup(w) == pytest.approx(float(w), rel=0.05)


def test_matches_exact_race_round_law():
    # The race pmf is the one distribution with an analytic oracle: the
    # predictor's one-copy mean must reproduce expected_rounds(k).
    for k in (2, 8, 64, 512):
        dist = RuntimeDistribution.from_race_law(k)
        assert dist.unit == "rounds"
        assert dist.mean() == pytest.approx(expected_rounds(k), rel=1e-6)


def test_expected_min_exact_on_small_discrete_law():
    # Hand-computed: pmf (0.5, 0.3, 0.2) on {0, 1, 2}.
    dist = RuntimeDistribution.from_log_pmf(np.log([0.5, 0.3, 0.2]))
    assert dist.mean() == pytest.approx(0.7)
    # W=2: E[min] = Pr[min > 0] + Pr[min > 1] = 0.5^2 + 0.2^2 = 0.29.
    assert dist.expected_min(2) == pytest.approx(0.29)
    assert dist.min_of(2).mean() == pytest.approx(0.29)


# ---------------------------------------------------------------------------
# Property tests over arbitrary samples.
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(runtime_samples)
def test_speedup_is_monotone_nondecreasing_in_workers(samples):
    dist = RuntimeDistribution.from_samples(samples)
    if dist.mean() <= 0.0:
        return  # speedup undefined on an all-zero sample
    curve = dist.speedup_curve(range(1, 9))
    assert curve[1] == pytest.approx(1.0)
    values = [curve[w] for w in range(1, 9)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


@settings(max_examples=50, deadline=None)
@given(runtime_samples)
def test_expected_min_is_monotone_nonincreasing_in_workers(samples):
    dist = RuntimeDistribution.from_samples(samples)
    mins = [dist.expected_min(w) for w in range(1, 9)]
    assert mins[0] == pytest.approx(dist.mean())
    for hi, lo in zip(mins, mins[1:]):
        assert lo <= hi + 1e-12
    # The minimum can never drop below the smallest observation.
    assert mins[-1] >= min(samples) - 1e-12


@settings(max_examples=50, deadline=None)
@given(runtime_samples, st.integers(min_value=1, max_value=16))
def test_expected_min_matches_monte_carlo(samples, workers):
    # The closed form must agree with brute-force resampling.
    dist = RuntimeDistribution.from_samples(samples)
    arr = np.asarray(samples)
    rng = np.random.default_rng(0)
    draws = rng.choice(arr, size=(4000, workers), replace=True)
    mc = float(draws.min(axis=1).mean())
    scale = max(1.0, float(arr.max()))
    assert dist.expected_min(workers) == pytest.approx(mc, abs=0.12 * scale)


# ---------------------------------------------------------------------------
# Work-sharing model and validation.
# ---------------------------------------------------------------------------
def test_sharded_speedup_overhead_penalty():
    assert sharded_speedup(1.0, 4, overhead_s=0.25) == pytest.approx(2.0)
    # Overhead caps the curve: it can never exceed work / overhead.
    assert sharded_speedup(1.0, 64, overhead_s=0.25) < 1.0 / 0.25
    assert sharded_speedup(1.0, 64, overhead_s=0.25) > sharded_speedup(
        1.0, 4, overhead_s=0.25
    )
    with pytest.raises(ValueError):
        sharded_speedup(0.0, 2)
    with pytest.raises(ValueError):
        sharded_speedup(1.0, 0)
    with pytest.raises(ValueError):
        sharded_speedup(1.0, 2, overhead_s=-1.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        RuntimeDistribution.from_samples([])
    with pytest.raises(ValueError):
        RuntimeDistribution.from_samples([-1.0])
    with pytest.raises(ValueError):
        RuntimeDistribution(np.array([2.0, 1.0]), np.array([0.0, -np.inf]))
    with pytest.raises(ValueError):
        RuntimeDistribution(np.array([1.0, 2.0]), np.array([-1.0, 0.0]))
    dist = RuntimeDistribution.from_samples([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        dist.expected_min(0)
    with pytest.raises(ValueError):
        dist.quantile(0.0)
    assert dist.quantile(0.5) == 2.0
    assert dist.quantile(0.95) == 4.0


def test_from_log_pmf_validates_shapes():
    with pytest.raises(ValueError):
        RuntimeDistribution.from_log_pmf([])
    with pytest.raises(ValueError):
        RuntimeDistribution.from_log_pmf(np.log([0.5, 0.5]), support=[1.0])
    # Truncated laws (t_max cuts the tail) still construct cleanly.
    dist = RuntimeDistribution.from_log_pmf(log_rounds_pmf(64, t_max=6))
    assert dist.values.size == 7
    assert np.all(dist.log_sf <= 0.0)

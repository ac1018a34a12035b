"""Host probes: the in-memory calibration and its break-even shard size."""

import pytest

from repro.tune.probes import Calibration
from repro.tune.sample import RuntimeSample


def test_min_draws_is_the_spawn_over_draw_break_even():
    rounds = RuntimeSample(unit="rounds")
    assert Calibration(0.01, 1e-8, rounds).min_draws_per_worker == pytest.approx(
        1_000_000, abs=1
    )
    # A fractional break-even rounds up: the shard must pay for its spawn.
    assert Calibration(0.0125, 1e-3, rounds).min_draws_per_worker == 13
    # No clamp: a cheap spawn gives a small threshold, as measured.
    assert Calibration(1e-6, 1e-6, rounds).min_draws_per_worker == 1

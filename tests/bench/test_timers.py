"""Shared timing helpers: estimators and bit-compatibility."""

import pytest

from repro.bench.timers import best_of, median_of, timed


def test_timed_returns_nonnegative_seconds():
    assert timed(lambda: None) >= 0.0


def test_best_of_is_min_and_validates():
    calls = []
    best_of(lambda: calls.append(1), repeats=5)
    assert len(calls) == 5
    with pytest.raises(ValueError):
        best_of(lambda: None, repeats=0)


def test_median_of_matches_legacy_lower_median():
    # The bench drivers historically used sorted(x)[len(x) // 2]; the
    # helper must match bit-for-bit so rewiring changed no number.
    for samples in ([3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [7.0]):
        assert median_of(samples) == sorted(samples)[len(samples) // 2]
    with pytest.raises(ValueError):
        median_of([])


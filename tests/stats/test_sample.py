"""RuntimeSample: validation, stats, and the bridge to the predictor."""

import pytest

from repro.stats.runtime import RuntimeSample


def test_record_and_stats():
    s = RuntimeSample(unit="s")
    assert s.count == 0 and s.mean == 0.0 and s.var == 0.0
    s.record(2.0)
    assert s.var == 0.0  # one observation: variance undefined -> 0
    s.record_many([1.0, 3.0])
    assert s.count == len(s) == 3
    assert s.mean == pytest.approx(2.0)
    assert s.var == pytest.approx(1.0)
    assert s.quantile(0.0) == 1.0
    assert s.quantile(1.0) == 3.0


def test_rejects_bad_observations():
    s = RuntimeSample()
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            s.record(bad)
        with pytest.raises(ValueError):
            s.record_many([1.0, bad])
    with pytest.raises(ValueError):
        s.quantile(1.5)
    assert s.count == 0  # nothing leaked in


def test_distribution_bridges_to_predictor():
    s = RuntimeSample(values=[1.0, 2.0, 3.0, 4.0])
    dist = s.distribution()
    assert dist.unit == "s"
    assert dist.mean() == pytest.approx(2.5)

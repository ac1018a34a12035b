"""CompiledWheel serialization: the pickle state round trip."""

import pickle

import numpy as np
import pytest

from repro.engine.compiled import WHEEL_FORMAT, CompiledWheel

KERNEL_CASES = [
    ("log_bidding", "auto"),
    ("log_bidding", "faithful"),
    ("gumbel", "faithful"),
    ("efraimidis_spirakis", "faithful"),
    ("prefix_sum", "faithful"),
    ("alias", "auto"),
    ("independent", "faithful"),
]


def _wheel(method, policy, n=97):
    f = np.arange(1.0, n + 1.0)
    f[5] = 0.0  # exercise the zero-repair paths
    return CompiledWheel(f, method, kernel=policy)


class TestRoundTrip:
    @pytest.mark.parametrize("method,policy", KERNEL_CASES)
    def test_bytes_round_trip_is_bitwise_equivalent(self, method, policy):
        wheel = _wheel(method, policy)
        blob = pickle.dumps(wheel)
        assert isinstance(blob, bytes)
        clone = pickle.loads(blob)
        assert clone.method == wheel.method
        assert clone.kernel == wheel.kernel
        assert clone.policy == policy
        assert np.array_equal(clone.fitness.values, wheel.fitness.values)
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        assert np.array_equal(
            wheel.select_many(500, rng_a), clone.select_many(500, rng_b)
        )

    @pytest.mark.parametrize("method,policy", KERNEL_CASES)
    def test_pickle_round_trip(self, method, policy):
        wheel = _wheel(method, policy)
        clone = pickle.loads(pickle.dumps(wheel))
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        assert np.array_equal(
            wheel.select_many(200, rng_a), clone.select_many(200, rng_b)
        )

    def test_restore_skips_precompute(self, monkeypatch):
        wheel = _wheel("alias", "auto")
        pickled = pickle.dumps(wheel)

        def boom(self):  # pragma: no cover - called means failure
            raise AssertionError("_precompute must not run on restore")

        monkeypatch.setattr(CompiledWheel, "_precompute", boom)
        clone = pickle.loads(pickled)
        assert clone.select_many(10, np.random.default_rng(0)).shape == (10,)

    def test_alias_table_is_restored_not_rebuilt(self):
        wheel = _wheel("alias", "auto")
        clone = pickle.loads(pickle.dumps(wheel))
        assert np.array_equal(clone._table._prob, wheel._table._prob)
        assert np.array_equal(clone._table._alias, wheel._table._alias)


class TestFormatSafety:
    def test_unknown_format_rejected(self):
        wheel = _wheel("alias", "auto")
        state = wheel.__getstate__()
        state["format"] = "repro/compiled-wheel/v999"
        fresh = CompiledWheel.__new__(CompiledWheel)
        with pytest.raises(ValueError, match="compiled-wheel"):
            fresh.__setstate__(state)

    def test_format_tag_is_versioned(self):
        assert WHEEL_FORMAT.endswith("/v1")

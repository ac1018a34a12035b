"""Content addressing and LRU accounting of the wheel registry."""

import numpy as np
import pytest

from repro.errors import DegenerateFitnessError, FitnessError, UnknownWheelError
from repro.service.registry import WheelRegistry, digest_key, wheel_digest


class TestWheelDigest:
    def test_representation_invariant(self):
        base = wheel_digest(np.array([1.0, 2.0, 3.0]), "log_bidding", "auto")
        assert wheel_digest([1, 2, 3], "log_bidding", "auto") == base
        assert wheel_digest((1.0, 2.0, 3.0), "log_bidding", "auto") == base
        assert (
            wheel_digest(np.array([1, 2, 3], dtype=np.int32), "log_bidding", "auto")
            == base
        )
        f64 = np.asfortranarray(np.array([1.0, 2.0, 3.0]))
        assert wheel_digest(f64, "log_bidding", "auto") == base

    def test_discriminates_content_method_policy(self):
        f = [1.0, 2.0, 3.0]
        base = wheel_digest(f, "log_bidding", "auto")
        assert wheel_digest([1.0, 2.0, 4.0], "log_bidding", "auto") != base
        assert wheel_digest(f, "gumbel", "auto") != base
        assert wheel_digest(f, "log_bidding", "faithful") != base

    def test_size_is_part_of_identity(self):
        # A trailing element must never be confused with method/policy bytes.
        assert wheel_digest([1.0], "m", "p") != wheel_digest([1.0, 1.0], "m", "p")

    def test_digest_key_is_64_bit(self):
        wid = wheel_digest([1.0, 2.0], "log_bidding", "auto")
        key = digest_key(wid)
        assert 0 <= key < 2**64
        assert digest_key(wid) == key  # pure


class TestWheelRegistry:
    def test_register_hits_and_misses(self):
        reg = WheelRegistry()
        wid, cached = reg.register([1.0, 2.0, 3.0])
        assert not cached
        wid2, cached2 = reg.register([1, 2, 3])
        assert wid2 == wid and cached2
        stats = reg.stats()
        assert stats["misses"] == 1 and stats["hits"] >= 1
        assert 0.0 < stats["hit_rate"] <= 1.0

    def test_get_unknown_raises(self):
        reg = WheelRegistry()
        with pytest.raises(UnknownWheelError):
            reg.get("w1:" + "0" * 64)

    def test_lru_eviction_and_recovery(self):
        reg = WheelRegistry(max_wheels=2)
        a, _ = reg.register([1.0, 1.0])
        b, _ = reg.register([1.0, 2.0])
        reg.get(a)  # refresh a; b is now LRU
        c, _ = reg.register([1.0, 3.0])
        assert a in reg and c in reg and b not in reg
        assert reg.stats()["evictions"] == 1
        # Re-registering the evicted wheel mints the identical id; the
        # registry still knows it, so the reply says cached either way.
        b2, cached = reg.register([1.0, 2.0])
        assert b2 == b and cached
        assert b in reg and reg.stats()["evictions"] == 2
        # A draw against an evicted id rebuilds it instead of failing.
        assert a not in reg
        np.testing.assert_array_equal(reg.get(a).fitness.values, [1.0, 1.0])

    def test_validation_errors_propagate(self):
        reg = WheelRegistry()
        with pytest.raises(DegenerateFitnessError):
            reg.register([0.0, 0.0])
        with pytest.raises(FitnessError):
            reg.register([-1.0, 2.0])

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            WheelRegistry(max_wheels=0)

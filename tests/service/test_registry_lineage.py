"""Eviction is invisible: every minted id rebuilds from its recipe.

Regression suite for the registry eviction bugs.  Before lineage-based
re-derivation, LRU pressure could evict a version chain's parent while
clients still held version ids; later, with roots pinned only while
they had lineage, a root that was never updated could still be evicted
under version churn.  Either way the next UPDATE or DRAW against a held
id raised ``UnknownWheelError`` where a larger registry answered ``ok``.
Now the registry keeps a recipe for every id it mints (a root's
canonical values, a version's delta), rebuilds any evicted wheel bitwise
on demand, and forgets ids only whole cohort by whole cohort, past the
recipe bound.
"""

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro.errors import UnknownWheelError
from repro.service.cluster import ClusterService, HashRing
from repro.service.registry import WheelRegistry, base_id, wheel_digest


def _force_evictions(reg, count, start=100):
    """Register ``count`` junk wheels to churn the LRU."""
    for i in range(start, start + count):
        reg.register([1.0, float(i)])


class TestLineageReplay:
    def _chain(self, reg, fitness, deltas, **kw):
        root, _ = reg.register(fitness, **kw)
        ids = [root]
        for idx, vals in deltas:
            wid, _ = reg.update(
                ids[-1],
                np.asarray(idx, dtype=np.int64),
                np.asarray(vals, dtype=np.float64),
            )
            ids.append(wid)
        return ids

    def test_update_then_evict_then_draw_recovers(self):
        reg = WheelRegistry(max_wheels=3)
        ids = self._chain(
            reg,
            [1.0, 2.0, 3.0, 4.0],
            [([0], [9.0]), ([2, 3], [0.5, 8.0])],
        )
        _force_evictions(reg, 8)
        assert ids[2] not in reg  # the version entry really was evicted
        wheel = reg.get(ids[2])  # regression: raised UnknownWheelError
        assert reg.stats()["rederives"] >= 1

        # Bitwise identical to an oracle chain built fresh, without
        # eviction, in a separate registry.
        oracle = WheelRegistry()
        oracle_ids = self._chain(
            oracle,
            [1.0, 2.0, 3.0, 4.0],
            [([0], [9.0]), ([2, 3], [0.5, 8.0])],
        )
        assert oracle_ids == ids  # history-addressed ids are stable
        np.testing.assert_array_equal(
            wheel.fitness.values, oracle.get(oracle_ids[2]).fitness.values
        )

    def test_update_against_evicted_parent_recovers(self):
        reg = WheelRegistry(max_wheels=3)
        ids = self._chain(reg, [1.0, 2.0, 3.0], [([1], [7.0])])
        _force_evictions(reg, 8)
        assert ids[1] not in reg
        # Extending the chain from the evicted version must replay it.
        v2, info = reg.update(
            ids[1], np.array([0], dtype=np.int64), np.array([3.5])
        )
        assert info["parent"] == ids[1]
        assert v2 in reg

    def test_evicted_root_rebuilds_from_recipe(self):
        reg = WheelRegistry(max_wheels=2)
        ids = self._chain(reg, [2.0, 4.0], [([0], [1.0])])
        root = base_id(ids[1])
        assert root == ids[0]
        _force_evictions(reg, 10)
        # Plain LRU: the root is evicted like any wheel and the bound is
        # exact; its recipe rebuilds it (and its versions) on demand.
        assert root not in reg and ids[1] not in reg
        assert len(reg) == reg.max_wheels
        np.testing.assert_array_equal(reg.get(root).fitness.values, [2.0, 4.0])
        np.testing.assert_array_equal(reg.get(ids[1]).fitness.values, [1.0, 4.0])
        again, info = reg.update(root, np.array([0]), np.array([1.0]))
        assert again == ids[1] and info["cached"]

    def test_never_updated_root_survives_version_churn(self):
        """Regression: only roots with lineage used to be kept."""
        reg = WheelRegistry(max_wheels=3)
        lone, _ = reg.register([1.0, 2.0, 3.0])
        busy = self._chain(
            reg, [5.0, 6.0, 7.0], [([i % 3], [float(i + 1)]) for i in range(8)]
        )
        assert lone not in reg
        oracle = WheelRegistry()
        assert oracle.register([1.0, 2.0, 3.0])[0] == lone
        np.testing.assert_array_equal(
            reg.get(lone).fitness.values, oracle.get(lone).fitness.values
        )
        child, info = reg.update(lone, np.array([1]), np.array([0.5]))
        assert child == oracle.update(lone, [1], [0.5])[0] and not info["cached"]
        assert reg.get(busy[-1]) is not None

    def test_acceptance_backend_chain_recovers(self):
        reg = WheelRegistry(max_wheels=3)
        ids = self._chain(
            reg,
            [1.0, 2.0, 3.0, 4.0],
            [([3], [10.0])],
            backend="stochastic_acceptance",
        )
        _force_evictions(reg, 8)
        assert ids[1] not in reg
        wheel = reg.get(ids[1])
        assert wheel.fitness.values[3] == pytest.approx(10.0)

    def test_unversioned_miss_still_raises(self):
        reg = WheelRegistry(max_wheels=2)
        with pytest.raises(UnknownWheelError):
            reg.get("w1:" + "ab" * 32)

    def test_broken_chain_raises_after_lineage_pruned(self):
        reg = WheelRegistry(max_wheels=1)
        reg.max_lineage = 3  # recipes: roots and versions together
        a = self._chain(reg, [1.0, 2.0], [([0], [5.0])])
        b = self._chain(reg, [3.0, 4.0], [([1], [6.0])])
        # a's cohort (root + version) was forgotten to admit b's record.
        assert reg.stats()["recipes"] == 2
        for wid in a:
            with pytest.raises(UnknownWheelError, match="recipe bound"):
                reg.get(wid)
        # Chain b (the survivor) still rebuilds, root first.
        assert b[0] not in reg
        assert reg.get(b[0]) is not None
        np.testing.assert_array_equal(reg.get(b[1]).fitness.values, [3.0, 6.0])

    def test_cohorts_prune_whole_never_partial(self):
        reg = WheelRegistry(max_wheels=1)
        reg.max_lineage = 5
        a = self._chain(reg, [1.0, 2.0], [([0], [5.0]), ([1], [6.0])])
        b = self._chain(reg, [3.0, 4.0], [([1], [7.0]), ([0], [8.0])])
        # b's last record overflows max_lineage=5 by one; a's whole
        # cohort (root and both records) must go at once, never one link.
        assert reg.stats()["recipes"] == 3
        for wid in a:
            with pytest.raises(UnknownWheelError):
                reg.get(wid)
        for wid in b:
            assert reg.get(wid) is not None
        np.testing.assert_array_equal(reg.get(b[2]).fitness.values, [8.0, 7.0])

    def test_rederived_version_draws_identically(self):
        from repro.rng.streams import request_stream
        from repro.service.registry import digest_key

        reg = WheelRegistry(max_wheels=3)
        ids = self._chain(
            reg, np.arange(1.0, 17.0), [([4, 9], [0.25, 30.0])]
        )
        key = digest_key(ids[1])
        before = reg.get(ids[1]).select_many(64, request_stream(0, key, 0))
        _force_evictions(reg, 8)
        after = reg.get(ids[1]).select_many(64, request_stream(0, key, 0))
        np.testing.assert_array_equal(before, after)


def _serve_live_churn(seed, requests=20_000, wheels=64, shards=2, max_wheels=256):
    """Replay serve-live-shaped traffic; returns the UnknownWheelErrors.

    Two in-process shard registries routed by :class:`HashRing` on the
    root id, ``wheels`` wheels of size 8-64 under Zipf(1.1) popularity,
    10% UPDATEs of 4 indices against each wheel's newest version, the
    rest lookups of it — and no first UPDATE per wheel, so cold roots
    that were never updated age out of the LRU under version churn.
    The random stream never depends on the replies.
    """
    rng = np.random.default_rng([seed, 0xC4])
    sizes = rng.integers(8, 65, wheels)
    ring = HashRing(shards)
    registries = [WheelRegistry(max_wheels=max_wheels) for _ in range(shards)]
    current = []
    for size in sizes:
        fitness = rng.uniform(0.1, 1.0, size)
        root = wheel_digest(fitness, "log_bidding", "auto")
        current.append(registries[ring.lookup(root)].register(fitness)[0])
    popularity = np.arange(1, wheels + 1, dtype=float) ** -1.1
    targets = rng.choice(wheels, size=requests, p=popularity / popularity.sum())
    updates = rng.random(requests) < 0.1
    errors = 0
    for w, update in zip(targets.tolist(), updates.tolist()):
        registry = registries[ring.lookup(base_id(current[w]))]
        try:
            if update:
                indices = rng.choice(sizes[w], 4, replace=False)
                current[w], _ = registry.update(current[w], indices, rng.uniform(0.1, 1.0, 4))
            else:
                registry.get(current[w])
        except UnknownWheelError:
            errors += 1
    return errors


# Seeds 25 and 118 failed (42 and 58 errors) when only roots with
# versions were kept; the full sweep over seeds 0-120 and 501 takes
# ~30 s, so tier-1 replays a short fixed list.
@pytest.mark.parametrize("seed", [25, 118, 501])
def test_serve_live_churn_never_loses_a_wheel(seed):
    assert _serve_live_churn(seed) == 0


def test_threads_share_a_tiny_registry():
    """Lookups, rebuilds and updates from more threads than cores.

    Every reply must be the oracle's wheel for that id, and the LRU bound
    and the rule that every resident wheel has a recipe must survive the
    interleaving.
    """
    reg = WheelRegistry(max_wheels=2)
    oracle = WheelRegistry()
    roots = [reg.register([1.0, float(k), 2.0])[0] for k in range(1, 5)]
    for k in range(1, 5):
        oracle.register([1.0, float(k), 2.0])
    failures = []

    def worker(t):
        rng = np.random.default_rng(t)
        try:
            for _ in range(150):
                wid = roots[int(rng.integers(len(roots)))]
                if rng.random() < 0.3:
                    idx, val = [int(rng.integers(3))], [float(rng.integers(1, 4))]
                    child, _ = reg.update(wid, idx, val)
                    assert child == oracle.update(wid, idx, val)[0]
                    wid = child
                np.testing.assert_array_equal(
                    reg.get(wid).fitness.values, oracle.get(wid).fitness.values
                )
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert len(reg) <= reg.max_wheels
    assert all(reg._recipe_locked(wid) is not None for wid in list(reg._wheels))


class TestClusterEvictionNever500s:
    """UPDATE-then-evict-then-DRAW across the wire must never error."""

    def _run(self, coro, timeout=120.0):
        return asyncio.run(asyncio.wait_for(coro, timeout))

    def test_update_evict_draw_round_trip(self):
        cluster = ClusterService(workers=2, seed=11, max_wheels=3)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0, 4.0], "id": 1}
            )
            assert reg["status"] == "ok"
            upd = await cluster.handle_request(
                {
                    "op": "update",
                    "wheel": reg["wheel"],
                    "indices": np.array([0, 2], dtype=np.int64),
                    "values": np.array([9.0, 0.5]),
                    "id": 2,
                }
            )
            assert upd["status"] == "ok"
            version = upd["wheel"]

            # Churn the shard registries hard enough that a 3-wheel LRU
            # must evict the version entry (routing spreads the junk, so
            # over-provision).
            for i in range(24):
                junk = await cluster.handle_request(
                    {"op": "register", "fitness": [1.0, float(i + 10)]}
                )
                assert junk["status"] == "ok"

            # Regression: this draw used to come back status=error
            # UnknownWheelError once the version entry aged out.
            draw = await cluster.handle_request(
                {"op": "draw", "wheel": version, "n": 8, "seed": 5, "id": 3}
            )
            assert draw["status"] == "ok", draw
            assert len(draw["draws"]) == 8
            assert all(0 <= d < 4 for d in np.asarray(draw["draws"]))

            # And the chain keeps extending after recovery.
            upd2 = await cluster.handle_request(
                {
                    "op": "update",
                    "wheel": version,
                    "indices": np.array([3], dtype=np.int64),
                    "values": np.array([20.0]),
                }
            )
            assert upd2["status"] == "ok"
            draw2 = await cluster.handle_request(
                {"op": "draw", "wheel": upd2["wheel"], "n": 4, "seed": 6}
            )
            assert draw2["status"] == "ok"

            stats = (await cluster.handle_request({"op": "stats"}))["stats"]
            await cluster.close()
            return stats

        stats = self._run(flow())
        shard_stats = stats["shards"] if "shards" in stats else []
        total_rederives = sum(
            s.get("registry", {}).get("rederives", 0) for s in shard_stats
        )
        # At least one shard actually exercised the replay path (the
        # draws above would have 500'd without it).
        assert total_rederives >= 1, stats

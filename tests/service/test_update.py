"""Live-mutating wheels: UPDATE wire path, versioning, COW determinism.

Covers the delta-update stack end to end:

* the fixed-layout UPDATE frame codec (round trips, fuzz, feature
  negotiation);
* :meth:`WheelRegistry.update` — history-addressed version ids,
  idempotent re-mints, the Fenwick-vs-rebuild recompile split, and the
  cache counters (delta updates must never inflate the LRU miss count);
* copy-on-write determinism: draws against a parent version before and
  after an UPDATE are byte-identical, on the in-process service and on
  1-worker and multi-worker clusters, and every version matches a direct
  replay against a freshly compiled wheel;
* the ``stochastic_acceptance`` backend riding the same UPDATE path;
* exact per-version latency merging in the ``--mutate`` load generator.
"""

import asyncio

import numpy as np
import pytest

from repro.engine.compiled import AcceptanceWheel, CompiledWheel
from repro.errors import (
    DegenerateFitnessError,
    FitnessError,
    ProtocolError,
    UnknownWheelError,
)
from repro.rng.streams import request_stream
from repro.service import frames
from repro.service.cluster import ClusterService
from repro.service.protocol import PROTOCOL_VERSION, raise_structured
from repro.service.registry import (
    WheelRegistry,
    base_id,
    digest_key,
    version_id,
)
from repro.service.server import SelectionService, start_tcp_server


def _ask(service, request):
    response = asyncio.run(service.handle_request(dict(request)))
    raise_structured(response)
    return response


# ----------------------------------------------------------------------
# UPDATE frame codec
# ----------------------------------------------------------------------


class TestUpdateFrame:
    def _round_trip(self, request):
        frame = frames.request_to_frame(request)
        ftype, _, request_id = frames.parse_header(frame[: frames.HEADER_SIZE])
        assert ftype == frames.FT_UPDATE
        return frames.frame_to_request(
            ftype, frame[frames.HEADER_SIZE :], request_id
        )

    def test_round_trip(self):
        request = {
            "op": "update",
            "wheel": "w1:ab12@0011223344556677",
            "indices": np.array([3, 1, 4], dtype=np.int64),
            "values": np.array([1.5, 0.25, 9.0]),
            "id": 7,
        }
        decoded = self._round_trip(request)
        assert decoded["op"] == "update" and decoded["id"] == 7
        assert decoded["wheel"] == request["wheel"]
        np.testing.assert_array_equal(decoded["indices"], request["indices"])
        np.testing.assert_array_equal(decoded["values"], request["values"])

    def test_payload_arrays_are_zero_copy_views(self):
        request = {
            "op": "update",
            "wheel": "w1:ab",
            "indices": np.arange(256, dtype=np.int64),
            "values": np.arange(256, dtype=np.float64),
        }
        decoded = self._round_trip(request)
        assert decoded["indices"].dtype == np.dtype("<i8")
        assert decoded["values"].dtype == np.dtype("<f8")
        assert not decoded["indices"].flags.owndata
        assert not decoded["values"].flags.owndata

    def test_parse_reencode_identity_fuzz(self):
        rng = np.random.default_rng(0x0D17)
        for _ in range(100):
            k = int(rng.integers(1, 64))
            request = {
                "op": "update",
                "wheel": "w1:" + "".join(
                    rng.choice(list("0123456789abcdef"), 16)
                ),
                "indices": rng.integers(0, 1 << 40, k),
                "values": rng.random(k),
            }
            frame1 = frames.request_to_frame(request)
            ftype, _, request_id = frames.parse_header(
                frame1[: frames.HEADER_SIZE]
            )
            decoded = frames.frame_to_request(
                ftype, frame1[frames.HEADER_SIZE :], request_id
            )
            assert frames.request_to_frame(decoded) == frame1

    def test_rejects_malformed_requests(self):
        good = {"op": "update", "wheel": "w1:ab", "indices": [1], "values": [2.0]}
        frames.request_to_frame(good)
        for bad in (
            {**good, "wheel": 7},
            {**good, "indices": []},
            {**good, "values": []},
            {**good, "indices": [1, 2]},
            {**good, "values": ["x"]},
            {**good, "indices": [[1], [2]], "values": [[1.0], [2.0]]},
        ):
            with pytest.raises(ProtocolError):
                frames.request_to_frame(bad)

    def test_garbage_bodies_never_crash(self):
        """Arbitrary UPDATE bodies raise ProtocolError, never anything else."""
        rng = np.random.default_rng(0xFEED)
        good = frames.request_to_frame(
            {"op": "update", "wheel": "w1:ab", "indices": [1, 2], "values": [3.0, 4.0]}
        )
        body = bytes(good[frames.HEADER_SIZE :])
        # Truncations and extensions of a valid body.
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                frames.frame_to_request(frames.FT_UPDATE, body[:cut], None)
        with pytest.raises(ProtocolError):
            frames.frame_to_request(frames.FT_UPDATE, body + b"\x00", None)
        # Random blobs: either a clean ProtocolError or a (harmless)
        # accidental parse — nothing else may escape.
        for _ in range(300):
            blob = bytes(
                rng.integers(0, 256, int(rng.integers(0, 96)), dtype=np.uint8)
            )
            try:
                decoded = frames.frame_to_request(frames.FT_UPDATE, blob, None)
            except ProtocolError:
                continue
            assert decoded["op"] == "update"

    def test_update_is_feature_gated(self):
        assert frames.required_feature(frames.FT_UPDATE) == "update"
        assert frames.required_feature(frames.FT_DRAW) is None
        assert "update" in frames.FRAME_FEATURES


# ----------------------------------------------------------------------
# Feature negotiation over a real framed connection
# ----------------------------------------------------------------------


class TestFeatureNegotiation:
    def _session(self, hello_features, seed=0):
        """Open a framed TCP session, optionally pinning HELLO features.

        Returns the responses to a register, an update, and a draw
        against the minted id (or the update error).
        """
        service = SelectionService(seed=seed)

        async def go():
            server = await start_tcp_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def rpc(frame):
                writer.write(frame)
                await writer.drain()
                got = await frames.read_frame(reader, max_body_bytes=1 << 20)
                assert got is not None
                return frames.frame_to_response(*got)

            try:
                if hello_features is not None:
                    hello = await rpc(
                        frames.hello_frame(
                            PROTOCOL_VERSION, 0, features=hello_features
                        )
                    )
                    assert hello["status"] == "ok"
                reg = await rpc(
                    frames.request_to_frame(
                        {"op": "register", "fitness": [1.0, 2.0, 3.0], "id": 1}
                    )
                )
                upd = await rpc(
                    frames.request_to_frame(
                        {
                            "op": "update",
                            "wheel": reg["wheel"],
                            "indices": [0],
                            "values": [5.0],
                            "id": 2,
                        }
                    )
                )
                return reg, upd
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                await service.close()

        return asyncio.run(go())

    def test_unpinned_connection_may_update(self):
        reg, upd = self._session(hello_features=None)
        raise_structured(reg)
        raise_structured(upd)
        assert upd["wheel"].startswith(base_id(reg["wheel"]) + "@")

    def test_hello_with_update_feature_allows_update(self):
        reg, upd = self._session(hello_features=["draws-ndarray", "update"])
        raise_structured(upd)
        assert upd["version"] == 1

    def test_hello_without_update_feature_rejects_update(self):
        """Satellite: version-negotiation rejection when the flag is absent."""
        reg, upd = self._session(hello_features=["draws-ndarray"])
        raise_structured(reg)  # registration is not gated
        assert upd["status"] == "error"
        assert upd["error"] == "ProtocolError"
        assert "update" in upd["message"]
        assert upd["id"] == 2


# ----------------------------------------------------------------------
# Registry versioning
# ----------------------------------------------------------------------


class TestRegistryUpdate:
    def test_version_ids_are_history_addressed(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        a, b = WheelRegistry(), WheelRegistry()
        ida, _ = a.register(base)
        idb, _ = b.register(base)
        assert ida == idb
        new_a, info_a = a.update(ida, [2], [9.0])
        new_b, info_b = b.update(idb, [2], [9.0])
        assert new_a == new_b == version_id(ida, np.array([2]), np.array([9.0]))
        assert base_id(new_a) == ida
        assert info_a == {"cached": False, "version": 1, "parent": ida}
        # A different delta mints a different id.
        other, _ = a.update(ida, [2], [9.5])
        assert other != new_a
        # Version keys feed distinct substreams but roots keep theirs.
        assert digest_key(new_a) != digest_key(ida)

    def test_idempotent_update_is_cached(self):
        reg = WheelRegistry()
        root, _ = reg.register(np.array([1.0, 2.0, 3.0]))
        first, info1 = reg.update(root, [0], [7.0])
        second, info2 = reg.update(root, [0], [7.0])
        assert first == second
        assert info1["cached"] is False and info2["cached"] is True
        stats = reg.stats()
        assert stats["updates"] == 1
        assert stats["update_hits"] == 1
        assert stats["versions"] == 1

    def test_updates_do_not_inflate_lru_misses(self):
        """Satellite: the delta path never counts as a content miss."""
        reg = WheelRegistry()
        root, _ = reg.register(np.arange(1.0, 101.0))
        assert reg.stats()["misses"] == 1
        current = root
        for step in range(10):
            current, _ = reg.update(current, [step], [float(step + 50)])
        stats = reg.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        assert stats["updates"] == 10
        assert stats["max_chain_len"] == 10
        assert stats["versions"] == 10
        assert stats["delta_recompiles"] == 10

    def test_fenwick_vs_rebuild_counters(self):
        n = 4096
        reg = WheelRegistry()
        root, _ = reg.register(np.arange(1.0, n + 1.0))
        reg.update(root, [1], [3.0])  # far below the cutoff
        big = np.arange(n // 2)
        reg.update(root, big, np.full(big.size, 2.0))  # far above it
        stats = reg.stats()
        assert stats["update_fenwick"] == 1
        assert stats["update_rebuild"] == 1
        assert stats["delta_recompiles"] == 2

    def test_update_errors(self):
        reg = WheelRegistry()
        root, _ = reg.register(np.array([1.0, 2.0]))
        with pytest.raises(UnknownWheelError):
            reg.update("w1:0000000000000000", [0], [1.0])
        with pytest.raises(IndexError):
            reg.update(root, [5], [1.0])  # out of range
        with pytest.raises(FitnessError):
            reg.update(root, [0], [-1.0])  # negative fitness
        with pytest.raises(DegenerateFitnessError):
            reg.update(root, [0, 1], [0.0, 0.0])  # would zero the wheel
        # Failed updates mint nothing.
        assert reg.stats()["updates"] == 0

    def test_updated_wheel_matches_fresh_compile(self):
        """The incremental recompile is bitwise a full recompile."""
        rng = np.random.default_rng(11)
        base = rng.random(512) + 0.1
        for method in ("log_bidding", "gumbel", "alias"):
            reg = WheelRegistry()
            root, _ = reg.register(base, method=method)
            idx = np.array([5, 100, 301])
            vals = np.array([9.0, 0.0, 2.5])
            child, _ = reg.update(root, idx, vals)
            mutated = base.copy()
            mutated[idx] = vals
            served = reg.get(child)
            oracle = CompiledWheel(mutated, method, kernel=served.kernel)
            for i, size in enumerate((1, 33, 256)):
                np.testing.assert_array_equal(
                    served.select_many(size, request_stream(0, digest_key(child), i)),
                    oracle.select_many(size, request_stream(0, digest_key(child), i)),
                )

    def test_apply_updates_patches_race_kernel_bitwise(self):
        """Faithful (race-kernel) wheels patch key constants in place."""
        rng = np.random.default_rng(7)
        base = rng.random(256) + 0.1
        idx, vals = np.array([3, 70, 200]), np.array([5.0, 0.0, 1e-40])
        mutated = base.copy()
        mutated[idx] = vals
        for method in ("gumbel", "efraimidis_spirakis"):
            wheel = CompiledWheel(base, method, kernel="faithful")
            updated = wheel.apply_updates(idx, vals)
            assert updated.kernel == wheel.kernel == "race"
            oracle = CompiledWheel(mutated, method, kernel="race")
            stream = request_stream(1, 2, 3)
            expect = oracle.select_many(128, request_stream(1, 2, 3))
            np.testing.assert_array_equal(updated.select_many(128, stream), expect)


# ----------------------------------------------------------------------
# Stochastic-acceptance backend
# ----------------------------------------------------------------------


class TestAcceptanceBackend:
    def test_register_pins_method_and_rejects_independent(self):
        reg = WheelRegistry()
        wid, _ = reg.register(
            np.array([1.0, 2.0, 3.0]), backend="stochastic_acceptance"
        )
        assert isinstance(reg.get(wid), AcceptanceWheel)
        with pytest.raises(ValueError):
            reg.register(
                np.array([1.0, 2.0]),
                method="independent",
                backend="stochastic_acceptance",
            )
        with pytest.raises(ValueError):
            reg.register(np.array([1.0]), backend="nope")

    def test_update_skips_compilation_entirely(self):
        base = np.arange(1.0, 65.0)
        reg = WheelRegistry()
        root, _ = reg.register(base, backend="stochastic_acceptance")
        compiles_before = reg.stats()["compiles"]
        child, info = reg.update(root, [3, 10], [100.0, 0.5])
        stats = reg.stats()
        assert stats["compiles"] == compiles_before
        assert stats["delta_recompiles"] == 0
        assert stats["updates"] == 1
        mutated = base.copy()
        mutated[[3, 10]] = [100.0, 0.5]
        served = reg.get(child)
        oracle = AcceptanceWheel(mutated)
        np.testing.assert_array_equal(
            served.select_many(500, request_stream(0, digest_key(child), 0)),
            oracle.select_many(500, request_stream(0, digest_key(child), 0)),
        )

    def test_served_over_service(self):
        service = SelectionService(seed=3)
        reg = _ask(
            service,
            {
                "op": "register",
                "fitness": [1.0, 5.0, 2.0],
                "backend": "stochastic_acceptance",
            },
        )
        upd = _ask(
            service,
            {"op": "update", "wheel": reg["wheel"], "indices": [0], "values": [9.0]},
        )
        draw = _ask(service, {"op": "draw", "wheel": upd["wheel"], "n": 64, "seed": 0})
        assert len(draw["draws"]) == 64
        asyncio.run(service.close())


# ----------------------------------------------------------------------
# Copy-on-write determinism
# ----------------------------------------------------------------------


class TestCOWDeterminism:
    def test_parent_draws_unchanged_by_update(self):
        service = SelectionService(seed=0)
        reg = _ask(service, {"op": "register", "fitness": [1.0, 2.0, 3.0, 4.0]})
        parent = reg["wheel"]
        before = [
            _ask(service, {"op": "draw", "wheel": parent, "n": 16, "seed": s})["draws"]
            for s in range(4)
        ]
        upd = _ask(
            service,
            {"op": "update", "wheel": parent, "indices": [1, 3], "values": [9.0, 0.5]},
        )
        assert upd["wheel"] != parent
        after = [
            _ask(service, {"op": "draw", "wheel": parent, "n": 16, "seed": s})["draws"]
            for s in range(4)
        ]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        asyncio.run(service.close())

    @pytest.mark.parametrize("workers", [1, 3])
    def test_cluster_versions_match_direct_replay(self, workers):
        """Satellite: COW determinism on 1-worker and multi-worker clusters."""
        base = np.arange(1.0, 129.0)
        idx, vals = np.array([7, 64]), np.array([500.0, 0.25])
        mirror = WheelRegistry()
        root = mirror.register(base)[0]
        child = mirror.update(root, idx, vals)[0]
        mutated = base.copy()
        mutated[idx] = vals
        cluster = ClusterService(workers=workers, seed=0)

        async def go():
            reply = await cluster.handle_request(
                {"op": "register", "fitness": base.tolist()}
            )
            raise_structured(reply)
            assert reply["wheel"] == root
            before = await cluster.handle_request(
                {"op": "draw", "wheel": root, "n": 32, "seed": 5}
            )
            raise_structured(before)
            upd = await cluster.handle_request(
                {
                    "op": "update",
                    "wheel": root,
                    "indices": idx.tolist(),
                    "values": vals.tolist(),
                }
            )
            raise_structured(upd)
            assert upd["wheel"] == child
            after = await cluster.handle_request(
                {"op": "draw", "wheel": root, "n": 32, "seed": 5}
            )
            raise_structured(after)
            drawn = await cluster.handle_request(
                {"op": "draw", "wheel": child, "n": 32, "seed": 5}
            )
            raise_structured(drawn)
            await cluster.close()
            return before["draws"], after["draws"], drawn["draws"]

        before, after, drawn = asyncio.run(go())
        np.testing.assert_array_equal(before, after)
        served = mirror.get(child)
        oracle = CompiledWheel(mutated, "log_bidding", kernel=served.kernel)
        np.testing.assert_array_equal(
            drawn, oracle.select_many(32, request_stream(0, digest_key(child), 5))
        )

    def test_chained_versions_route_to_root_shard(self):
        cluster = ClusterService(workers=3, seed=0)

        async def go():
            reply = await cluster.handle_request(
                {"op": "register", "fitness": list(np.arange(1.0, 33.0))}
            )
            raise_structured(reply)
            cur = reply["wheel"]
            for step in range(4):
                upd = await cluster.handle_request(
                    {
                        "op": "update",
                        "wheel": cur,
                        "indices": [step],
                        "values": [float(step) + 2.0],
                    }
                )
                raise_structured(upd)
                assert upd["version"] == step + 1
                cur = upd["wheel"]
                draw = await cluster.handle_request(
                    {"op": "draw", "wheel": cur, "n": 4, "seed": step}
                )
                raise_structured(draw)
            stats = await cluster.handle_request({"op": "stats"})
            raise_structured(stats)
            await cluster.close()
            return stats["stats"]

        stats = asyncio.run(go())
        # All versions live on exactly one shard (the root's owner).
        owners = [
            shard for shard in stats["shards"]
            if shard["registry"]["max_chain_len"] == 4
        ]
        assert len(owners) == 1
        assert owners[0]["registry"]["versions"] == 4
        assert owners[0]["updates_total"] == 4


# ----------------------------------------------------------------------
# Scheduler/metrics accounting and the mutate load generator
# ----------------------------------------------------------------------


class TestUpdateAccounting:
    def test_metrics_and_stats_carry_update_counters(self):
        service = SelectionService(seed=0)
        reg = _ask(service, {"op": "register", "fitness": [1.0, 2.0, 3.0]})
        _ask(
            service,
            {"op": "update", "wheel": reg["wheel"], "indices": [0, 1], "values": [4.0, 5.0]},
        )
        metrics = _ask(service, {"op": "metrics"})["metrics"]
        assert metrics["updates_total"] == 1
        assert metrics["update_indices_total"] == 2
        assert metrics["registry"]["updates"] == 1
        stats = _ask(service, {"op": "stats"})
        assert stats["stats"]["shards"][0]["registry"]["delta_recompiles"] == 1
        asyncio.run(service.close())

    def test_draining_service_refuses_updates(self):
        service = SelectionService(seed=0)
        reg = _ask(service, {"op": "register", "fitness": [1.0, 2.0]})
        asyncio.run(service.drain())
        response = asyncio.run(
            service.handle_request(
                {"op": "update", "wheel": reg["wheel"], "indices": [0], "values": [3.0]}
            )
        )
        assert response["status"] == "draining"
        asyncio.run(service.close())

    def test_mutate_load_merges_per_version_histograms_exactly(self):
        """Satellite: per-version histograms merge exactly across procs."""
        from repro.service.bench import _measure_mutate_leg
        from repro.service.scheduler import BatchConfig

        config = BatchConfig(max_batch=32, max_delay_us=100.0)
        kwargs = dict(
            clients=8, requests_per_client=8, n_draws=4,
            update_every=2, update_k=2, seed=0, config=config,
        )
        fitness = np.arange(1.0, 65.0)
        solo = _measure_mutate_leg(fitness, "log_bidding", procs=1, **kwargs)
        split = _measure_mutate_leg(fitness, "log_bidding", procs=2, **kwargs)
        for leg in (solo, split):
            assert leg["requests"] == 64
            assert leg["updates"] == 8 * (8 // 2)
            assert leg["draw_requests"] == leg["requests"] - leg["updates"]
            assert leg["draws"] == leg["draw_requests"] * 4
            # Exactness: per-version counts sum to the overall histogram.
            per_version = leg["per_version_latency"]
            assert sum(h["count"] for h in per_version.values()) == leg["draw_requests"]
            assert leg["latency"]["count"] == leg["draw_requests"]
            assert leg["update_latency"]["count"] == leg["updates"]
        # The deterministic workload is identical however it is split.
        assert solo["max_version"] == split["max_version"]
        assert sorted(solo["per_version_latency"]) == sorted(
            split["per_version_latency"]
        )

"""Sharded cluster: routing stability, rebuilds, determinism, drain."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.engine.compiled import _AUTO_KERNEL
from repro.rng.streams import request_stream
from repro.service.cluster import DEFAULT_VNODES, ClusterService, HashRing
from repro.service.registry import WheelRegistry, digest_key, wheel_digest
from repro.service.server import SelectionService

#: Stands for the id of the wheel registered before the edge requests.
WHEEL = object()

EDGE_REQUESTS = {
    "unknown_method": {"op": "register", "fitness": [1.0, 2.0], "method": "nope"},
    "bad_backend": {"op": "register", "fitness": [1.0, 2.0], "backend": "gpu"},
    "unknown_wheel": {"op": "draw", "wheel": "w1:" + "f" * 64, "n": 1},
    "malformed_wheel_id": {"op": "draw", "wheel": "garbage", "n": 1},
    "negative_seed": {"op": "draw", "wheel": WHEEL, "n": 1, "seed": -1},
    "update_index_out_of_range": {
        "op": "update", "wheel": WHEEL, "indices": [99], "values": [1.0],
    },
    "degenerate_update": {
        "op": "update", "wheel": WHEEL, "indices": [0, 1, 2], "values": [0.0] * 3,
    },
}


#: The exact wire message of each unknown-name case.  Both errors
#: subclass ``KeyError``, whose ``str`` would add a pair of quotes.
UNKNOWN_NAME_MESSAGES = {
    "unknown_method": (
        f"no compiled kernel for method 'nope'; compilable: {sorted(_AUTO_KERNEL)}"
    ),
    "unknown_wheel": (
        f"wheel {EDGE_REQUESTS['unknown_wheel']['wheel']!r} was never minted here, "
        "or forgotten past the recipe bound; re-register the fitness vector "
        "(and replay updates) to restore it"
    ),
    "malformed_wheel_id": (
        "wheel 'garbage' was never minted here, or forgotten past the recipe "
        "bound; re-register the fitness vector (and replay updates) to restore it"
    ),
}


def _ids(count):
    return [
        wheel_digest(np.arange(1.0, 8.0) * (1.0 + 0.001 * k), "log_bidding", "auto")
        for k in range(count)
    ]


class TestHashRing:
    def test_lookup_is_deterministic_across_instances(self):
        ids = _ids(64)
        a, b = HashRing(4), HashRing(4)
        assert [a.lookup(i) for i in ids] == [b.lookup(i) for i in ids]

    def test_growth_only_moves_keys_to_the_new_shard(self):
        """The consistent-hashing contract: N -> N+1 shards never
        reshuffles keys between existing shards."""
        ids = _ids(256)
        for n in (1, 2, 3, 5, 8):
            before = HashRing(n)
            after = HashRing(n + 1)
            moved = 0
            for wheel_id in ids:
                old, new = before.lookup(wheel_id), after.lookup(wheel_id)
                if old != new:
                    assert new == n, (
                        f"{wheel_id} moved {old}->{new}, not onto new shard {n}"
                    )
                    moved += 1
            # Some keys must move (the new shard takes its arcs), but
            # nowhere near all of them.
            assert 0 < moved < len(ids)

    def test_balance_within_reason(self):
        ids = _ids(512)
        ring = HashRing(4, vnodes=DEFAULT_VNODES)
        counts = [0, 0, 0, 0]
        for wheel_id in ids:
            counts[ring.lookup(wheel_id)] += 1
        assert max(counts) <= 3 * len(ids) // 4, f"pathological skew: {counts}"
        assert min(counts) > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


@pytest.fixture(scope="module")
def edge_answers():
    """Each service's full responses to ``EDGE_REQUESTS``, by service."""

    async def answer(service):
        reg = await service.handle_request({"op": "register", "fitness": [1.0, 2.0, 3.0]})
        out = {}
        for i, (name, request) in enumerate(EDGE_REQUESTS.items()):
            request = {k: reg["wheel"] if v is WHEEL else v for k, v in request.items()}
            out[name] = await service.handle_request({**request, "id": i})
        await service.close()
        return out

    return {
        label: asyncio.run(asyncio.wait_for(answer(make()), 60.0))
        for label, make in (
            ("single", lambda: SelectionService(seed=3)),
            ("cluster1", lambda: ClusterService(workers=1, seed=3)),
            ("cluster2", lambda: ClusterService(workers=2, seed=3)),
        )
    }


@pytest.mark.parametrize("case", sorted(EDGE_REQUESTS))
def test_cluster_answers_equal_single_process_answers(edge_answers, case):
    """Errors cross the shard hop unchanged: same status, class, message."""
    single = edge_answers["single"][case]
    assert single["status"] == "error"
    assert edge_answers["cluster1"][case] == single
    assert edge_answers["cluster2"][case] == single


@pytest.mark.parametrize("case", sorted(UNKNOWN_NAME_MESSAGES))
@pytest.mark.parametrize("service", ["single", "cluster2"])
def test_unknown_name_messages_arrive_unquoted(edge_answers, service, case):
    assert edge_answers[service][case]["message"] == UNKNOWN_NAME_MESSAGES[case]


class TestClusterService:
    def _run(self, coro, timeout=60.0):
        return asyncio.run(asyncio.wait_for(coro, timeout))

    def test_register_draw_round_trip(self):
        cluster = ClusterService(workers=2, seed=7)

        async def flow():
            ping = await cluster.handle_request({"op": "ping", "id": 0})
            assert ping["status"] == "ok" and ping["workers"] == 2
            reg = await cluster.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0, 4.0], "id": 1}
            )
            assert reg["status"] == "ok" and reg["wheel"].startswith("w1:")
            assert reg["cached"] is False
            again = await cluster.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0, 4.0]}
            )
            assert again["cached"] is True
            draw = await cluster.handle_request(
                {"op": "draw", "wheel": reg["wheel"], "n": 6, "id": 2}
            )
            assert draw["status"] == "ok" and len(draw["draws"]) == 6
            assert all(0 <= d < 4 for d in np.asarray(draw["draws"]))
            await cluster.close()

        self._run(flow())

    def test_structured_errors_cross_the_pipe(self):
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            degenerate = await cluster.handle_request(
                {"op": "register", "fitness": [0.0, 0.0], "id": 9}
            )
            assert degenerate["status"] == "error"
            assert degenerate["error"] == "DegenerateFitnessError"
            assert degenerate["id"] == 9
            unknown = await cluster.handle_request(
                {"op": "draw", "wheel": "w1:00ff00ff00ff00ff", "n": 1}
            )
            assert unknown["error"] == "UnknownWheelError"
            await cluster.close()

        self._run(flow())

    def test_same_wheel_routes_to_same_shard(self):
        cluster = ClusterService(workers=3, seed=0)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": list(range(1, 33))}
            )
            for i in range(12):
                await cluster.handle_request(
                    {"op": "draw", "wheel": reg["wheel"], "n": 2, "seed": i}
                )
            stats = (await cluster.handle_request({"op": "stats"}))["stats"]
            await cluster.close()
            return stats

        stats = self._run(flow())
        # One wheel -> exactly one shard serves every draw.
        nonzero = [count for count in stats["routed"].values() if count > 0]
        assert len(nonzero) == 1 and nonzero[0] == 13  # register + 12 draws
        assert stats["routing_max_share"] == 1.0

    def test_cluster_determinism_1_vs_n_workers(self):
        """The per-shard determinism certificate, as a unit test: draws
        are byte-identical regardless of pool size, and equal to the
        direct substream replay on a compiled wheel."""
        vectors = [
            np.arange(1.0, 101.0),
            np.arange(100.0, 0.0, -1.0),
        ]
        sizes = [1, 7, 32, 3]

        def serve(workers):
            cluster = ClusterService(workers=workers, seed=42)

            async def flow():
                out = []
                for fitness in vectors:
                    reg = await cluster.handle_request(
                        {"op": "register", "fitness": fitness}
                    )
                    draws = await asyncio.gather(
                        *(
                            cluster.handle_request(
                                {
                                    "op": "draw",
                                    "wheel": reg["wheel"],
                                    "n": n,
                                    "seed": i,
                                }
                            )
                            for i, n in enumerate(sizes)
                        )
                    )
                    out.append([np.asarray(d["draws"]) for d in draws])
                await cluster.close()
                return out

            return asyncio.run(asyncio.wait_for(flow(), 60.0))

        single, triple = serve(1), serve(3)
        registry = WheelRegistry()
        for v_idx, fitness in enumerate(vectors):
            wid, _ = registry.register(fitness)
            wheel = registry.get(wid)
            for i, n in enumerate(sizes):
                direct = wheel.select_many(n, request_stream(42, digest_key(wid), i))
                np.testing.assert_array_equal(single[v_idx][i], triple[v_idx][i])
                np.testing.assert_array_equal(single[v_idx][i], direct)

    def test_auto_seeds_are_pool_size_independent(self):
        """Unseeded draws depend on arrival order only, not worker count."""

        def serve(workers):
            cluster = ClusterService(workers=workers, seed=5)

            async def flow():
                reg = await cluster.handle_request(
                    {"op": "register", "fitness": list(range(1, 65))}
                )
                out = []
                for _ in range(6):  # sequential: fixed arrival order
                    d = await cluster.handle_request(
                        {"op": "draw", "wheel": reg["wheel"], "n": 8}
                    )
                    out.append(np.asarray(d["draws"]))
                await cluster.close()
                return out

            return asyncio.run(asyncio.wait_for(flow(), 60.0))

        for a, b in zip(serve(1), serve(2)):
            np.testing.assert_array_equal(a, b)

    def test_stats_rpc_shape(self):
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0]}
            )
            await cluster.handle_request(
                {"op": "draw", "wheel": reg["wheel"], "n": 4}
            )
            stats = (await cluster.handle_request({"op": "stats"}))["stats"]
            metrics = (await cluster.handle_request({"op": "metrics"}))["metrics"]
            await cluster.close()
            return stats, metrics

        stats, metrics = self._run(flow())
        assert stats["workers"] == 2 and not stats["draining"]
        assert set(stats["routed"]) == {"0", "1"}
        assert len(stats["shards"]) == 2
        for shard in stats["shards"]:
            assert {"shard", "queued", "registry", "batch_sizes"} <= set(shard)
            assert "compiles" in shard["registry"]
            assert "store" not in shard["registry"]
        # Exactly one compile happened across the pool for the one wheel.
        assert sum(s["registry"]["compiles"] for s in stats["shards"]) == 1
        assert metrics["workers"] == 2 and len(metrics["shards"]) == 2

    def test_shard_rebuilds_an_evicted_root_by_compiling_it(self):
        """A shard holding one compiled wheel recompiles an evicted root
        from its recipe, and the draw it serves is byte-equal."""
        cluster = ClusterService(workers=2, seed=0, max_wheels=1)

        def vector(k):
            return (np.arange(1.0, 9.0) * (1.0 + 0.01 * k)).tolist()

        async def owner_registry(owner):
            stats = (await cluster.handle_request({"op": "stats"}))["stats"]
            return stats["shards"][owner]["registry"]

        async def register(k):
            return (await cluster.handle_request({"op": "register", "fitness": vector(k)}))["wheel"]

        async def flow():
            first = [await register(k) for k in range(3)][0]
            owner = cluster.ring.lookup(first)
            draw = {"op": "draw", "wheel": first, "n": 16, "seed": 11, "id": 1}
            before = await cluster.handle_request(draw)
            # The owner holds one compiled wheel, so the next register
            # routed to it evicts the first.
            k = 3
            while cluster.ring.lookup(await register(k)) != owner:
                k += 1
            compiles = (await owner_registry(owner))["compiles"]
            after = await cluster.handle_request(draw)
            registry = await owner_registry(owner)
            await cluster.close()
            return before, after, compiles, registry

        before, after, compiles, registry = self._run(flow())
        assert before["status"] == after["status"] == "ok"
        assert np.asarray(after["draws"]).tobytes() == np.asarray(before["draws"]).tobytes()
        assert registry["compiles"] == compiles + 1
        assert registry["rederives"] >= 1

    def test_drain_loses_no_accepted_request(self):
        """Graceful drain: every request accepted before the drain
        completes normally; later ones get the typed draining refusal."""
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": list(range(1, 201))}
            )
            wid = reg["wheel"]
            accepted = [
                asyncio.create_task(
                    cluster.handle_request(
                        {"op": "draw", "wheel": wid, "n": 4, "id": i, "seed": i}
                    )
                )
                for i in range(32)
            ]
            # Let the burst reach the workers, then pull the plug.
            await asyncio.sleep(0)
            await cluster.drain()
            responses = await asyncio.gather(*accepted)
            late = await cluster.handle_request({"op": "draw", "wheel": wid, "n": 1})
            stats_after = cluster.metrics.draining_total
            await cluster.close()
            return responses, late, stats_after

        responses, late, draining_total = self._run(flow())
        ok = [r for r in responses if r["status"] == "ok"]
        draining = [r for r in responses if r["status"] == "draining"]
        # Every request was answered — served or refused, never lost.
        assert len(ok) + len(draining) == 32
        assert ok, "requests in flight before drain must complete"
        for r in ok:
            assert len(r["draws"]) == 4
        assert late["status"] == "draining"
        assert late["error"] == "ServiceDrainingError"
        assert draining_total == len(draining) + 1

    def test_draining_is_retryable_via_raise_structured(self):
        from repro.errors import ServiceDrainingError
        from repro.service.protocol import error_response, raise_structured

        with pytest.raises(ServiceDrainingError):
            raise_structured(error_response(ServiceDrainingError("drain")))

    def test_close_is_idempotent_and_reaps_workers(self):
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            await cluster.handle_request({"op": "ping"})
            await cluster.close()
            await cluster.close()

        self._run(flow())
        for shard in cluster._shards:
            assert not shard.proc.is_alive()

    def test_dead_shard_fails_in_flight_requests_and_drain_returns(self):
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            reg = await cluster.handle_request({"op": "register", "fitness": [1.0, 2.0]})
            wid = reg["wheel"]
            shard = cluster._shards[cluster.ring.lookup(wid)]
            os.kill(shard.proc.pid, signal.SIGSTOP)
            try:
                draw = asyncio.ensure_future(
                    cluster.handle_request({"op": "draw", "wheel": wid, "n": 2, "id": 1})
                )
                await asyncio.sleep(0.05)
                assert not draw.done()
            finally:
                os.kill(shard.proc.pid, signal.SIGKILL)
            in_flight = await asyncio.wait_for(draw, 5.0)
            later = await cluster.handle_request({"op": "draw", "wheel": wid, "n": 1})
            stats = await cluster.handle_request({"op": "stats"})
            metrics = await cluster.handle_request({"op": "metrics"})
            await asyncio.wait_for(cluster.drain(), 5.0)
            await cluster.close()
            return in_flight, later, stats, metrics, shard.index

        in_flight, later, stats, metrics, index = self._run(flow())
        assert in_flight["status"] == "error" and in_flight["id"] == 1
        assert in_flight["error"] == "ServiceError"
        assert f"shard {index} exited" in in_flight["message"]
        assert {k: later[k] for k in ("status", "error", "message")} == {
            k: in_flight[k] for k in ("status", "error", "message")
        }
        # The live shard still reports; the dead one is marked, not fatal.
        assert stats["status"] == "ok" and metrics["status"] == "ok"
        for shards in (stats["stats"]["shards"], metrics["metrics"]["shards"]):
            dead, live = sorted(shards, key=lambda s: s["shard"] != index)
            assert dead == {"shard": index, "lost": in_flight["message"]}
            assert live["shard"] == 1 - index and "registry" in live

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterService(workers=0)


def _proc_stat(pid):
    """``(state, ppid)`` from ``/proc/<pid>/stat``; None once reaped."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


@pytest.mark.skipif(
    not (os.path.isdir("/proc/self") and os.path.isdir("/dev/shm")),
    reason="needs procfs and /dev/shm",
)
def test_shards_exit_when_front_end_is_killed():
    """A SIGKILLed front end never drains; its shards must still exit.

    A forked shard sees EOF on its stream only if it closed its copies
    of the front end's socket ends (its own and every earlier shard's).
    Nothing the cluster made is left in ``/dev/shm`` afterwards.
    """
    shm_before = set(os.listdir("/dev/shm"))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        listening = proc.stderr.readline()  # printed only once bound
        host, port = listening.split(" listening on ", 1)[1].split()[0].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as conn:
            conn.sendall(b'{"op": "stats", "id": 1}\n')
            reply = json.loads(conn.makefile("r").readline())
        assert reply["status"] == "ok"
        shards = [
            int(pid) for pid in os.listdir("/proc")
            if pid.isdigit() and (_proc_stat(pid) or ("", 0))[1] == proc.pid
        ]
        assert len(shards) == 2, shards
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        alive = shards
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if (_proc_stat(pid) or ("Z",))[0] != "Z"]
        assert not alive, f"shards {alive} outlived their front end"
        assert set(os.listdir("/dev/shm")) - shm_before == set()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()

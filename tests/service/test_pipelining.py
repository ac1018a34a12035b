"""Pipelined framed connections and the event-loop shard channel.

A framed connection keeps reading while earlier requests are served:
requests start in arrival order and replies come back in request order.
"""

import asyncio

import numpy as np
import pytest

from repro.service import frames
from repro.service.cluster import ClusterService
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.registry import version_id, wheel_digest
from repro.service.server import SelectionService, start_tcp_server

FITNESS = np.arange(1.0, 65.0)


def _run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _pipeline(service, payload, replies, *, half_close=False, then_eof=False):
    """Send ``payload`` in one write on a fresh framed connection (then
    EOF, with ``half_close``) and return the first ``replies`` responses;
    with ``then_eof``, assert the server closes the connection after them."""
    server = await start_tcp_server(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        if half_close:
            writer.write_eof()
        await writer.drain()
        out = []
        for _ in range(replies):
            frame = await frames.read_frame(reader, max_body_bytes=16 << 20)
            assert frame is not None, f"closed after {len(out)} replies"
            out.append(frames.frame_to_response(*frame))
        if then_eof:
            assert await reader.read() == b"", "the connection stayed open"
        return out
    finally:
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        await service.close()


def _frames(*requests) -> bytes:
    return b"".join(frames.request_to_frame(r) for r in requests)


class _SlowLargeDraws(SelectionService):
    """Holds large draws back, so a later small one finishes first."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.finished = []

    async def handle_request(self, request):
        if request.get("n", 0) > 1000:
            await asyncio.sleep(0.05)
        response = await super().handle_request(request)
        self.finished.append(request.get("id"))
        return response


def test_replies_come_back_in_request_order():
    service = _SlowLargeDraws(seed=1)
    wheel = wheel_digest(FITNESS, "log_bidding", "auto")

    async def flow():
        await service.handle_request({"op": "register", "fitness": FITNESS})
        return await _pipeline(
            service,
            _frames(
                {"op": "draw", "wheel": wheel, "n": 4096, "seed": 1, "id": 1},
                {"op": "draw", "wheel": wheel, "n": 1, "seed": 2, "id": 2},
            ),
            2,
        )

    big, small = _run(flow())
    # The small draw was served while the big one was in flight ...
    assert service.finished[-2:] == [2, 1]
    # ... and still answered after it.
    assert (big["id"], small["id"]) == (1, 2)
    assert len(big["draws"]) == 4096 and len(small["draws"]) == 1


@pytest.mark.parametrize("workers", [None, 2], ids=["single", "cluster2"])
def test_update_then_draw_on_its_version_id(workers):
    """The UPDATE's registry write happens before the DRAW that follows it."""
    service = SelectionService(seed=4) if workers is None else ClusterService(
        workers=workers, seed=4
    )
    root = wheel_digest(FITNESS, "log_bidding", "auto")
    indices, values = np.array([3, 9], dtype=np.int64), np.array([0.5, 7.0])
    child = version_id(root, indices, values)

    async def flow():
        reg = await service.handle_request({"op": "register", "fitness": FITNESS})
        assert reg["wheel"] == root
        return await _pipeline(
            service,
            _frames(
                {"op": "update", "wheel": root, "indices": indices, "values": values,
                 "id": 1},
                {"op": "draw", "wheel": child, "n": 8, "seed": 5, "id": 2},
            ),
            2,
        )

    update, draw = _run(flow())
    assert update["status"] == "ok" and update["wheel"] == child
    assert draw["status"] == "ok" and draw["id"] == 2 and len(draw["draws"]) == 8


def test_pipelined_registers_on_a_fresh_cluster():
    """Every shard stream opens once, however many first requests race."""
    vectors = [FITNESS * (1.0 + k / 64) for k in range(64)]
    cluster = ClusterService(workers=2, seed=0)
    replies = _run(
        _pipeline(
            cluster,
            _frames(*({"op": "register", "fitness": f, "id": i}
                      for i, f in enumerate(vectors))),
            64,
        )
    )
    assert [r["status"] for r in replies] == ["ok"] * 64
    assert [r["id"] for r in replies] == list(range(64))
    assert [r["wheel"] for r in replies] == [
        wheel_digest(f, "log_bidding", "auto") for f in vectors
    ]


def test_corrupt_header_after_pipelined_requests():
    """The requests before a bad header are answered, then the ERROR,
    then the connection closes."""
    service = SelectionService(seed=0)
    wheel = wheel_digest(FITNESS, "log_bidding", "auto")

    async def flow():
        await service.handle_request({"op": "register", "fitness": FITNESS})
        draws = [{"op": "draw", "wheel": wheel, "n": 64, "id": i} for i in (1, 2, 3)]
        return await _pipeline(service, _frames(*draws) + b"\x00" * 16, 4, then_eof=True)

    replies = _run(flow())
    assert [r["id"] for r in replies[:3]] == [1, 2, 3]
    assert all(r["status"] == "ok" for r in replies[:3])
    assert replies[3]["status"] == "error" and replies[3]["error"] == "ProtocolError"


def test_client_eof_waits_for_pipelined_replies():
    service = SelectionService(seed=0)
    wheel = wheel_digest(FITNESS, "log_bidding", "auto")

    async def flow():
        await service.handle_request({"op": "register", "fitness": FITNESS})
        draws = [{"op": "draw", "wheel": wheel, "n": 64, "id": i} for i in (1, 2, 3)]
        return await _pipeline(
            service, _frames(*draws), 3, half_close=True, then_eof=True
        )

    replies = _run(flow())
    assert [(r["status"], r["id"]) for r in replies] == [("ok", 1), ("ok", 2), ("ok", 3)]


def test_hello_pinning_refuses_a_pipelined_update():
    service = SelectionService(seed=0)
    wheel = wheel_digest(FITNESS, "log_bidding", "auto")

    async def flow():
        await service.handle_request({"op": "register", "fitness": FITNESS})
        payload = frames.hello_frame(PROTOCOL_VERSION, 0, features=["draws-ndarray"])
        payload += _frames(
            {"op": "update", "wheel": wheel, "indices": [0], "values": [2.0], "id": 1},
            {"op": "draw", "wheel": wheel, "n": 2, "id": 2},
        )
        return await _pipeline(service, payload, 3)

    hello, update, draw = _run(flow())
    assert hello["status"] == "ok"
    assert update["status"] == "error" and update["error"] == "ProtocolError"
    assert "update" in update["message"] and update["id"] == 1
    assert draw["status"] == "ok" and draw["id"] == 2


def test_spawn_cluster_answers_like_fork_past_the_frame_seed_range():
    """The channel pickles requests, so a seed in [2**63, 2**64) crosses
    it under either start method."""
    request = {"op": "draw", "n": 16, "seed": 2**63 + 5, "id": 7}

    def serve(start_method):
        cluster = ClusterService(workers=2, seed=9, start_method=start_method)

        async def flow():
            reg = await cluster.handle_request({"op": "register", "fitness": FITNESS})
            response = await cluster.handle_request({**request, "wheel": reg["wheel"]})
            await cluster.close()
            return response

        return _run(flow(), timeout=120.0)

    spawned, forked = serve("spawn"), serve("fork")
    assert spawned["status"] == "ok" and spawned["id"] == 7
    np.testing.assert_array_equal(spawned["draws"], forked["draws"])

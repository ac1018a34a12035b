"""Pipelined framed connections and the cluster's shard channel.

A framed connection keeps reading while earlier requests are served:
requests start in arrival order and replies come back in request order.
A cluster sends framed DRAW and UPDATE requests on to its shards as
frames, and writes byte for byte the reply frames a single process writes.
"""

import asyncio
import struct

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service import frames
from repro.service.cluster import _FRAME, _PICKLED, ClusterService, _message, _pickled, _Shard
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


async def _raw_replies(service, payload, replies):
    """Send ``payload`` on a fresh framed connection; the first
    ``replies`` reply frames, each as the exact bytes received."""
    server = await start_tcp_server(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        out = []
        for _ in range(replies):
            header = await reader.readexactly(frames.HEADER_SIZE)
            _, body_len, _ = frames.parse_header(header)
            out.append(header + await reader.readexactly(body_len))
        return out
    finally:
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        await service.close()


def test_forwarded_frames_answer_byte_identically():
    """One pipelined burst over one framed connection: a 2-shard cluster
    writes exactly the reply bytes a single process writes."""
    second = FITNESS[::-1] * 0.5
    roots = [wheel_digest(f, "log_bidding", "auto") for f in (FITNESS, second)]
    indices, values = np.array([0, 17, 63], dtype=np.int64), np.array([0.0, 9.5, 1e-300])
    child = version_id(roots[1], indices, values)
    # A DRAW body the parser refuses (a trailing byte) and one whose
    # wheel id is not UTF-8: both answered with ERROR frames, neither
    # consuming an auto-seed.
    trailing = frames.request_to_frame({"op": "draw", "wheel": roots[0], "n": 3})
    trailing = trailing[:4] + struct.pack("!I", len(trailing) - 15) + trailing[8:] + b"\0"
    not_utf8 = frames.encode_frame(
        frames.FT_DRAW, struct.pack("!H", 2) + b"\xff\xfe" + struct.pack("!IBqd", 1, 0, 0, 0.0), 99
    )
    payload = (
        _frames(
            {"op": "draw", "wheel": roots[0], "n": 5, "seed": 3, "id": 1},
            {"op": "draw", "wheel": roots[1], "n": 700, "seed": 2**63 - 1},
            {"op": "draw", "wheel": roots[0], "n": 2, "id": 2},
            {"op": "draw", "wheel": roots[1], "n": 9},
        )
        + trailing
        + not_utf8
        + _frames(
            {"op": "update", "wheel": roots[1], "indices": indices, "values": values, "id": 3},
            {"op": "draw", "wheel": child, "n": 300, "seed": 8, "id": 4},
            {"op": "draw", "wheel": child, "n": 4, "id": 5},
            {"op": "draw", "wheel": "w1:" + "0" * 64, "n": 1, "seed": 1, "id": 6},
            {"op": "draw", "wheel": roots[0], "n": 6, "deadline_us": 1e9, "id": 7},
        )
    )
    count = 11

    def serve(service):
        async def flow():
            for fitness in (FITNESS, second):
                await service.handle_request({"op": "register", "fitness": fitness})
            return await _raw_replies(service, payload, count)

        return _run(flow())

    single = serve(SelectionService(seed=6))
    cluster = serve(ClusterService(workers=2, seed=6))
    assert cluster == single
    answers = [frames.frame_to_response(*_parsed(r)) for r in single]
    assert [a["status"] for a in answers] == ["ok"] * 4 + ["error"] * 2 + ["ok"] * 3 + [
        "error",
        "ok",
    ]
    assert answers[4]["error"] == answers[5]["error"] == "ProtocolError"
    assert answers[6]["wheel"] == child and answers[9]["error"] == "UnknownWheelError"
    assert [len(answers[i]["draws"]) for i in (0, 1, 2, 3, 7, 8, 10)] == [5, 700, 2, 9, 300, 4, 6]


def _parsed(frame: bytes):
    ftype, _, request_id = frames.parse_header(frame[: frames.HEADER_SIZE])
    return ftype, frame[frames.HEADER_SIZE :], request_id


def test_reply_stream_cut_at_any_byte_fails_only_what_is_owed():
    """The front end's reply splitter, fed a shard's reply stream cut at
    every byte offset and then EOF: complete replies resolve with their
    exact bytes, every other outstanding request fails with the typed
    shard-lost error, and no partial reply is ever delivered."""
    bodies = {
        1: frames.response_to_frame({"status": "ok", "draws": np.arange(5), "id": 1}),
        2: _pickled({"status": "ok", "wheel": "w1:ab"}),
        3: frames.response_to_frame({"status": "ok", "draws": np.arange(2)}),
    }
    kinds = {1: _FRAME, 2: _PICKLED, 3: _FRAME}
    stream = b"".join(_message(kinds[tag], tag, bodies[tag]) for tag in bodies)
    ends, end = {}, 0
    for tag, body in bodies.items():
        end += len(_message(kinds[tag], tag, body))
        ends[tag] = end
    loop = asyncio.new_event_loop()
    try:
        for cut in range(len(stream) + 1):
            shard = _Shard(1, None, None)
            owed = {tag: loop.create_future() for tag in bodies}
            shard.outstanding.update(owed)
            for i in range(0, cut, 7):  # arbitrary read boundaries
                shard.data_received(stream[i : min(cut, i + 7)])
            shard.connection_lost(None)
            assert shard.lost and not shard.outstanding
            for tag, future in owed.items():
                if ends[tag] <= cut:
                    want = bodies[tag] if kinds[tag] == _FRAME else {"status": "ok", "wheel": "w1:ab"}
                    assert future.result() == want
                else:
                    error = future.exception()
                    assert isinstance(error, ServiceError)
                    assert str(error).startswith("shard 1 exited")
    finally:
        loop.close()


def test_a_pipelined_burst_is_written_in_fewer_writes_than_replies(monkeypatch):
    """Replies ready in one loop pass leave in one write, in request order."""
    service = SelectionService(seed=0)
    wheel = wheel_digest(FITNESS, "log_bidding", "auto")
    writes = []
    write = asyncio.StreamWriter.write

    def counted(self, data):
        header = data[: frames.HEADER_SIZE]
        if header[:1] == bytes([frames.MAGIC]) and frames.parse_header(header)[0] >= frames.FT_OK:
            writes.append(len(data))  # the server's reply writes only
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counted)
    draws = [
        {"op": "draw", "wheel": wheel, "n": 1 + i % 5, "seed": i, "id": i} for i in range(16)
    ]

    async def flow():
        await service.handle_request({"op": "register", "fitness": FITNESS})
        return await _pipeline(service, _frames(*draws), len(draws))

    replies = _run(flow())
    assert [r["id"] for r in replies] == [d["id"] for d in draws]
    assert [len(r["draws"]) for r in replies] == [d["n"] for d in draws]
    assert 1 <= len(writes) < len(draws)

"""Wire protocol and the asyncio front end (stdio-core + TCP)."""

import asyncio
import json

import numpy as np
import pytest

from repro.errors import (
    DegenerateFitnessError,
    ProtocolError,
    ServiceOverloadedError,
    UnknownWheelError,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_request,
    encode_response,
    error_response,
    ok_response,
    raise_structured,
)
from repro.service.scheduler import BatchConfig
from repro.service.server import SelectionService, start_tcp_server


class TestProtocol:
    def test_decode_valid_ops(self):
        assert decode_request('{"op": "ping"}')["op"] == "ping"
        req = decode_request('{"op": "draw", "wheel": "w1:ab", "n": 3, "seed": 1}')
        assert req["n"] == 3

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"op": "launch_missiles"}',
            '{"op": "register"}',
            '{"op": "register", "fitness": []}',
            '{"op": "draw"}',
            '{"op": "draw", "wheel": "w1:ab", "n": 0}',
            '{"op": "draw", "wheel": "w1:ab", "n": true}',
            '{"op": "draw", "wheel": "w1:ab", "n": 1, "seed": "x"}',
            '{"op": "draw", "wheel": "w1:ab", "n": 1, "deadline_us": "x"}',
            '{"op": "draw", "wheel": "w1:ab", "n": 1, "deadline_us": true}',
            '{"op": "update", "wheel": "w1:ab", "indices": [1.5], "values": [1.0]}',
            '{"op": "update", "wheel": "w1:ab", "indices": [true], "values": [1.0]}',
            '{"op": "update", "wheel": "w1:ab", "indices": ["1"], "values": [1.0]}',
            '{"op": "update", "wheel": "w1:ab", "indices": [1], "values": [true]}',
            '{"op": "update", "wheel": "w1:ab", "indices": [1], "values": ["1"]}',
        ],
    )
    def test_decode_rejects_malformed(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_encode_round_trip(self):
        resp = ok_response(7, draws=np.array([1, 2, 3]))
        wire = encode_response(resp)
        assert wire.endswith(b"\n")
        assert json.loads(wire) == {"status": "ok", "id": 7, "draws": [1, 2, 3]}

    def test_error_response_classification(self):
        overloaded = error_response(ServiceOverloadedError("full"), 1)
        assert overloaded["status"] == "overloaded"
        hard = error_response(DegenerateFitnessError("zeros"), 2)
        assert hard["status"] == "error"
        assert hard["error"] == "DegenerateFitnessError"

    def test_raise_structured_round_trips_types(self):
        for exc in (
            DegenerateFitnessError("x"),
            UnknownWheelError("y"),
            ServiceOverloadedError("z"),
            ProtocolError("w"),
        ):
            with pytest.raises(type(exc)):
                raise_structured(error_response(exc))
        ok = ok_response(None, value=1)
        assert raise_structured(ok) is ok


class TestSelectionService:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_full_request_flow(self):
        service = SelectionService(seed=3)

        async def flow():
            ping = await service.handle_line('{"op": "ping", "id": 0}')
            assert ping == {
                "status": "ok",
                "id": 0,
                "protocol": PROTOCOL_VERSION,
                "workers": 1,
            }
            reg = await service.handle_line(
                '{"op": "register", "fitness": [1, 2, 3, 4], "id": 1}'
            )
            assert reg["status"] == "ok" and reg["wheel"].startswith("w1:")
            draw = await service.handle_line(
                json.dumps({"op": "draw", "wheel": reg["wheel"], "n": 6, "id": 2})
            )
            assert draw["status"] == "ok" and len(draw["draws"]) == 6
            assert all(0 <= d < 4 for d in draw["draws"])
            metrics = await service.handle_line('{"op": "metrics"}')
            assert metrics["metrics"]["ok_total"] == 1
            assert metrics["metrics"]["registry"]["wheels"] == 1
            await service.close()

        self._run(flow())

    def test_structured_errors_never_raise(self):
        service = SelectionService()

        async def flow():
            degenerate = await service.handle_line(
                '{"op": "register", "fitness": [0, 0], "id": 9}'
            )
            assert degenerate["status"] == "error"
            assert degenerate["error"] == "DegenerateFitnessError"
            assert degenerate["id"] == 9
            unknown = await service.handle_line(
                '{"op": "draw", "wheel": "w1:00", "n": 1}'
            )
            assert unknown["error"] == "UnknownWheelError"
            garbage = await service.handle_line("}{")
            assert garbage["error"] == "ProtocolError"
            await service.close()

        self._run(flow())

    def test_draw_seed_is_replayable(self):
        async def draw_twice():
            out = []
            for _ in range(2):
                service = SelectionService(seed=11)
                reg = await service.handle_request(
                    {"op": "register", "fitness": [1.0, 2.0, 3.0]}
                )
                resp = await service.handle_request(
                    {"op": "draw", "wheel": reg["wheel"], "n": 20, "seed": 5}
                )
                out.append(resp["draws"])
                await service.close()
            return out

        a, b = self._run(draw_twice())
        np.testing.assert_array_equal(a, b)

    def test_overload_burst_sheds_with_explicit_responses(self):
        service = SelectionService(
            seed=0,
            config=BatchConfig(max_batch=16, max_delay_us=200.0, queue_limit=8),
        )

        async def burst():
            reg = await service.handle_request(
                {"op": "register", "fitness": list(range(1, 101))}
            )
            wid = reg["wheel"]
            responses = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        service.handle_request(
                            {"op": "draw", "wheel": wid, "n": 4, "id": i}
                        )
                        for i in range(96)
                    )
                ),
                timeout=15.0,
            )
            await service.close()
            return responses

        responses = self._run(burst())
        ok = [r for r in responses if r["status"] == "ok"]
        overloaded = [r for r in responses if r["status"] == "overloaded"]
        assert len(ok) + len(overloaded) == 96
        assert overloaded, "a 12x queue_limit burst must shed"
        assert service.metrics.shed_total == len(overloaded)
        # Every response carries its request id back, shed or served.
        assert {r["id"] for r in responses} == set(range(96))


class TestStatsAndDrain:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_stats_op_shape(self):
        service = SelectionService(seed=2)

        async def flow():
            reg = await service.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0]}
            )
            await service.handle_request({"op": "draw", "wheel": reg["wheel"], "n": 4})
            stats = (await service.handle_request({"op": "stats"}))["stats"]
            await service.close()
            return stats

        stats = self._run(flow())
        assert stats["workers"] == 1 and stats["routing_max_share"] == 1.0
        assert stats["routed"] == {"0": 1}
        assert len(stats["shards"]) == 1
        assert {"shard", "queued", "registry"} <= set(stats["shards"][0])

    def test_drain_refuses_new_work_with_typed_status(self):
        service = SelectionService(seed=0)

        async def flow():
            reg = await service.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0]}
            )
            await service.drain()
            assert service.draining
            refused = await service.handle_request(
                {"op": "draw", "wheel": reg["wheel"], "n": 1, "id": 4}
            )
            # Introspection ops still answer while draining.
            ping = await service.handle_request({"op": "ping"})
            await service.close()
            return refused, ping

        refused, ping = self._run(flow())
        assert refused["status"] == "draining"
        assert refused["error"] == "ServiceDrainingError"
        assert refused["id"] == 4
        assert ping["status"] == "ok"
        assert service.metrics.draining_total == 1


class TestTCP:
    def test_tcp_round_trip_and_bad_line(self):
        async def flow():
            service = SelectionService(seed=1)
            server = await start_tcp_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "register", "fitness": [1, 2, 3], "id": 1}\n')
            writer.write(b"garbage\n")
            await writer.drain()
            reg = json.loads(await reader.readline())
            bad = json.loads(await reader.readline())
            assert reg["status"] == "ok"
            assert bad["status"] == "error" and bad["error"] == "ProtocolError"
            writer.write(
                json.dumps(
                    {"op": "draw", "wheel": reg["wheel"], "n": 5, "id": 2}
                ).encode()
                + b"\n"
            )
            await writer.drain()
            draw = json.loads(await reader.readline())
            assert draw["status"] == "ok" and len(draw["draws"]) == 5
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.close()

        asyncio.run(asyncio.wait_for(flow(), 30.0))


class TestBinaryTCP:
    """The framed hot path over a real socket, including negotiation."""

    async def _request(self, reader, writer, request):
        from repro.service import frames

        writer.write(frames.request_to_frame(request))
        await writer.drain()
        frame = await frames.read_frame(reader, max_body_bytes=16 << 20)
        assert frame is not None
        return frames.frame_to_response(*frame)

    def test_framed_round_trip_and_hello(self):
        from repro.service import frames

        async def flow():
            service = SelectionService(seed=1)
            server = await start_tcp_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            # HELLO negotiation pins versions and features.
            writer.write(frames.hello_frame(PROTOCOL_VERSION, 0))
            await writer.drain()
            hello = frames.frame_to_response(
                *(await frames.read_frame(reader, max_body_bytes=1 << 20))
            )
            assert hello["protocol"] == PROTOCOL_VERSION
            assert hello["frames"] == frames.FRAMES_VERSION
            assert "draws-ndarray" in hello["features"]

            reg = await self._request(
                reader, writer,
                {"op": "register", "fitness": np.arange(1.0, 9.0), "id": 1},
            )
            assert reg["status"] == "ok" and reg["wheel"].startswith("w1:")
            draw = await self._request(
                reader, writer,
                {"op": "draw", "wheel": reg["wheel"], "n": 16, "seed": 3, "id": 2},
            )
            assert draw["status"] == "ok" and draw["id"] == 2
            draws = np.asarray(draw["draws"])
            assert draws.shape == (16,) and draws.dtype == np.dtype("<i8")
            assert ((draws >= 0) & (draws < 8)).all()

            ping = await self._request(reader, writer, {"op": "ping", "id": 3})
            assert ping["protocol"] == PROTOCOL_VERSION

            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.close()
            return draws

        draws = asyncio.run(asyncio.wait_for(flow(), 30.0))
        # The framed path returns the same draws as the JSON path: both
        # decode to the scheduler's substream for (seed=1, wheel, 3).
        service = SelectionService(seed=1)

        async def json_flow():
            reg = await service.handle_request(
                {"op": "register", "fitness": np.arange(1.0, 9.0)}
            )
            resp = await service.handle_request(
                {"op": "draw", "wheel": reg["wheel"], "n": 16, "seed": 3}
            )
            await service.close()
            return np.asarray(resp["draws"])

        np.testing.assert_array_equal(draws, asyncio.run(json_flow()))

    def test_mixed_protocol_connections_coexist(self):
        """One server, two live connections: one framed, one JSON-lines."""
        from repro.service import frames

        async def flow():
            service = SelectionService(seed=0)
            server = await start_tcp_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            jr, jw = await asyncio.open_connection("127.0.0.1", port)
            fr, fw = await asyncio.open_connection("127.0.0.1", port)
            jw.write(b'{"op": "register", "fitness": [1, 2, 3], "id": 1}\n')
            await jw.drain()
            reg = json.loads(await jr.readline())
            assert reg["status"] == "ok"
            framed = await self._request(
                fr, fw, {"op": "draw", "wheel": reg["wheel"], "n": 4, "id": 2}
            )
            assert framed["status"] == "ok"
            jw.write(
                json.dumps({"op": "draw", "wheel": reg["wheel"], "n": 4}).encode()
                + b"\n"
            )
            await jw.drain()
            assert json.loads(await jr.readline())["status"] == "ok"
            for w in (jw, fw):
                w.close()
                await w.wait_closed()
            server.close()
            await server.wait_closed()
            await service.close()

        asyncio.run(asyncio.wait_for(flow(), 30.0))

    def test_malformed_body_answered_connection_survives(self):
        from repro.service import frames

        async def flow():
            service = SelectionService(seed=0)
            server = await start_tcp_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            # A DRAW frame whose body is garbage of the declared length.
            writer.write(frames.encode_frame(frames.FT_DRAW, b"\xff" * 7, 1))
            await writer.drain()
            bad = frames.frame_to_response(
                *(await frames.read_frame(reader, max_body_bytes=1 << 20))
            )
            assert bad["status"] == "error" and bad["error"] == "ProtocolError"
            # Framing stayed synchronized: the next request succeeds.
            ping = await self._request(reader, writer, {"op": "ping", "id": 2})
            assert ping["status"] == "ok"
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.close()

        asyncio.run(asyncio.wait_for(flow(), 30.0))

"""Async selection service: registry + micro-batching scheduler + wire.

:class:`SelectionService` is the transport-neutral core — it accepts
decoded request dicts and returns response dicts, never raising (every
failure becomes a structured error response).  ``serve_tcp`` and
``serve_stdio`` wrap it in the two transports ``python -m repro serve``
offers; a :class:`~repro.service.cluster.ClusterService` exposes the
same surface, so every transport serves a sharded pool unchanged.

Each TCP connection picks its wire format by its very first byte: the
binary-frame magic ``0xA5`` selects length-prefixed frames
(:mod:`repro.service.frames` — the hot path, with zero-copy ndarray
draw payloads), anything else falls back to JSON-lines — so old clients
and ad-hoc ``echo | nc`` sessions keep working with no negotiation
round-trip.  A framed client may open with a HELLO frame to pin
versions and features explicitly.

The overload story, end to end: the scheduler's admission control bounds
queued draws (``queue_limit``); past it, requests are *refused
immediately* with ``status: "overloaded"`` rather than queued — the
service degrades by answering fast with "try later", never by hanging.
Shutdown is the same philosophy: :meth:`SelectionService.drain` lets
every accepted request finish while new ones get a typed ``draining``
refusal instead of a dropped connection.
"""

from __future__ import annotations

import asyncio
import collections
import sys
from typing import Any, Awaitable, Callable, Dict, Optional

from repro.errors import ProtocolError, ServiceDrainingError
from repro.service import frames as frames_mod
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_request,
    encode_response,
    error_response,
    ok_response,
)
from repro.service.registry import DEFAULT_MAX_WHEELS, WheelRegistry
from repro.service.scheduler import BatchConfig, MicroBatchScheduler

__all__ = [
    "SelectionService",
    "answer_frame",
    "start_tcp_server",
    "serve_tcp",
    "serve_stdio",
]


async def answer_frame(
    handle: Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]],
    ftype: int,
    body: bytes,
    request_id: Optional[int],
) -> bytes:
    """Decode one request frame, answer it with ``handle``, encode the reply.

    ``handle`` is a service's request handler.  Never raises: a
    malformed body is answered with an ERROR frame.
    """
    try:
        request = frames_mod.frame_to_request(ftype, body, request_id)
    except ProtocolError as exc:
        return frames_mod.response_to_frame(error_response(exc, request_id))
    return frames_mod.response_to_frame(await handle(request))


class SelectionService:
    """The transport-neutral request handler.

    Parameters
    ----------
    seed:
        Service master seed (fixes every auto-assigned substream).
    config:
        Scheduler knobs; defaults are the ``bench serve`` tuning.
    max_wheels / policy:
        Registry capacity and default kernel policy.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        config: Optional[BatchConfig] = None,
        max_wheels: int = DEFAULT_MAX_WHEELS,
        policy: str = "auto",
    ) -> None:
        self.metrics = ServiceMetrics()
        self.registry = WheelRegistry(max_wheels=max_wheels, policy=policy)
        self.scheduler = MicroBatchScheduler(
            self.registry, config, seed=seed, metrics=self.metrics
        )
        self._draining = False

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    async def handle_line(self, line: str) -> Dict[str, Any]:
        """Decode, dispatch, and answer one wire line.  Never raises."""
        try:
            request = decode_request(line)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            return error_response(exc)
        return await self.handle_request(request)

    async def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one decoded request dict.  Never raises."""
        request_id = request.get("id")
        try:
            op = request["op"]
            if op == "ping":
                return ok_response(request_id, protocol=PROTOCOL_VERSION, workers=1)
            if op == "metrics":
                snapshot = self.metrics.snapshot(
                    extra={"registry": self.registry.stats()}
                )
                return ok_response(request_id, metrics=snapshot)
            if op == "stats":
                return ok_response(request_id, stats=self.stats())
            if self._draining:
                self.metrics.drained()
                raise ServiceDrainingError(
                    "service is draining; retry against another replica"
                )
            if op == "register":
                wheel_id, cached = self.registry.register(
                    request["fitness"],
                    method=request.get("method", "log_bidding"),
                    policy=request.get("policy"),
                    backend=request.get("backend"),
                )
                return ok_response(request_id, wheel=wheel_id, cached=cached)
            if op == "update":
                wheel_id, info = self.scheduler.update(
                    request["wheel"], request["indices"], request["values"]
                )
                return ok_response(request_id, wheel=wheel_id, **info)
            # op == "draw" (decode_request admits nothing else)
            draws = await self.scheduler.draw(
                request["wheel"],
                request.get("n", 1),
                seed=request.get("seed"),
                deadline_us=request.get("deadline_us"),
            )
            return ok_response(request_id, draws=draws)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            return error_response(exc, request_id)

    async def handle_frame(
        self, ftype: int, body: bytes, request_id: Optional[int]
    ) -> bytes:
        """Answer one request frame (anything but HELLO) with its reply frame.

        Never raises: a malformed body is answered with an ERROR frame.
        """
        return await answer_frame(self.handle_request, ftype, body, request_id)

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` RPC in single-process form.

        Shaped like the cluster's answer (a one-element ``shards`` list)
        so dashboards and benches read both identically.
        """
        return {
            "workers": 1,
            "draining": self._draining,
            "routed": {"0": self.metrics.requests_total},
            "routing_max_share": 1.0,
            "frontend": self.metrics.snapshot(),
            "shards": [
                self.metrics.snapshot(
                    extra={
                        "shard": 0,
                        "queued": self.scheduler.queued,
                        "registry": self.registry.stats(),
                    }
                )
            ],
        }

    async def drain(self) -> None:
        """Finish every accepted request; refuse new ones as ``draining``."""
        self._draining = True
        await self.scheduler.drain()

    async def close(self) -> None:
        """Flush pending batches and refuse further work."""
        self._draining = True
        await self.scheduler.close()


async def _serve_json_connection(
    service, reader, writer, max_line_bytes: int, first_byte: bytes
) -> None:
    """JSON-lines until EOF; a bad line is answered, not fatal."""
    pending = first_byte
    while True:
        try:
            line = pending + await reader.readline()
            pending = b""
        except (asyncio.LimitOverrunError, ValueError):
            writer.write(
                encode_response(
                    error_response(
                        ValueError(f"request line exceeds {max_line_bytes} bytes")
                    )
                )
            )
            await writer.drain()
            break
        if not line:
            break
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        response = await service.handle_line(text)
        writer.write(encode_response(response))
        await writer.drain()


#: Requests one framed connection may have in flight; past it the
#: server stops reading that connection's frames until replies go out.
MAX_IN_FLIGHT = 64


async def _serve_framed_connection(
    service, reader, writer, max_frame_bytes: int, first_byte: bytes
) -> None:
    """Binary frames until EOF, pipelined.

    The connection keeps reading frames while earlier ones are served,
    up to :data:`MAX_IN_FLIGHT` at a time.  Each request starts as a
    ``service.handle_frame`` task in arrival order — so admission,
    auto-seeds and an UPDATE's registry write happen in the order the
    client sent them — and replies are written in request order: every
    reply ready in one event-loop pass goes out in one ``writer.write``
    on the next.  A cluster's ``handle_frame`` forwards DRAW and UPDATE
    frames to their shard as they are and hands back the shard's reply
    frame.

    Malformed frame *bodies* are answered with ERROR frames and the
    connection continues (framing stays synchronized because the body
    length was already consumed); an unparseable *header* is fatal for
    the connection since resynchronization is impossible: the requests
    before it are answered, then the ERROR, then the connection closes.

    A client HELLO that carries an explicit ``features`` list *pins* the
    connection: feature-gated frame types (``UPDATE`` requires
    ``"update"``) sent without their token are answered with an ERROR
    frame — the negotiation contract that lets old clients and new
    servers coexist.  Connections that skip HELLO are unpinned and may
    send anything.
    """
    loop = asyncio.get_running_loop()
    # One ``[frame, task]`` cell per request in request order; a cell's
    # frame is None until its response is encoded.
    replies: "collections.deque[list]" = collections.deque()
    written: Optional["asyncio.Future"] = None
    flushing: Optional[asyncio.Handle] = None

    def flush() -> None:
        """Write every encoded reply at the head of the line, at once."""
        nonlocal flushing
        flushing = None
        ready = []
        while replies and replies[0][0] is not None:
            ready.append(replies.popleft()[0])
        if ready and not writer.is_closing():  # else the client is gone
            writer.write(b"".join(ready))
        if written is not None and not written.done():
            written.set_result(None)

    def encoded() -> None:
        """A reply is ready: write it with the rest of this loop pass's."""
        nonlocal flushing
        if flushing is None:
            flushing = loop.call_soon(flush)

    def reply(frame: bytes) -> None:
        replies.append([frame, None])
        encoded()

    async def serve(cell: list, ftype: int, body: bytes, request_id) -> None:
        cell[0] = await service.handle_frame(ftype, body, request_id)
        encoded()

    async def settle(limit: int) -> None:
        """Wait until at most ``limit`` replies are unwritten."""
        nonlocal written
        while len(replies) > limit:
            written = loop.create_future()
            await written

    pinned_features = None
    while True:
        await settle(MAX_IN_FLIGHT - 1)
        await writer.drain()
        try:
            frame = await frames_mod.read_frame(
                reader, max_body_bytes=max_frame_bytes, first_byte=first_byte
            )
        except ProtocolError as exc:
            reply(frames_mod.response_to_frame(error_response(exc)))
            break
        first_byte = b""
        if frame is None:
            break
        ftype, body, request_id = frame
        try:
            if ftype == frames_mod.FT_HELLO:
                features = frames_mod._parse_kvmap(body).get("features") if body else None
                if isinstance(features, list):
                    pinned_features = {f for f in features if isinstance(f, str)}
                reply(frames_mod.hello_frame(PROTOCOL_VERSION, request_id))
                continue
            needed = frames_mod.required_feature(ftype)
            if (
                needed is not None
                and pinned_features is not None
                and needed not in pinned_features
            ):
                raise ProtocolError(
                    f"frame type {ftype:#04x} requires feature {needed!r}, "
                    f"absent from this connection's HELLO"
                )
        except ProtocolError as exc:
            reply(frames_mod.response_to_frame(error_response(exc, request_id)))
            continue
        cell = [None, None]
        replies.append(cell)
        cell[1] = loop.create_task(serve(cell, ftype, body, request_id))
    await settle(0)


async def _handle_connection(
    service,
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
    max_line_bytes: int,
) -> None:
    """Sniff the wire format from the first byte, then serve until EOF."""
    try:
        first = await reader.read(1)
        if first:
            if first[0] == frames_mod.MAGIC:
                await _serve_framed_connection(
                    service, reader, writer, max_line_bytes, first
                )
            else:
                await _serve_json_connection(
                    service, reader, writer, max_line_bytes, first
                )
    except (
        ConnectionResetError,
        BrokenPipeError,
        asyncio.IncompleteReadError,
    ):  # pragma: no cover - client died
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def start_tcp_server(
    service,
    host: str = "127.0.0.1",
    port: int = 7077,
    *,
    max_line_bytes: int = 16 << 20,
) -> "asyncio.AbstractServer":
    """Bind the dual-protocol service and return the listening server.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.sockets[0].getsockname()``) — how the in-process tests run
    without fixed-port collisions.  The caller owns the server's
    lifecycle; :func:`serve_tcp` wraps this with serve-forever semantics.
    ``service`` may be a :class:`SelectionService` or a
    :class:`~repro.service.cluster.ClusterService`.
    """
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w, max_line_bytes),
        host,
        port,
        limit=max_line_bytes,
    )


async def serve_tcp(
    service,
    host: str = "127.0.0.1",
    port: int = 7077,
    *,
    max_line_bytes: int = 16 << 20,
    on_ready=None,
) -> None:
    """Run the service over TCP until cancelled.

    ``on_ready(server)`` is invoked after the socket is bound, so
    callers can announce the listening address only once it is true.
    """
    server = await start_tcp_server(
        service, host, port, max_line_bytes=max_line_bytes
    )
    if on_ready is not None:
        on_ready(server)
    async with server:
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            await service.close()
            raise


async def serve_stdio(service) -> None:
    """Run the JSON-lines service over stdin/stdout until EOF.

    Useful for subprocess embedding and for piping one-off requests::

        echo '{"op": "ping"}' | python -m repro serve --stdio

    stdio mode stays JSON-lines by design — it is the scripting
    interface; binary frames are negotiated on TCP connections only.
    """
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    out = sys.stdout
    while True:
        line = await reader.readline()
        if not line:
            break
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        response = await service.handle_line(text)
        out.write(encode_response(response).decode("utf-8"))
        out.flush()
    await service.close()

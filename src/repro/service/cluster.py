"""Sharded multi-core serving cluster: one front end, N selection services.

One asyncio front end, N worker processes.  Each worker runs a
:class:`~repro.service.server.SelectionService` (its own registry and
micro-batching scheduler) behind a blocking socket loop, so draws for a
wheel batch densely on the core that owns it.  The front end only
routes, stamps auto-seeds, sheds and correlates: a framed client's DRAW
or UPDATE crosses to the owning shard as a frame and comes back as the
shard's reply frame; every other request crosses as a pickled dict.
Either way a cluster answers every request — errors included — exactly
as one process does.

The three structural pieces:

* **Consistent-hash routing** (:class:`HashRing`): every ``wheel_id``
  maps to exactly one shard, so a wheel compiles on one worker and all
  its concurrent draws coalesce there instead of diluting across the
  pool.  That shard's registry is the only place the wheel is ever
  compiled, and it rebuilds an evicted wheel by compiling it again.
  Virtual nodes keep the assignment balanced, and changing the worker
  count only remaps the keys the ring says must move.
* **One batch pipeline per shard**: a ``socket.socketpair`` carrying
  messages of a length, a kind byte (pickled dict or client frame) and
  a u64 front-end tag.  The front end queues each shard's messages and
  writes them once per event-loop iteration, splits the replies out of
  one receive buffer and resolves each request's future by tag.  The
  shard blocks on ``recv``, answers every complete message of the read
  together — each a task on its event loop, so the read's draws
  coalesce per wheel in its scheduler — and writes all the replies with
  one ``sendall``.  EOF on a shard's
  channel is what marks the shard lost; a reply cut short by it never
  reaches a client.
* **Determinism per shard**: a request's draws are the pure function
  ``request_stream(service_seed, wheel_key, request_seed)`` of data that
  never depends on which worker executes or how requests coalesce — so
  a 1-worker and an 8-worker cluster return *byte-identical* responses
  for the same ``(wheel_id, request seed)``.  ``bench serve`` records
  this as the per-shard determinism certificate.

Graceful drain: :meth:`ClusterService.drain` flips the service into
``draining`` (new frames get the typed :class:`ServiceDrainingError`
response), waits for every in-flight request to complete, then flushes
and stops each worker — no accepted request is ever lost.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import hashlib
import multiprocessing as mp
import pickle
import socket
import struct
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceDrainingError, ServiceError, ServiceOverloadedError
from repro.service import frames as frames_mod
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import PROTOCOL_VERSION, error_response, ok_response
from repro.service.registry import DEFAULT_MAX_WHEELS, base_id, wheel_digest, wheel_tokens
from repro.service.scheduler import BatchConfig, check_draw_size
from repro.service.server import SelectionService, answer_frame

__all__ = ["HashRing", "ClusterService", "DEFAULT_VNODES"]

#: Virtual nodes per shard; 64 keeps the max/mean shard load within a
#: few percent for the wheel-count scales the registry holds.
DEFAULT_VNODES = 64


def _hash_point(token: str) -> int:
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping wheel ids to shard indices.

    The classic guarantee: growing the pool from N to N+1 workers moves
    onto the new shard only the keys whose ring arc it takes over —
    every other wheel keeps its owner (and its warm compiled artifact).
    """

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.shards = int(shards)
        self.vnodes = int(vnodes)
        points = sorted(
            (_hash_point(f"shard-{s}/vnode-{v}"), s)
            for s in range(shards)
            for v in range(vnodes)
        )
        self._keys = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def lookup(self, wheel_id: str) -> int:
        """The shard owning ``wheel_id`` (stable across processes/runs)."""
        idx = bisect.bisect_right(self._keys, _hash_point(wheel_id))
        return self._owners[idx % len(self._owners)]


# ----------------------------------------------------------------------
# Shard channel
# ----------------------------------------------------------------------

# A message is a u32 body length, a kind byte and a u64 front-end tag,
# then the body.
_HEAD = struct.Struct("!IBQ")
#: A pickled request or response dict; a pickled ``None`` asks a shard
#: to stop.  Pickle, not the client frame codec: dict requests must
#: cross with everything the dict API accepts (seeds past 2**63, ids
#: that are not u64, ``n = 0``) so that a shard answers them as a single
#: process would.
_PICKLED = 0
#: A framed client's DRAW or UPDATE frame, answered by its reply frame.
_FRAME = 1
#: Bytes a shard asks of one ``recv``.
_RECV_BYTES = 1 << 18


def _message(kind: int, tag: int, body: bytes) -> bytes:
    return _HEAD.pack(len(body), kind, tag) + body


def _pickled(payload: Optional[Dict[str, Any]]) -> bytes:
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def _split(buf: bytearray) -> List[Tuple[int, int, bytes]]:
    """Cut every complete ``(kind, tag, body)`` off the front of ``buf``.

    A trailing partial message stays in ``buf`` for the next read.
    """
    out = []
    offset, end, head = 0, len(buf), _HEAD.size
    while end - offset >= head:
        size, kind, tag = _HEAD.unpack_from(buf, offset)
        stop = offset + head + size
        if stop > end:
            break
        out.append((kind, tag, bytes(buf[offset + head : stop])))
        offset = stop
    del buf[:offset]
    return out


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_main(sock: socket.socket, inherited: List[socket.socket], *args: Any) -> None:
    """Entry point of one shard process (must stay importable for spawn).

    ``inherited`` are the front end's ends of this and every earlier
    shard's socketpair, which a forked child holds copies of: closing
    them lets the shard see EOF, and exit, when the front end dies.  A
    spawned child inherits none and gets an empty list.  ``args`` are
    :func:`_worker_loop`'s after the socket.
    """
    for stale in inherited:
        stale.close()
    try:
        _worker_loop(sock, *args)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        sock.close()


def _worker_loop(
    sock: socket.socket,
    seed: int,
    config: Optional[BatchConfig],
    max_wheels: int,
    policy: str,
) -> None:
    """Answer the front end's messages through the shard's own :class:`SelectionService`.

    The shard blocks on ``recv`` and answers every complete message of
    the read together: each becomes a request task on the shard's event
    loop, in arrival order, and the replies are collected as the tasks
    finish — so the draws of one read coalesce per wheel in the
    micro-batcher, as concurrent draws do in a single process — then
    written with one ``sendall``.  A frame message is answered with the
    reply frame a single process writes, a pickled dict with a pickled
    dict.  A pickled ``None`` asks the shard to stop: the messages
    before it are answered, then it is acknowledged — the parent holds
    its drain barrier on that ack, which is what makes shutdown
    lossless.  EOF means the front end is gone.
    """
    service = SelectionService(seed=seed, config=config, max_wheels=max_wheels, policy=policy)
    asyncio.run(_serve_reads(sock, service))


async def _serve_reads(sock: socket.socket, service: SelectionService) -> None:
    inbox = bytearray()
    while True:
        try:
            # Blocks the loop on purpose: every task of the last read
            # has been answered, so nothing else is waiting to run.
            data = sock.recv(_RECV_BYTES)
        except OSError:
            return
        if not data:
            return
        inbox += data
        messages = _split(inbox)
        if not messages:
            continue
        replies, stop = await _answer(service, messages)
        try:
            sock.sendall(replies)
        except OSError:
            return
        if stop:
            return


async def _answer(service: SelectionService, messages) -> Tuple[bytes, bool]:
    """The replies to ``messages``, concatenated, and whether to stop."""
    tasks = []
    stop = None
    for kind, tag, body in messages:
        if kind == _FRAME:
            ftype, _, request_id = frames_mod.parse_header(body[: frames_mod.HEADER_SIZE])
            reply = service.handle_frame(ftype, body[frames_mod.HEADER_SIZE :], request_id)
        else:
            request = pickle.loads(body)
            if request is None:
                stop = tag
                break
            reply = _pickled_reply(service, request)
        # Tasks start in creation order, so requests are admitted in
        # the order they arrived.
        tasks.append((kind, tag, asyncio.ensure_future(reply)))
    out = bytearray()
    for kind, tag, task in tasks:
        out += _message(kind, tag, await task)
    if stop is not None:
        out += _message(_PICKLED, stop, _pickled(ok_response()))
    return bytes(out), stop is not None


async def _pickled_reply(service: SelectionService, request: Dict[str, Any]) -> bytes:
    return _pickled(await service.handle_request(request))


# ----------------------------------------------------------------------
# Front end
# ----------------------------------------------------------------------


class _Shard(asyncio.Protocol):
    """Parent-side handle on one worker: its socket end, process, the
    messages queued for it and the replies it owes."""

    def __init__(self, index: int, sock: Optional[socket.socket], proc) -> None:
        self.index = index
        self.sock = sock
        self.proc = proc
        self.outstanding: Dict[int, "asyncio.Future"] = {}
        #: Draws sent and not yet answered, bounded by ``queue_limit``.
        self.draws = 0
        self.routed = 0
        self.transport: Optional[asyncio.Transport] = None
        self.lost = False
        self._inbox = bytearray()
        self._outbox: List[bytes] = []

    def lost_error(self) -> ServiceError:
        return ServiceError(f"shard {self.index} exited; its wheels cannot be served")

    def send(self, kind: int, tag: int, body: bytes) -> None:
        """Queue one message; the queue is written once per loop iteration."""
        if not self._outbox:
            asyncio.get_running_loop().call_soon(self._write)
        self._outbox.append(_message(kind, tag, body))

    def _write(self) -> None:
        if not self.lost:
            self.transport.write(b"".join(self._outbox))
        self._outbox.clear()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self._inbox += data
        for kind, tag, body in _split(self._inbox):
            future = self.outstanding.pop(tag, None)
            if future is not None and not future.done():
                future.set_result(pickle.loads(body) if kind == _PICKLED else body)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # EOF: the shard is gone; fail what it still owed.  A partial
        # reply left in the inbox is dropped, never delivered.
        self.lost = True
        self._inbox.clear()
        for future in self.outstanding.values():
            if not future.done():
                future.set_exception(self.lost_error())
        self.outstanding.clear()


class ClusterService:
    """The sharded, multi-process drop-in for :class:`SelectionService`.

    Exposes the same transport-neutral ``handle_request`` and
    ``handle_frame`` surface, so every transport (binary frames,
    JSON-lines TCP, stdio) works over a cluster unchanged.  Every
    request that needs a wheel is forwarded to the owning shard's
    :class:`SelectionService` and its response comes back as that
    service wrote it, so answers — errors included — are the
    single-process ones.  Construct it *before* any event loop is
    running (workers are forked/spawned in ``__init__``); the shard
    channels open on the loop of the first request that reaches a shard.

    A shard answers each socket read as soon as it is read, so its
    scheduler never waits out ``max_delay_us`` for more draws, and its
    ``deadline_us`` clock starts when it reads the request.  The front
    end keeps the ``queue_limit`` bound instead: a draw for a shard that
    already owes that many is shed with an ``overloaded`` response.

    Parameters
    ----------
    workers:
        Shard processes (>= 1).  ``workers=1`` is the degenerate cluster
        the determinism certificate compares larger pools against.
    seed:
        Service master seed, passed verbatim to every shard — the reason
        any pool size answers identically.
    config / max_wheels / policy:
        Per-shard scheduler and registry knobs, as for
        :class:`SelectionService`.
    vnodes:
        Virtual nodes per shard on the routing ring.
    start_method:
        multiprocessing start method (default: ``fork`` when available).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        seed: int = 0,
        config: Optional[BatchConfig] = None,
        max_wheels: int = DEFAULT_MAX_WHEELS,
        policy: str = "auto",
        vnodes: int = DEFAULT_VNODES,
        start_method: Optional[str] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers)
        self.seed = int(seed)
        self.policy = str(policy)
        self.config = config or BatchConfig()
        self.metrics = ServiceMetrics()
        self.ring = HashRing(self.workers, vnodes)
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        ctx = mp.get_context(start_method)
        self._shards: List[_Shard] = []
        self._tag = 0
        self._request_counter = 0
        self._draining = False
        self._closed = False
        self._opened: Optional["asyncio.Task"] = None
        try:
            for index in range(self.workers):
                parent_sock, child_sock = socket.socketpair()
                inherited = [s.sock for s in self._shards] + [parent_sock]
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_sock, inherited if start_method == "fork" else [],
                          self.seed, self.config, max_wheels, self.policy),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                proc.start()
                child_sock.close()
                self._shards.append(_Shard(index, parent_sock, proc))
        except BaseException:
            self._terminate()
            raise

    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """Open every shard's channel on the running loop."""
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            await loop.create_connection(lambda shard=shard: shard, sock=shard.sock)

    async def _call(self, shard: _Shard, kind: int, body: bytes):
        """Send one message to ``shard``; its reply (a dict if pickled)."""
        loop = asyncio.get_running_loop()
        if self._opened is None:
            # Every channel opens once, in one task, before the first
            # send: concurrent first requests all wait on that task.
            self._opened = loop.create_task(self._open())
        elif self._opened.get_loop() is not loop:
            raise ServiceError(
                "ClusterService is bound to the event loop of its first "
                "request; serve it from one loop"
            )
        if not self._opened.done():
            await asyncio.shield(self._opened)
        self._opened.result()
        if shard.lost:
            raise shard.lost_error()
        self._tag += 1
        future = loop.create_future()
        shard.outstanding[self._tag] = future
        shard.send(kind, self._tag, body)
        return await future

    async def _ask(self, shard: _Shard, request: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        return await self._call(shard, _PICKLED, _pickled(request))

    async def _forward(
        self, shard: _Shard, request: Dict[str, Any], framed: bool
    ) -> Dict[str, Any]:
        """``request``'s response from ``shard``, over the envelope ``framed`` picks."""
        if not framed:
            return await self._ask(shard, request)
        reply = await self._call(shard, _FRAME, frames_mod.request_to_frame(request))
        ftype, _, request_id = frames_mod.parse_header(reply[: frames_mod.HEADER_SIZE])
        return frames_mod.frame_to_response(ftype, reply[frames_mod.HEADER_SIZE :], request_id)

    def _route(self, key: str) -> _Shard:
        shard = self._shards[self.ring.lookup(key)]
        shard.routed += 1
        return shard

    def _next_seed(self) -> int:
        # Auto-seeds are assigned centrally (front-end arrival order),
        # never per worker — so the draw stream for a fixed arrival
        # order is independent of the pool size.
        seed = self._request_counter
        self._request_counter += 1
        return seed

    def _refuse_if_draining(self) -> None:
        if self._draining or self._closed:
            self.metrics.drained()
            raise ServiceDrainingError(
                "service is draining; retry against another replica"
            )

    def _shard_for(self, request: Dict[str, Any]) -> _Shard:
        """The shard owning the request's wheel.

        ``register`` routes by the content id the shard's registry will
        derive from the same :func:`wheel_tokens`; ``update`` and
        ``draw`` route by the *root* id, so every version of a wheel
        (its delta chain) lives on the shard that owns the root and an
        UPDATE coalesces with the draws against the id it mints.  A
        request whose key cannot be derived fails alike on every shard;
        shard 0 answers it.
        """
        try:
            if request["op"] == "register":
                policy = request.get("policy")
                method, policy, _ = wheel_tokens(
                    request.get("method", "log_bidding"),
                    self.policy if policy is None else policy,
                    request.get("backend"),
                )
                key = wheel_digest(request["fitness"], method, policy)
            else:
                key = base_id(request["wheel"])
            return self._route(key)
        except (KeyError, TypeError, ValueError, AttributeError):
            shard = self._shards[0]
            shard.routed += 1
            return shard

    # ------------------------------------------------------------------
    # One front-end state and one line decoder for both services.
    draining = SelectionService.draining
    handle_line = SelectionService.handle_line

    async def handle_request(
        self, request: Dict[str, Any], *, framed: bool = False
    ) -> Dict[str, Any]:
        """Serve one decoded request dict.  Never raises.

        ``framed`` says the request came as a client frame and its
        response goes back as one: a draw or update then crosses to its
        shard as a frame and the shard's reply frame is decoded here.
        Otherwise it crosses as a pickled dict, the only envelope that
        carries every dict the service answers (seeds past 2**63, ids
        that are not u64, ``n = 0``).
        """
        request_id = request.get("id")
        try:
            op = request["op"]
            if op == "ping":
                return ok_response(
                    request_id, protocol=PROTOCOL_VERSION, workers=self.workers
                )
            if op == "metrics":
                return ok_response(request_id, metrics=await self._metrics())
            if op == "stats":
                return ok_response(request_id, stats=await self.stats())
            self._refuse_if_draining()
            if op not in ("register", "update"):
                # op == "draw" (decode_request admits nothing else)
                return await self._draw(request, framed)
            start = time.monotonic()
            shard = self._shard_for(request)
            response = await self._forward(shard, request, framed and op == "update")
            if op == "update" and response["status"] == "ok":
                self.metrics.updated(len(request["indices"]), time.monotonic() - start)
            return response
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            return error_response(exc, request_id)

    async def _draw(self, request: Dict[str, Any], framed: bool) -> Dict[str, Any]:
        # A draw takes an auto-seed under the scheduler's rule: once it
        # is well-formed and not shed, whether or not its wheel exists.
        if "wheel" not in request:
            raise KeyError("wheel")
        n = check_draw_size(request.get("n", 1), self.config.max_request_draws)
        shard = self._shard_for(request)
        if shard.draws >= self.config.queue_limit:
            # A shard answers each read at once, so its own scheduler
            # rarely holds a backlog: the bound is kept here instead.
            self.metrics.shed()
            raise ServiceOverloadedError(
                f"queue limit {self.config.queue_limit} reached "
                f"({shard.draws} draws owed by shard {shard.index}); request shed"
            )
        if request.get("seed") is None:
            request = {**request, "seed": self._next_seed()}
        start = time.monotonic()
        self.metrics.enqueued(n)
        shard.draws += 1
        try:
            response = await self._forward(shard, request, framed)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            response = error_response(exc, request.get("id"))
        finally:
            shard.draws -= 1
        self.metrics.dequeued()
        if response["status"] == "ok":
            self.metrics.served(time.monotonic() - start)
        else:
            self.metrics.errored()
        return response

    async def handle_frame(
        self, ftype: int, body: bytes, request_id: Optional[int]
    ) -> bytes:
        """Answer one request frame (anything but HELLO).  Never raises.

        The frame is decoded and served as a ``framed`` request, so a
        DRAW or UPDATE crosses to its shard as a frame.
        """
        handle = functools.partial(self.handle_request, framed=True)
        return await answer_frame(handle, ftype, body, request_id)

    # ------------------------------------------------------------------
    async def _metrics(self) -> Dict[str, Any]:
        shards = await self._shard_stats()
        return self.metrics.snapshot(
            extra={
                "workers": self.workers,
                "routed": {str(s.index): s.routed for s in self._shards},
                "shards": shards,
            }
        )

    async def _shard_stats(self) -> List[Dict[str, Any]]:
        if self._closed:
            return []
        replies = await asyncio.gather(
            *(self._ask(shard, {"op": "stats"}) for shard in self._shards),
            return_exceptions=True,
        )
        # Each shard's service reports itself as the one shard of a pool.
        # A lost shard gets a marker entry; the live ones still report.
        shards = []
        for shard, reply in zip(self._shards, replies):
            if isinstance(reply, ServiceError):
                shards.append({"shard": shard.index, "lost": str(reply)})
            elif isinstance(reply, BaseException):
                raise reply
            else:
                shards.append({**reply["stats"]["shards"][0], "shard": shard.index})
        return shards

    async def stats(self) -> Dict[str, Any]:
        """The ``stats`` RPC: routing table view plus per-shard counters.

        Per shard: queue depth, batch-size distribution, and registry
        hit/miss, eviction and ``compiles`` counters — enough for a
        bench to attribute scaling losses to routing skew vs batching
        dilution.
        """
        shards = await self._shard_stats()
        routed = {str(s.index): s.routed for s in self._shards}
        total_routed = sum(s.routed for s in self._shards) or 1
        max_share = max((s.routed for s in self._shards), default=0) / total_routed
        return {
            "workers": self.workers,
            "draining": self._draining,
            "routed": routed,
            "routing_max_share": max_share,
            "frontend": self.metrics.snapshot(),
            "shards": shards,
        }

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Graceful shutdown: finish everything accepted, refuse the rest."""
        if self._draining:
            return
        self._draining = True
        pending = [f for shard in self._shards for f in shard.outstanding.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for shard in self._shards:
            try:
                await asyncio.wait_for(self._ask(shard, None), timeout=10.0)
            except Exception:  # the shard is lost or stuck; reaped below
                pass
        self._closed = True
        for shard in self._shards:
            shard.proc.join(timeout=5.0)

    async def close(self) -> None:
        """Drain (if not already) and reap the worker processes."""
        if not self._closed:
            await self.drain()
        self._terminate()

    def _terminate(self) -> None:
        self._closed = True
        for shard in self._shards:
            if shard.proc.is_alive():
                shard.proc.terminate()
                shard.proc.join(timeout=2.0)
            if shard.transport is not None:
                shard.transport.close()
            else:
                shard.sock.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterService(workers={self.workers}, seed={self.seed}, "
            f"draining={self._draining})"
        )

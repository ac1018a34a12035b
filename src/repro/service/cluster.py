"""Sharded multi-core serving cluster: one front end, N selection services.

One asyncio front end, N worker processes.  Each worker runs a
:class:`~repro.service.server.SelectionService` (its own registry and
micro-batching scheduler) on its own event loop, so draws for a wheel
batch densely on the core that owns it.  The front end only routes,
stamps auto-seeds and correlates: it forwards each request dict to the
owning shard and returns the shard's response dict, so a cluster answers
every request — errors included — exactly as one process does.

The three structural pieces:

* **Consistent-hash routing** (:class:`HashRing`): every ``wheel_id``
  maps to exactly one shard, so a wheel compiles on one worker and all
  its concurrent draws coalesce there instead of diluting across the
  pool.  That shard's registry is the only place the wheel is ever
  compiled, and it rebuilds an evicted wheel by compiling it again.
  Virtual nodes keep the assignment balanced, and changing the worker
  count only remaps the keys the ring says must move.
* **One event-loop channel per shard**: a ``socket.socketpair`` whose
  ends both run as asyncio streams carrying length-prefixed pickled
  ``(tag, dict)`` messages.  The front end writes a request and awaits
  the future its reader resolves by tag; the shard reads requests and
  starts each as a task, so back-to-back draws coalesce in its
  micro-batcher.  No thread touches either loop, and EOF on a shard's
  stream is what marks the shard lost.
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
import hashlib
import multiprocessing as mp
import pickle
import socket
import struct
import time
from typing import Any, Dict, List, Optional

from repro.errors import ServiceDrainingError, ServiceError
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import PROTOCOL_VERSION, error_response, ok_response
from repro.service.registry import DEFAULT_MAX_WHEELS, base_id, wheel_digest, wheel_tokens
from repro.service.scheduler import BatchConfig
from repro.service.server import SelectionService

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

# A message is a u32 body length, then the pickled ``(tag, dict)``.
# Pickle, not the client frame codec: the channel must carry every
# request the dict API accepts (seeds past 2**63, ids that are not u64,
# ``n = 0``) so that a shard answers it as a single process would.
_LENGTH = struct.Struct("!I")


def _message(tag: int, payload: Optional[Dict[str, Any]]) -> bytes:
    body = pickle.dumps((tag, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return _LENGTH.pack(len(body)) + body


async def _read_message(reader: "asyncio.StreamReader"):
    """The next ``(tag, dict)``; ``IncompleteReadError`` at EOF."""
    (size,) = _LENGTH.unpack(await reader.readexactly(_LENGTH.size))
    return pickle.loads(await reader.readexactly(size))


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
        asyncio.run(_worker_loop(sock, *args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        sock.close()


async def _worker_loop(
    sock: socket.socket,
    seed: int,
    config: Optional[BatchConfig],
    max_wheels: int,
    policy: str,
) -> None:
    """Answer forwarded requests through the shard's own :class:`SelectionService`.

    The stream carries ``(tag, request dict)`` in and ``(tag, response
    dict)`` out; a ``None`` request asks the shard to stop.  Each
    request becomes a task awaiting ``handle_request`` as soon as it is
    read, so draws arriving back-to-back coalesce in the shard's
    micro-batcher exactly as concurrent TCP clients do in a
    single-process service.
    """
    service = SelectionService(seed=seed, config=config, max_wheels=max_wheels, policy=policy)
    reader, writer = await asyncio.open_connection(sock=sock)
    tasks: set = set()

    async def serve_one(tag: int, request: Dict[str, Any]) -> None:
        writer.write(_message(tag, await service.handle_request(request)))

    while True:
        try:
            tag, request = await _read_message(reader)
        except (asyncio.IncompleteReadError, OSError):
            break  # the front end is gone
        if request is None:
            # Flush in-flight micro-batches, let their reply tasks run,
            # then acknowledge — the parent holds the drain barrier on
            # this ack, which is what makes shutdown lossless.
            await service.close()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.write(_message(tag, ok_response()))
            try:
                await writer.drain()
            except OSError:  # pragma: no cover - the front end is gone
                pass
            break
        task = asyncio.create_task(serve_one(tag, request))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    writer.close()


# ----------------------------------------------------------------------
# Front end
# ----------------------------------------------------------------------


class _Shard:
    """Parent-side handle on one worker: stream, process, in-flight map."""

    __slots__ = ("index", "sock", "proc", "outstanding", "routed", "writer", "reader", "lost")

    def __init__(self, index: int, sock: socket.socket, proc) -> None:
        self.index = index
        self.sock = sock
        self.proc = proc
        self.outstanding: Dict[int, "asyncio.Future"] = {}
        self.routed = 0
        self.writer: Optional["asyncio.StreamWriter"] = None
        self.reader: Optional["asyncio.Task"] = None
        self.lost = False

    def lost_error(self) -> ServiceError:
        return ServiceError(f"shard {self.index} exited; its wheels cannot be served")


class ClusterService:
    """The sharded, multi-process drop-in for :class:`SelectionService`.

    Exposes the same transport-neutral ``handle_request`` surface, so
    every transport (binary frames, JSON-lines TCP, stdio) works over a
    cluster unchanged.  Every request that needs a wheel is forwarded to
    the owning shard's :class:`SelectionService` and its response comes
    back as that service wrote it, so answers — errors included — are
    the single-process ones.  Construct it *before* any event loop is
    running (workers are forked/spawned in ``__init__``); the shard
    streams open on the loop of the first request that reaches a shard.

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
        """Open every shard stream and start its reply reader."""
        for shard in self._shards:
            reader, shard.writer = await asyncio.open_connection(sock=shard.sock)
            shard.reader = asyncio.get_running_loop().create_task(
                self._read_replies(shard, reader)
            )

    async def _read_replies(self, shard: _Shard, reader: "asyncio.StreamReader") -> None:
        try:
            while True:
                tag, response = await _read_message(reader)
                future = shard.outstanding.pop(tag, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (asyncio.IncompleteReadError, OSError):
            pass
        # EOF: the shard is gone; fail what it still owed.
        shard.lost = True
        for future in shard.outstanding.values():
            if not future.done():
                future.set_exception(shard.lost_error())
        shard.outstanding.clear()

    async def _call(self, shard: _Shard, request: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        if self._opened is None:
            # Every stream opens once, in one task, before the first
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
        message = _message(self._tag, request)
        future = loop.create_future()
        shard.outstanding[self._tag] = future
        shard.writer.write(message)
        return await future

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
            shard = self._shards[self.ring.lookup(key)]
        except (KeyError, TypeError, ValueError, AttributeError):
            shard = self._shards[0]
        shard.routed += 1
        return shard

    # ------------------------------------------------------------------
    # One front-end state and one line decoder for both services.
    draining = SelectionService.draining
    handle_line = SelectionService.handle_line

    async def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one decoded request dict.  Never raises."""
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
            if self._draining or self._closed:
                self.metrics.drained()
                raise ServiceDrainingError(
                    "service is draining; retry against another replica"
                )
            if op not in ("register", "update"):
                # op == "draw" (decode_request admits nothing else)
                return await self._draw(request)
            start = time.monotonic()
            response = await self._call(self._shard_for(request), request)
            if op == "update" and response["status"] == "ok":
                self.metrics.updated(len(request["indices"]), time.monotonic() - start)
            return response
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            return error_response(exc, request_id)

    async def _draw(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if request.get("seed") is None:
            # Auto-seeds are assigned centrally (front-end arrival
            # order), never per worker — so the draw stream for a fixed
            # arrival order is independent of the pool size.
            request = {**request, "seed": self._request_counter}
            self._request_counter += 1
        shard = self._shard_for(request)
        start = time.monotonic()
        self.metrics.enqueued(int(request.get("n", 1)))
        try:
            response = await self._call(shard, request)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            response = error_response(exc, request.get("id"))
        self.metrics.dequeued()
        if response["status"] == "ok":
            self.metrics.served(time.monotonic() - start)
        else:
            self.metrics.errored()
        return response

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
            *(self._call(shard, {"op": "stats"}) for shard in self._shards),
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
                await asyncio.wait_for(self._call(shard, None), timeout=10.0)
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
            if shard.writer is not None:
                shard.writer.close()
            else:
                shard.sock.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterService(workers={self.workers}, seed={self.seed}, "
            f"draining={self._draining})"
        )

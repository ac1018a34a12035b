"""Sharded multi-core serving cluster: process-pool kernel executors.

One asyncio front end, N worker processes.  Each worker runs the PR 5
kernel executor — a private :class:`~repro.service.registry.WheelRegistry`
plus :class:`~repro.service.scheduler.MicroBatchScheduler` on its own
event loop — so draws for a wheel batch densely on the core that owns
it while the front end only routes, frames, and correlates.

The three structural pieces:

* **Consistent-hash routing** (:class:`HashRing`): every ``wheel_id``
  maps to exactly one shard, so a wheel compiles on one worker and all
  its concurrent draws coalesce there instead of diluting across the
  pool.  Virtual nodes keep the assignment balanced, and changing the
  worker count only remaps the keys the ring says must move.
* **Shared compiled-wheel store**
  (:class:`~repro.service.shm.SharedWheelStore`): workers dedupe
  compilation through a write-once blob store of
  ``CompiledWheel.to_bytes`` exports living in shared memory.
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
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ServiceDrainingError, ServiceError
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    STRUCTURED_ERRORS,
    error_response,
    ok_response,
)
from repro.service.registry import (
    DEFAULT_MAX_WHEELS,
    WheelRegistry,
    base_id,
    wheel_digest,
)
from repro.service.scheduler import BatchConfig, MicroBatchScheduler
from repro.service.shm import SharedWheelStore

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
# Worker process
# ----------------------------------------------------------------------


def _worker_main(
    conn,
    shard_id: int,
    seed: int,
    config: Optional[BatchConfig],
    max_wheels: int,
    policy: str,
    store_path: Optional[str],
) -> None:
    """Entry point of one shard process (must stay importable for spawn)."""
    try:
        asyncio.run(
            _worker_loop(conn, shard_id, seed, config, max_wheels, policy, store_path)
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


async def _worker_loop(
    conn,
    shard_id: int,
    seed: int,
    config: Optional[BatchConfig],
    max_wheels: int,
    policy: str,
    store_path: Optional[str],
) -> None:
    """Receive commands, serve them through the shard's own scheduler.

    Concurrency model: a pump thread blocks on the pipe and hands each
    command to the event loop, where it becomes a task awaiting
    ``scheduler.draw`` — so commands arriving back-to-back coalesce in
    the shard's micro-batcher exactly as concurrent TCP clients do in a
    single-process service.
    """
    store = SharedWheelStore(path=store_path) if store_path else None
    metrics = ServiceMetrics()
    registry = WheelRegistry(max_wheels=max_wheels, policy=policy, store=store)
    scheduler = MicroBatchScheduler(registry, config, seed=seed, metrics=metrics)
    loop = asyncio.get_running_loop()
    inbox: "asyncio.Queue" = asyncio.Queue()

    def pump() -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                msg = None
            try:
                loop.call_soon_threadsafe(inbox.put_nowait, msg)
            except RuntimeError:  # pragma: no cover - loop already gone
                return
            if msg is None or msg[0] == "stop":
                return

    threading.Thread(target=pump, name=f"shard{shard_id}-pump", daemon=True).start()

    tasks: set = set()

    async def serve_one(msg) -> None:
        op, tag = msg[0], msg[1]
        try:
            if op == "draw":
                _, _, wheel_id, n, req_seed, deadline_us = msg
                draws = await scheduler.draw(
                    wheel_id, n, seed=req_seed, deadline_us=deadline_us
                )
                conn.send(("ok", tag, draws))
            elif op == "register":
                _, _, values, method, reg_policy, backend = msg
                wheel_id, cached = registry.register(
                    values, method=method, policy=reg_policy, backend=backend
                )
                conn.send(("ok", tag, {"wheel": wheel_id, "cached": cached}))
            elif op == "update":
                _, _, wheel_id, indices, values = msg
                new_id, info = await scheduler.update(wheel_id, indices, values)
                conn.send(("ok", tag, {"wheel": new_id, **info}))
            elif op == "stats":
                snapshot = metrics.snapshot(
                    extra={
                        "shard": shard_id,
                        "queued": scheduler.queued,
                        "registry": registry.stats(),
                    }
                )
                conn.send(("ok", tag, snapshot))
            else:
                conn.send(("err", tag, "ProtocolError", f"unknown worker op {op!r}"))
        except BaseException as exc:  # noqa: BLE001 - answered, not raised
            conn.send(("err", tag, type(exc).__name__, str(exc)))

    while True:
        msg = await inbox.get()
        if msg is None:
            break
        if msg[0] == "stop":
            # Flush in-flight micro-batches, let their reply tasks run,
            # then acknowledge — the parent holds the drain barrier on
            # this ack, which is what makes shutdown lossless.
            await scheduler.close()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                conn.send(("ok", msg[1], {"shard": shard_id}))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        task = loop.create_task(serve_one(msg))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if store is not None:
        store.close()


# ----------------------------------------------------------------------
# Front end
# ----------------------------------------------------------------------


class _Shard:
    """Parent-side handle on one worker: pipe, process, in-flight map."""

    __slots__ = ("index", "conn", "proc", "outstanding", "routed", "reader")

    def __init__(self, index: int, conn, proc) -> None:
        self.index = index
        self.conn = conn
        self.proc = proc
        self.outstanding: Dict[int, "asyncio.Future"] = {}
        self.routed = 0
        self.reader: Optional[threading.Thread] = None


class ClusterService:
    """The sharded, multi-process drop-in for :class:`SelectionService`.

    Exposes the same transport-neutral ``handle_request`` surface, so
    every transport (binary frames, JSON-lines TCP, stdio) works over a
    cluster unchanged.  Construct it *before* any event loop is running
    (workers are forked/spawned in ``__init__``); the reader threads
    attach lazily to the loop of the first served request.

    Parameters
    ----------
    workers:
        Shard processes (>= 1).  ``workers=1`` is the degenerate cluster
        the determinism certificate compares larger pools against.
    seed:
        Service master seed, passed verbatim to every shard — the reason
        any pool size answers identically.
    config / max_wheels / policy:
        Per-shard scheduler and registry knobs (as in PR 5).
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
        self.store = SharedWheelStore()
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
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        try:
            for index in range(self.workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        index,
                        self.seed,
                        self.config,
                        max_wheels,
                        self.policy,
                        self.store.path,
                    ),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._shards.append(_Shard(index, parent_conn, proc))
        except BaseException:
            self._terminate()
            raise

    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        """Attach reader threads to the running loop (idempotent)."""
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise ServiceError(
                "ClusterService is bound to the event loop of its first "
                "request; serve it from one loop"
            )
        for shard in self._shards:
            if shard.reader is None:
                shard.reader = threading.Thread(
                    target=self._read_replies,
                    args=(shard, loop),
                    name=f"shard{shard.index}-replies",
                    daemon=True,
                )
                shard.reader.start()

    def _read_replies(self, shard: _Shard, loop) -> None:
        while True:
            try:
                msg = shard.conn.recv()
            except (EOFError, OSError):
                break
            try:
                loop.call_soon_threadsafe(self._resolve, shard, msg)
            except RuntimeError:  # pragma: no cover - loop closed at exit
                break

    def _resolve(self, shard: _Shard, msg) -> None:
        kind, tag = msg[0], msg[1]
        future = shard.outstanding.pop(tag, None)
        if future is None or future.done():  # pragma: no cover - late reply
            return
        if kind == "ok":
            future.set_result(msg[2])
        else:
            name, message = msg[2], msg[3]
            exc_type = STRUCTURED_ERRORS.get(name, ServiceError)
            future.set_exception(exc_type(message))

    async def _call(self, shard: _Shard, op: str, *payload: Any) -> Any:
        self._ensure_started()
        self._tag += 1
        tag = self._tag
        future = asyncio.get_running_loop().create_future()
        shard.outstanding[tag] = future
        try:
            shard.conn.send((op, tag, *payload))
        except BaseException:
            shard.outstanding.pop(tag, None)
            raise
        return await future

    def _shard_for(self, wheel_id: str) -> _Shard:
        # Route by the *root* id: every version of a wheel (its delta
        # chain) lives on the shard that owns the root, so an UPDATE and
        # the draws against the id it mints coalesce on one worker.
        shard = self._shards[self.ring.lookup(base_id(wheel_id))]
        shard.routed += 1
        return shard

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

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
            if op == "register":
                return await self._register(request, request_id)
            if op == "update":
                return await self._update(request, request_id)
            # op == "draw" (decode_request admits nothing else)
            return await self._draw(request, request_id)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            return error_response(exc, request_id)

    async def handle_line(self, line: str) -> Dict[str, Any]:
        """Decode, dispatch, and answer one JSON wire line.  Never raises."""
        from repro.service.protocol import decode_request

        try:
            request = decode_request(line)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            return error_response(exc)
        return await self.handle_request(request)

    async def _register(self, request: Dict[str, Any], request_id) -> Dict[str, Any]:
        method = request.get("method", "log_bidding")
        policy = request.get("policy") or self.policy
        backend = request.get("backend") or "compiled"
        values = np.ascontiguousarray(
            np.asarray(request["fitness"], dtype=np.float64)
        )
        # The content address is computed front-side purely to *route*;
        # the owning worker re-derives it inside its registry (ids are
        # position-free, so both derivations agree by construction).
        # The acceptance backend pins its method/policy tokens, so the
        # routing digest must mirror the registry's pinning exactly.
        if backend == "stochastic_acceptance" and method != "independent":
            wheel_id = wheel_digest(values, "stochastic_acceptance", "sa")
        else:
            wheel_id = wheel_digest(values, method, policy)
        shard = self._shard_for(wheel_id)
        reply = await self._call(shard, "register", values, method, policy, backend)
        return ok_response(request_id, **reply)

    async def _update(self, request: Dict[str, Any], request_id) -> Dict[str, Any]:
        wheel_id = request["wheel"]
        indices = np.ascontiguousarray(np.asarray(request["indices"], dtype=np.int64))
        values = np.ascontiguousarray(np.asarray(request["values"], dtype=np.float64))
        shard = self._shard_for(wheel_id)
        start = time.monotonic()
        reply = await self._call(shard, "update", wheel_id, indices, values)
        self.metrics.updated(int(indices.size), time.monotonic() - start)
        return ok_response(request_id, **reply)

    async def _draw(self, request: Dict[str, Any], request_id) -> Dict[str, Any]:
        wheel_id = request["wheel"]
        n = int(request.get("n", 1))
        seed = request.get("seed")
        if seed is None:
            # Auto-seeds are assigned centrally (front-end arrival
            # order), never per worker — so the draw stream for a fixed
            # arrival order is independent of the pool size.
            seed = self._request_counter
            self._request_counter += 1
        shard = self._shard_for(wheel_id)
        start = time.monotonic()
        self.metrics.enqueued(n)
        try:
            draws = await self._call(
                shard, "draw", wheel_id, n, int(seed), request.get("deadline_us")
            )
        except Exception:
            self.metrics.dequeued()
            self.metrics.errored()
            raise
        self.metrics.dequeued()
        self.metrics.served(time.monotonic() - start)
        return ok_response(request_id, draws=draws)

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
        return list(
            await asyncio.gather(
                *(self._call(shard, "stats") for shard in self._shards)
            )
        )

    async def stats(self) -> Dict[str, Any]:
        """The ``stats`` RPC: routing table view plus per-shard counters.

        Per shard: queue depth, batch-size distribution, registry
        hit/miss and compile-dedupe (``store_hits`` vs ``compiles``)
        counters — enough for a bench to attribute scaling losses to
        routing skew vs batching dilution.
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
        pending = [
            future
            for shard in self._shards
            for future in shard.outstanding.values()
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for shard in self._shards:
            try:
                await asyncio.wait_for(self._call(shard, "stop"), timeout=10.0)
            except Exception:  # pragma: no cover - worker died mid-drain
                pass
        self._closed = True
        self._join()
        self.store.close()

    async def close(self) -> None:
        """Drain (if not already) and reap the worker processes."""
        if not self._closed:
            await self.drain()
        self._terminate()

    def _join(self, timeout: float = 5.0) -> None:
        for shard in self._shards:
            shard.proc.join(timeout=timeout)

    def _terminate(self) -> None:
        self._closed = True
        for shard in self._shards:
            if shard.proc.is_alive():
                shard.proc.terminate()
                shard.proc.join(timeout=2.0)
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover
                pass
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterService(workers={self.workers}, seed={self.seed}, "
            f"draining={self._draining})"
        )

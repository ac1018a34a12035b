"""Dynamic micro-batching of concurrent draw requests.

Concurrent ``draw(wheel_id, n)`` calls against the same wheel are
coalesced into one :meth:`repro.engine.CompiledWheel.select_segments`
invocation — the inference-server trick applied to roulette wheels.  The
correctness headline is the **coalescing determinism contract**:

    every request draws from its own substream
    (``request_stream(service_seed, wheel_key, request_seed)``), and
    ``select_segments`` consumes those substreams exactly as solo
    ``select_many`` calls would, so a response is bit-identical whether
    the request was served alone, with one neighbour, or in a full
    batch — under any arrival interleaving.

Batching policy (per wheel):

* flush immediately once ``max_batch`` requests are pending;
* otherwise an opportunistic drainer yields to the event loop while new
  requests keep arriving and flushes as soon as arrivals stall for one
  tick — closed-loop clients coalesce fully without ever waiting out a
  timer;
* ``max_delay_us`` bounds the wait regardless, so open-loop trickle
  traffic sees bounded added latency.  It is a fixed deployment
  setting (``python -m repro serve --max-delay-us``).

Overload policy: admission control refuses (never queues) work past
``queue_limit`` by raising :class:`ServiceOverloadedError`; queued
requests whose ``deadline`` passes before their batch runs fail with
:class:`DeadlineExceededError`.  Waiters are always completed — a draw
call can fail but can never hang (the ``TeamTimeoutError`` discipline).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    ServiceDrainingError,
    ServiceOverloadedError,
)
from repro.rng.streams import SplitMixStream, derive_seeds, request_stream
from repro.service.metrics import ServiceMetrics
from repro.service.registry import WheelRegistry, digest_key

__all__ = ["BatchConfig", "MicroBatchScheduler", "NaiveScheduler"]


@dataclass
class BatchConfig:
    """Scheduler knobs (defaults tuned for the ``bench serve`` workload)."""

    #: Requests per wheel that force an immediate flush.
    max_batch: int = 64
    #: Upper bound on coalescing delay for a queued request.
    max_delay_us: float = 200.0
    #: Admission bound on requests queued across all wheels.
    queue_limit: int = 1024
    #: Hard cap on draws in a single request (bounds flush memory).
    max_request_draws: int = 1 << 20

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if not (math.isfinite(self.max_delay_us) and self.max_delay_us >= 0):
            raise ValueError(
                f"max_delay_us must be finite and >= 0, got {self.max_delay_us}"
            )
        if self.queue_limit <= 0:
            raise ValueError(f"queue_limit must be positive, got {self.queue_limit}")
        if self.max_request_draws <= 0:
            raise ValueError(
                f"max_request_draws must be positive, got {self.max_request_draws}"
            )


@dataclass
class _Pending:
    """One queued draw request awaiting its batch."""

    n: int
    seed: int
    future: "asyncio.Future[np.ndarray]"
    enqueued_at: float
    deadline: Optional[float] = None  # absolute monotonic time


@dataclass
class _WheelQueue:
    """Per-wheel pending list plus its drainer task."""

    key: int  # substream key material from the wheel id
    pending: List[_Pending] = field(default_factory=list)
    drainer: Optional["asyncio.Task"] = None


class MicroBatchScheduler:
    """Coalesce concurrent draws per wheel into single kernel passes.

    Parameters
    ----------
    registry:
        The content-addressed wheel cache to draw from.
    config:
        Batching/overload knobs (:class:`BatchConfig`).
    seed:
        Service master seed; a request's substream is the pure function
        ``request_stream(seed, wheel_key, request_seed)`` of it, so two
        services with the same seed answer identically.
    metrics:
        Optional shared :class:`ServiceMetrics`; a private one is
        created otherwise.
    """

    def __init__(
        self,
        registry: WheelRegistry,
        config: Optional[BatchConfig] = None,
        *,
        seed: int = 0,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.registry = registry
        self.config = config or BatchConfig()
        self.seed = int(seed)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._queues: Dict[str, _WheelQueue] = {}
        self._queued_requests = 0
        self._request_counter = 0
        self._closed = False
        self._draining = False

    # ------------------------------------------------------------------
    def next_request_seed(self) -> int:
        """Assign a seed for a request that didn't bring one.

        Monotonic per scheduler and independent of batching decisions,
        so auto-seeded requests keep the determinism contract for a
        fixed arrival order.
        """
        seed = self._request_counter
        self._request_counter += 1
        return seed

    def substream(self, wheel_id: str, request_seed: int):
        """The (replayable) uniform source for one request."""
        return request_stream(self.seed, digest_key(wheel_id), request_seed)

    # ------------------------------------------------------------------
    async def draw(
        self,
        wheel_id: str,
        n: int,
        *,
        seed: Optional[int] = None,
        deadline_us: Optional[float] = None,
    ) -> np.ndarray:
        """Draw ``n`` indices from a registered wheel, coalescing freely.

        Raises
        ------
        ValueError
            ``n`` out of range, or ``seed`` outside ``[0, 2**64)``
            (raised before queueing).
        UnknownWheelError
            Unknown/evicted ``wheel_id`` (raised before queueing).
        ServiceOverloadedError
            Admission control refused the request (queue at bound).
        DeadlineExceededError
            The request was queued but its deadline passed unserved.
        """
        if self._closed:
            raise ServiceOverloadedError("scheduler is closed")
        if self._draining:
            raise ServiceDrainingError(
                "scheduler is draining; in-flight requests are completing "
                "but new draws are refused"
            )
        n = int(n)
        if n <= 0:
            raise ValueError(f"draw size must be positive, got {n}")
        if n > self.config.max_request_draws:
            raise ValueError(
                f"draw size {n} exceeds max_request_draws="
                f"{self.config.max_request_draws}; split the request"
            )
        if seed is not None:
            # Checked here, not at flush: a bad seed must not fail the
            # requests it would have coalesced with.
            seed = int(seed)
            if not 0 <= seed < 1 << 64:
                raise ValueError(f"draw seed must lie in [0, 2**64), got {seed}")
        self.registry.get(wheel_id)  # raise UnknownWheelError pre-admission
        if self._queued_requests >= self.config.queue_limit:
            self.metrics.shed()
            raise ServiceOverloadedError(
                f"queue limit {self.config.queue_limit} reached "
                f"({self._queued_requests} queued); request shed"
            )
        if seed is None:
            seed = self.next_request_seed()
        now = time.monotonic()
        req = _Pending(
            n=n,
            seed=seed,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline=None if deadline_us is None else now + deadline_us * 1e-6,
        )
        queue = self._queues.get(wheel_id)
        if queue is None:
            queue = self._queues[wheel_id] = _WheelQueue(key=digest_key(wheel_id))
        queue.pending.append(req)
        self._queued_requests += 1
        self.metrics.enqueued(n)
        if len(queue.pending) >= self.config.max_batch:
            self._flush(wheel_id, queue)
        elif queue.drainer is None or queue.drainer.done():
            queue.drainer = asyncio.ensure_future(self._drain(wheel_id, queue))
        return await req.future

    def update(self, wheel_id: str, indices, values):
        """Mint a new wheel version from a delta; returns ``(id, info)``.

        Updates never touch the draw queues: the child is a *new* id, so
        requests already queued against the parent keep their substreams
        and batch exactly as before — copy-on-write versioning is what
        makes a mutation safe to run concurrently with draws.
        """
        if self._closed:
            raise ServiceOverloadedError("scheduler is closed")
        if self._draining:
            raise ServiceDrainingError(
                "scheduler is draining; in-flight requests are completing "
                "but new updates are refused"
            )
        start = time.monotonic()
        new_id, info = self.registry.update(wheel_id, indices, values)
        self.metrics.updated(len(indices), time.monotonic() - start)
        return new_id, info

    async def _drain(self, wheel_id: str, queue: _WheelQueue) -> None:
        """Opportunistic flush: wait while arrivals continue, never past
        ``max_delay_us``."""
        deadline = time.monotonic() + self.config.max_delay_us * 1e-6
        seen = len(queue.pending)
        while queue.pending:
            await asyncio.sleep(0)
            arrived = len(queue.pending)
            if arrived == 0:
                return  # a max_batch flush emptied the queue
            if arrived == seen or time.monotonic() >= deadline:
                self._flush(wheel_id, queue)
                return
            seen = arrived

    # ------------------------------------------------------------------
    def _flush(self, wheel_id: str, queue: _WheelQueue) -> None:
        """Serve every pending request for one wheel in a single pass.

        The emptied queue is dropped: the next draw on the wheel starts
        a fresh one (and its drainer), so the scheduler holds no queue
        for a wheel — or a minted version — it is not serving.
        """
        batch, queue.pending = queue.pending, []
        if self._queues.get(wheel_id) is queue:
            del self._queues[wheel_id]
        if not batch:
            return
        self._queued_requests -= len(batch)
        for _ in batch:
            self.metrics.dequeued()
        now = time.monotonic()
        live: List[_Pending] = []
        for req in batch:
            if req.future.cancelled():
                continue
            if req.deadline is not None and now > req.deadline:
                self.metrics.expired()
                req.future.set_exception(
                    DeadlineExceededError(
                        f"request deadline passed after "
                        f"{(now - req.enqueued_at) * 1e6:.0f}us in queue"
                    )
                )
                continue
            live.append(req)
        if not live:
            return
        try:
            wheel = self.registry.get(wheel_id)
            # One vectorized derivation per flush; each element equals
            # request_stream(self.seed, queue.key, req.seed)'s seed.
            seeds = derive_seeds(self.seed, [req.seed for req in live], queue.key)
            segments = [
                (req.n, SplitMixStream(int(s))) for req, s in zip(live, seeds)
            ]
            draws = wheel.select_segments(segments)
        except BaseException as exc:  # noqa: BLE001 - delivered to waiters
            for req in live:
                self.metrics.errored()
                if not req.future.done():
                    req.future.set_exception(exc)
            return
        self.metrics.batch_sizes.observe(len(live))
        done = time.monotonic()
        offset = 0
        for req in live:
            part = draws[offset : offset + req.n].copy()
            offset += req.n
            if not req.future.done():
                self.metrics.served(done - req.enqueued_at)
                req.future.set_result(part)

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Requests currently queued across all wheels."""
        return self._queued_requests

    def _flush_all(self) -> None:
        for wheel_id, queue in list(self._queues.items()):
            if queue.drainer is not None and not queue.drainer.done():
                queue.drainer.cancel()
            self._flush(wheel_id, queue)

    async def drain(self) -> None:
        """Refuse new draws with :class:`ServiceDrainingError`, flush the rest.

        Unlike :meth:`close`, the refusal is the *typed* draining error a
        shutting-down server advertises, and every request accepted
        before the call still completes — the graceful-shutdown half of
        the no-request-lost contract (the test suite drains mid-burst to
        prove it).
        """
        self._draining = True
        self._flush_all()
        await asyncio.sleep(0)

    async def close(self) -> None:
        """Flush every queue, cancel drainers, and refuse further work."""
        self._closed = True
        self._flush_all()
        await asyncio.sleep(0)


class NaiveScheduler:
    """The one-request-one-select baseline (no cache hits, no coalescing).

    Serves each request exactly the way the repo's pre-service API
    would: rebuild a :class:`repro.core.RouletteWheel` (re-validating
    the fitness vector) and run the registry method's ``select_many`` —
    per request.  Substream derivation is shared with
    :class:`MicroBatchScheduler`, so for ``policy="faithful"`` wheels
    the two schedulers return bit-identical draws; only the throughput
    differs.  ``bench serve`` measures this head-to-head.
    """

    def __init__(
        self,
        registry: WheelRegistry,
        *,
        seed: int = 0,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.registry = registry
        self.seed = int(seed)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._request_counter = 0

    async def draw(
        self,
        wheel_id: str,
        n: int,
        *,
        seed: Optional[int] = None,
        deadline_us: Optional[float] = None,
    ) -> np.ndarray:
        """Serve one request with a dedicated validate+select pass."""
        from repro.core.selector import RouletteWheel

        n = int(n)
        if n <= 0:
            raise ValueError(f"draw size must be positive, got {n}")
        if seed is None:
            seed = self._request_counter
            self._request_counter += 1
        entry = self.registry.get(wheel_id)
        start = time.monotonic()
        self.metrics.enqueued(n)
        rng = request_stream(self.seed, digest_key(wheel_id), int(seed))
        wheel = RouletteWheel(np.asarray(entry.fitness.values), method=entry.method)
        draws = wheel.select_many(n, rng=rng)
        self.metrics.dequeued()
        self.metrics.batch_sizes.observe(1)
        self.metrics.served(time.monotonic() - start)
        await asyncio.sleep(0)  # yield like a real server between requests
        return draws

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
* otherwise one scheduler tick (a ``loop.call_soon`` callback, armed
  while any wheel has requests pending) looks at every pending wheel
  once per event-loop pass and flushes each whose arrivals stalled
  since its last look — closed-loop clients coalesce fully without
  ever waiting out a timer, and a lone request is flushed on the first
  pass after it arrived;
* ``max_delay_us`` bounds the wait regardless, so open-loop trickle
  traffic sees bounded added latency.  It is a fixed deployment
  setting (``python -m repro serve --max-delay-us``).

Below :data:`_PY_SEEDS` requests a flush derives its substream seeds on
Python ints, and below ``repro.engine.compiled._PY_UNIFORMS`` uniforms
the kernel builds those on Python ints too: NumPy's fixed per-call cost
dominates small batches.  Both paths give the same bits.

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
from repro.rng.streams import SplitMixStream, derive_seed, derive_seeds, request_stream
from repro.service.metrics import ServiceMetrics
from repro.service.registry import WheelRegistry, digest_key

__all__ = ["BatchConfig", "MicroBatchScheduler", "NaiveScheduler", "check_draw_size"]

#: Requests per flush below which their seeds are derived one by one on
#: Python ints (:func:`derive_seed` from the wheel's prefix) instead of
#: one :func:`derive_seeds` array pass.  On a 2-vCPU x86 host (NumPy
#: 2.4, CPython 3.11) the Python path took ~1.0 us plus ~0.75 us per
#: request and the array pass ~9 us: they cross at about 11 requests.
_PY_SEEDS = 11


@dataclass
class BatchConfig:
    """Scheduler knobs (defaults tuned for the ``bench serve`` workload).

    A wheel's pending requests are flushed at ``max_batch``, on the first
    scheduler tick that finds no new arrival on it since its last look,
    or on the first tick ``max_delay_us`` after its first request.
    """

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


def check_draw_size(n, limit: int) -> int:
    """``n`` as an int, or ``ValueError`` unless ``1 <= n <= limit``.

    The one admission rule for a draw's size, applied by the scheduler
    and, before it stamps an auto-seed, by a cluster's front end.
    """
    n = int(n)
    if n <= 0:
        raise ValueError(f"draw size must be positive, got {n}")
    if n > limit:
        raise ValueError(
            f"draw size {n} exceeds max_request_draws={limit}; split the request"
        )
    return n


@dataclass
class _WheelQueue:
    """One wheel's pending requests, looked at once per scheduler tick."""

    key: int  # substream key material from the wheel id
    wheel: object  # the compiled wheel admission looked up
    deadline: float  # flush by this monotonic time (max_delay_us)
    pending: List[_Pending] = field(default_factory=list)
    seen: int = 1  # pending count at the last look


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
        #: Every wheel with pending requests; the tick is armed iff this
        #: is non-empty.
        self._queues: Dict[str, _WheelQueue] = {}
        self._tick_handle: Optional[asyncio.Handle] = None
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

        An unseeded draw takes the next auto-seed once it is well-formed
        and not shed, before its wheel is looked up — the rule a
        cluster's front end follows too, so both answer a request stream
        alike even after a draw on an unknown wheel.

        Raises
        ------
        ValueError
            ``n`` out of range, or ``seed`` outside ``[0, 2**64)``
            (raised before queueing).
        ServiceOverloadedError
            Admission control refused the request (queue at bound).
        UnknownWheelError
            Unknown ``wheel_id`` (raised before queueing).
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
        n = check_draw_size(n, self.config.max_request_draws)
        if seed is not None:
            # Checked here, not at flush: a bad seed must not fail the
            # requests it would have coalesced with.
            seed = int(seed)
            if not 0 <= seed < 1 << 64:
                raise ValueError(f"draw seed must lie in [0, 2**64), got {seed}")
        if self._queued_requests >= self.config.queue_limit:
            self.metrics.shed()
            raise ServiceOverloadedError(
                f"queue limit {self.config.queue_limit} reached "
                f"({self._queued_requests} queued); request shed"
            )
        if seed is None:
            seed = self.next_request_seed()
        wheel = self.registry.get(wheel_id)  # raise UnknownWheelError pre-admission
        loop = asyncio.get_running_loop()
        now = time.monotonic()
        req = _Pending(
            n=n,
            seed=seed,
            future=loop.create_future(),
            enqueued_at=now,
            deadline=None if deadline_us is None else now + deadline_us * 1e-6,
        )
        queue = self._queues.get(wheel_id)
        if queue is None:
            queue = self._queues[wheel_id] = _WheelQueue(
                digest_key(wheel_id), wheel, now + self.config.max_delay_us * 1e-6
            )
        queue.pending.append(req)
        self._queued_requests += 1
        self.metrics.enqueued(n)
        if len(queue.pending) >= self.config.max_batch:
            self._flush(wheel_id, queue)
        elif self._tick_handle is None:
            self._tick_handle = loop.call_soon(self._tick)
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

    def _tick(self) -> None:
        """Flush every wheel whose arrivals stalled since its last look
        (or that waited ``max_delay_us``); re-arm while any is left."""
        self._tick_handle = None
        now = time.monotonic()
        for wheel_id, queue in list(self._queues.items()):
            arrived = len(queue.pending)
            if arrived == queue.seen or now >= queue.deadline:
                self._flush(wheel_id, queue)
            else:
                queue.seen = arrived
        if self._queues:
            self._tick_handle = asyncio.get_running_loop().call_soon(self._tick)

    # ------------------------------------------------------------------
    def _flush(self, wheel_id: str, queue: _WheelQueue) -> None:
        """Serve every pending request for one wheel in a single pass.

        The emptied queue is dropped: the next draw on the wheel starts
        a fresh one, so the scheduler holds no queue for a wheel — or a
        minted version — it is not serving.
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
            # Each seed equals request_stream(self.seed, queue.key,
            # req.seed)'s: one by one on Python ints for a small batch,
            # in one array pass for a large one.
            if len(live) < _PY_SEEDS:
                prefix = derive_seed(self.seed, queue.key)
                seeds = [derive_seed(prefix, req.seed) for req in live]
            else:
                seeds = derive_seeds(
                    self.seed, [req.seed for req in live], queue.key
                ).tolist()
            draws = queue.wheel.select_segments(
                [(req.n, SplitMixStream(s)) for req, s in zip(live, seeds)]
            )
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
            # A lone request owns the whole array; batched ones get copies
            # so that no reply keeps its neighbours' draws alive.
            part = draws if len(live) == 1 else draws[offset : offset + req.n].copy()
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
        """Flush every pending wheel now and disarm the tick."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        for wheel_id, queue in list(self._queues.items()):
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
        """Flush every queue, disarm the tick, and refuse further work."""
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

"""Service observability: counters, gauges, latency and batch histograms.

Everything here is allocation-light and JSON-able by construction so the
``metrics`` protocol op can snapshot the live service without pausing
it.  The latency histogram is log-spaced (≈11% bucket growth) over
1 µs .. 16 s — the standard trick for computing p50/p99 in O(1) memory
under sustained load instead of retaining per-request samples.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

__all__ = ["LatencyHistogram", "BatchSizeHistogram", "ServiceMetrics"]


class LatencyHistogram:
    """Fixed-bucket log-spaced histogram of durations in seconds.

    Bucket ``i`` covers ``[base * growth**i, base * growth**(i+1))``;
    quantiles are read by bucket interpolation, accurate to one bucket
    width (≈11% relative error — plenty for p50/p99 reporting).
    """

    __slots__ = ("base", "growth", "_counts", "_count", "_sum", "_max")

    #: Number of buckets: 1 µs growing 11%/bucket covers past 16 s.
    BUCKETS = 160

    def __init__(self, base: float = 1e-6, growth: float = 1.11) -> None:
        self.base = base
        self.growth = growth
        self._counts: List[int] = [0] * self.BUCKETS
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        if seconds < 0.0:
            seconds = 0.0
        if seconds <= self.base:
            idx = 0
        else:
            idx = min(
                self.BUCKETS - 1,
                int(math.log(seconds / self.base) / math.log(self.growth)) + 1,
            )
        self._counts[idx] += 1
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return self._count

    def quantile(self, q: float) -> float:
        """Approximate the ``q`` quantile (0 <= q <= 1) in seconds.

        The estimate is a bucket upper edge, clamped into the observed
        range: empty leading buckets are skipped (so ``quantile(0.0)``
        lands on the first bucket that actually holds an observation,
        not on ``base``) and the edge can never exceed the recorded
        maximum (a single 2 µs observation reports p50 == max == 2 µs,
        not its bucket's 2.076 µs upper edge).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        target = q * self._count
        cum = 0
        for idx, c in enumerate(self._counts):
            if c == 0:
                continue
            cum += c
            if cum >= target:
                # Upper edge of the bucket: a conservative estimate,
                # clamped so it stays inside the observed range.
                return min(self.base * self.growth**idx, self._max)
        return self._max

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary (microseconds, the service's natural unit)."""
        mean = self._sum / self._count if self._count else 0.0
        return {
            "count": self._count,
            "mean_us": mean * 1e6,
            "p50_us": self.quantile(0.50) * 1e6,
            "p90_us": self.quantile(0.90) * 1e6,
            "p99_us": self.quantile(0.99) * 1e6,
            "max_us": self._max * 1e6,
        }

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Portable full state (for merging across load-gen processes)."""
        return {
            "base": self.base,
            "growth": self.growth,
            "counts": list(self._counts),
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Merging is exact for every statistic the snapshot reports
        (bucket counts, totals, max) — the property that lets ``--procs``
        client processes each record latencies locally and still produce
        one faithful service-wide distribution.
        """
        if state["base"] != self.base or state["growth"] != self.growth:
            raise ValueError("cannot merge histograms with different bucketing")
        counts = state["counts"]
        if len(counts) != len(self._counts):
            # zip() would silently drop tail buckets and un-balance
            # count vs sum(counts); refuse instead.
            raise ValueError(
                f"cannot merge {len(counts)}-bucket state into "
                f"{len(self._counts)}-bucket histogram"
            )
        for idx, c in enumerate(counts):
            self._counts[idx] += c
        self._count += state["count"]
        self._sum += state["sum"]
        if state["max"] > self._max:
            self._max = state["max"]


class BatchSizeHistogram:
    """Exact distribution of flushed batch sizes (requests per kernel call)."""

    __slots__ = ("_counts", "_batches", "_requests", "_max")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._batches = 0
        self._requests = 0
        self._max = 0

    def observe(self, size: int) -> None:
        """Record one flush of ``size`` coalesced requests."""
        self._counts[size] = self._counts.get(size, 0) + 1
        self._batches += 1
        self._requests += size
        if size > self._max:
            self._max = size

    @property
    def batches(self) -> int:
        """Kernel invocations so far."""
        return self._batches

    @property
    def requests(self) -> int:
        """Requests served across all batches (sum of observed sizes)."""
        return self._requests

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary plus the exact size -> count map."""
        mean = self._requests / self._batches if self._batches else 0.0
        return {
            "batches": self._batches,
            "requests": self._requests,
            "mean_size": mean,
            "max_size": self._max,
            "sizes": {str(k): v for k, v in sorted(self._counts.items())},
        }

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Portable full state (for merging across load-gen processes)."""
        return {
            "counts": {str(k): v for k, v in self._counts.items()},
            "batches": self._batches,
            "requests": self._requests,
            "max": self._max,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Exact for every snapshot field, including size keys only the
        other side observed (the distribution is a sparse map, so there
        is no bucket-shape precondition to check).
        """
        for key, c in state["counts"].items():
            size = int(key)
            self._counts[size] = self._counts.get(size, 0) + c
        self._batches += state["batches"]
        self._requests += state["requests"]
        if state["max"] > self._max:
            self._max = state["max"]


class ServiceMetrics:
    """The selection service's metric set, snapshot as one JSON object.

    Counters cover the request lifecycle (submitted / ok / error / shed /
    expired), gauges track instantaneous queue depth against its bound,
    and the two histograms expose the scheduler's behaviour: response
    latency and how well concurrent requests coalesce.
    """

    __slots__ = (
        "requests_total",
        "draws_total",
        "ok_total",
        "error_total",
        "shed_total",
        "expired_total",
        "draining_total",
        "updates_total",
        "update_indices_total",
        "queue_depth",
        "queue_peak",
        "latency",
        "update_latency",
        "batch_sizes",
    )

    def __init__(self) -> None:
        self.requests_total = 0
        self.draws_total = 0
        self.ok_total = 0
        self.error_total = 0
        self.shed_total = 0
        self.expired_total = 0
        self.draining_total = 0
        self.updates_total = 0
        self.update_indices_total = 0
        self.queue_depth = 0
        self.queue_peak = 0
        self.latency = LatencyHistogram()
        self.update_latency = LatencyHistogram()
        self.batch_sizes = BatchSizeHistogram()

    # ------------------------------------------------------------------
    def enqueued(self, n_draws: int) -> None:
        """A request passed admission control."""
        self.requests_total += 1
        self.queue_depth += 1
        if self.queue_depth > self.queue_peak:
            self.queue_peak = self.queue_depth
        self.draws_total += n_draws

    def dequeued(self) -> None:
        """A request left the queue (served, expired, or failed)."""
        self.queue_depth -= 1

    def served(self, latency_s: float) -> None:
        """A request completed successfully."""
        self.ok_total += 1
        self.latency.observe(latency_s)

    def shed(self) -> None:
        """A request was refused at admission (queue bound reached)."""
        self.shed_total += 1

    def expired(self) -> None:
        """A queued request's deadline passed before its batch ran."""
        self.expired_total += 1

    def drained(self) -> None:
        """A request was refused because the service is draining."""
        self.draining_total += 1

    def errored(self) -> None:
        """A request failed with a structured error."""
        self.error_total += 1

    def updated(self, n_indices: int, latency_s: float) -> None:
        """A delta update minted (or re-hit) a wheel version."""
        self.updates_total += 1
        self.update_indices_total += n_indices
        self.update_latency.observe(latency_s)

    # ------------------------------------------------------------------
    def snapshot(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One JSON-able view of every metric; ``extra`` is merged in."""
        out: Dict[str, Any] = {
            "requests_total": self.requests_total,
            "draws_total": self.draws_total,
            "ok_total": self.ok_total,
            "error_total": self.error_total,
            "shed_total": self.shed_total,
            "expired_total": self.expired_total,
            "draining_total": self.draining_total,
            "updates_total": self.updates_total,
            "update_indices_total": self.update_indices_total,
            "queue_depth": self.queue_depth,
            "queue_peak": self.queue_peak,
            "latency": self.latency.snapshot(),
            "update_latency": self.update_latency.snapshot(),
            "batch_sizes": self.batch_sizes.snapshot(),
        }
        if extra:
            out.update(extra)
        return out

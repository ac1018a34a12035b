"""Shared wall-clock timing helpers for every bench driver.

The bench drivers (`engine/bench.py`, `engine/aco_bench.py`,
`engine/race_bench.py`, `service/bench.py`, `select/bench.py`) share
these idioms, with the estimator choice documented where it is made:

* :func:`timed` — one monotonic measurement of a callable (perf gates
  whose workload is long enough that one shot is representative);
* :func:`best_of` — min over repeats: the standard throughput estimator
  on shared machines, because scheduler preemption only ever *adds*
  time, so the minimum is the closest observation to the true cost;
* :func:`median_of` — lower median of a sample list: robust to a single
  outlier in either direction, used when the quantity compared is a
  *ratio* of two measurements (a min/min ratio would be biased).

Everything uses ``time.perf_counter`` — the monotonic, highest-resolution
clock Python offers — and nothing here imports beyond the stdlib, so the
bench drivers can depend on it without cycles.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

__all__ = ["timed", "best_of", "median_of"]


def timed(fn: Callable[[], Any]) -> float:
    """Seconds one call of ``fn`` takes on the monotonic clock."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_of(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Minimum single-call seconds over ``repeats`` calls of ``fn``.

    Min-of-reps is the standard throughput estimator on shared
    machines: preemption only ever adds time, so the minimum is the
    closest observation to the true cost.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    return min(timed(fn) for _ in range(repeats))


def median_of(samples: Sequence[float]) -> float:
    """Lower median of a non-empty sample list.

    The *lower* median (``sorted(samples)[len // 2]`` for even sizes)
    matches the historical bench drivers bit-for-bit, so rewiring them
    onto this helper changed no recorded number.
    """
    if not samples:
        raise ValueError("median_of needs at least one sample")
    return sorted(samples)[len(samples) // 2]

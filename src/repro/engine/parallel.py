"""Deterministic multi-process selection fan-out.

Shards a draw budget across worker processes, each running a
:class:`repro.engine.compiled.CompiledWheel` on its own provably
independent random stream (the construction of
:mod:`repro.rng.streams`), and reduces the results in worker order.

Determinism contract
--------------------
``(seed, workers)`` fully determines the output: worker ``w`` of ``W``
always receives stream ``w`` of ``stream_seeds(seed, W)`` (or the
engine-aware :func:`repro.rng.streams.spawn_streams` children when a
from-scratch engine is requested) and the shard sizes of
:func:`shard_sizes`, independent of scheduling, pool type, or chunking.
Counts are reduced by integer summation — exact and order-free — so
``parallel_counts`` is byte-identical across runs; ``parallel_select_many``
concatenates shards in worker order, so it is too.

Changing ``workers`` changes *which* streams are consumed (different
draws, same distribution); the total draw count is invariant.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Union

import numpy as np

from repro.core.fitness import FitnessVector, validate_fitness
from repro.core.methods.base import SelectionMethod
from repro.engine.compiled import DEFAULT_CHUNK_BYTES, CompiledWheel
from repro.rng.streams import stream_seeds
from repro.typing import FitnessLike

__all__ = [
    "parallel_counts",
    "parallel_select_many",
    "suggest_workers",
    "shard_sizes",
    "worker_streams",
]

#: Below this many draws per worker, process startup outweighs the work
#: on typical hosts.  Pass a host's measured break-even (pool spawn
#: seconds over per-draw seconds) as ``min_draws_per_worker`` to use it.
MIN_DRAWS_PER_WORKER = 250_000


def suggest_workers(
    size: int,
    *,
    available: Optional[int] = None,
    min_draws_per_worker: int = MIN_DRAWS_PER_WORKER,
) -> int:
    """Pick the worker count for a draw budget.

    One worker per ``min_draws_per_worker`` draws, capped by the CPU count
    (``available`` overrides detection, for tests and schedulers).
    Always at least 1.  The answer is a pure function of the arguments
    and the CPU count: no environment variable or file changes it, so
    ``workers=None`` callers replay bit for bit.
    """
    if available is None:
        available = os.cpu_count() or 1
    if available < 1 or size < 0:
        raise ValueError(f"need available >= 1 and size >= 0, got {available}, {size}")
    return max(1, min(available, size // max(1, min_draws_per_worker)))


def shard_sizes(size: int, workers: int) -> List[int]:
    """Split ``size`` draws into ``workers`` near-equal deterministic shards."""
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    q, r = divmod(size, workers)
    return [q + 1] * r + [q] * (workers - r)


def worker_streams(seed: int, workers: int, engine: Optional[str] = None) -> list:
    """The per-worker uniform sources for ``(seed, workers, engine)``.

    ``engine=None`` (the throughput path) seeds one NumPy generator per
    worker from SplitMix64-derived child seeds; an engine name (e.g.
    ``"philox4x32"``) uses :func:`repro.rng.streams.spawn_streams`'s
    engine-aware construction — disjoint by design, but running the
    pure-Python reference generators.
    """
    if engine is None:
        return [np.random.default_rng(s) for s in stream_seeds(seed, workers)]
    from repro.rng import ENGINES
    from repro.rng.streams import spawn_uniforms

    try:
        cls = ENGINES[engine.lower()]
    except KeyError:
        raise ValueError(f"unknown RNG engine {engine!r}; available: {sorted(ENGINES)}") from None
    return spawn_uniforms(cls, seed, workers)


def _worker_task(payload) -> np.ndarray:
    """Top-level worker body (must be picklable for the process pool)."""
    (values, method, kernel, chunk_bytes, seed, engine, workers, index, shard, mode) = payload
    rng = worker_streams(seed, workers, engine)[index]
    compiled = CompiledWheel(values, method, kernel=kernel, chunk_bytes=chunk_bytes)
    if mode == "counts":
        return compiled.counts(shard, rng=rng)
    return compiled.select_many(shard, rng=rng)


def _fan_out(
    fitness: Union[FitnessLike, FitnessVector],
    size: int,
    mode: str,
    *,
    method: Union[str, SelectionMethod, None],
    seed: int,
    workers: Optional[int],
    kernel: str,
    engine: Optional[str],
    chunk_bytes: int,
) -> List[np.ndarray]:
    values = (
        fitness.values if isinstance(fitness, FitnessVector) else validate_fitness(fitness)
    )
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if workers is None:
        workers = suggest_workers(size)
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    method_name = method.name if isinstance(method, SelectionMethod) else (method or "log_bidding")
    payloads = [
        (values, method_name, kernel, chunk_bytes, seed, engine, workers, w, shard, mode)
        for w, shard in enumerate(shard_sizes(size, workers))
    ]
    if workers == 1:
        return [_worker_task(payloads[0])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker_task, payloads))


def parallel_counts(
    fitness: Union[FitnessLike, FitnessVector],
    size: int,
    *,
    method: Union[str, SelectionMethod, None] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    kernel: str = "auto",
    engine: Optional[str] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """Histogram ``size`` draws across worker processes.

    Byte-identical for the same ``(seed, workers)`` on every run; the
    total (``counts.sum() == size``) is invariant in ``workers``.
    ``workers=None`` consults :func:`suggest_workers`.
    """
    shards = _fan_out(
        fitness, size, "counts",
        method=method, seed=seed, workers=workers,
        kernel=kernel, engine=engine, chunk_bytes=chunk_bytes,
    )
    total = np.zeros_like(shards[0])
    for counts in shards:
        total += counts
    return total


def parallel_select_many(
    fitness: Union[FitnessLike, FitnessVector],
    size: int,
    *,
    method: Union[str, SelectionMethod, None] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    kernel: str = "auto",
    engine: Optional[str] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """Draw ``size`` indices across worker processes, in worker order.

    Deterministic for the same ``(seed, workers)``.  Draw ``i`` lands in
    worker ``i // ceil(size/workers)``'s stream, so the concatenation is
    reproducible but *different* from any single-stream run — use
    :func:`parallel_counts` when only the histogram matters.
    """
    shards = _fan_out(
        fitness, size, "draws",
        method=method, seed=seed, workers=workers,
        kernel=kernel, engine=engine, chunk_bytes=chunk_bytes,
    )
    return np.concatenate(shards) if shards else np.empty(0, dtype=np.int64)

"""High-throughput selection engine.

Compiles a static wheel once (:class:`CompiledWheel`), streams histograms
in constant memory (:func:`stream_counts`), fans draws out across
deterministic worker processes (:func:`parallel_counts`,
:func:`parallel_select_many`), and advances whole ant colonies in
lockstep (:mod:`repro.engine.colony`, ``python -m repro bench aco``).
See ``python -m repro bench engine`` for the recorded perf trajectory
(``BENCH_engine.json``).
"""

from repro.engine.colony import (
    CDF_METHODS,
    DEFAULT_BLOCK,
    LOCKSTEP_METHODS,
    AntStreams,
    blocked_choice,
    coloring_lockstep_colors,
    lockstep_keys,
    lockstep_select,
    qap_lockstep_assignments,
    tsp_lockstep_orders,
)
from repro.engine.compiled import (
    DEFAULT_CHUNK_BYTES,
    KERNELS,
    CompiledWheel,
    compile_wheel,
    stream_counts,
)
from repro.engine.parallel import (
    MIN_DRAWS_PER_WORKER,
    parallel_counts,
    parallel_select_many,
    shard_sizes,
    suggest_workers,
    worker_streams,
)
from repro.engine.races import (
    MIN_TRIALS_PER_WORKER,
    RaceBatch,
    parallel_round_counts,
    sample_round_counts,
    simulate_races,
    suggest_race_workers,
)

__all__ = [
    "CompiledWheel",
    "compile_wheel",
    "stream_counts",
    "parallel_counts",
    "parallel_select_many",
    "suggest_workers",
    "shard_sizes",
    "worker_streams",
    "RaceBatch",
    "simulate_races",
    "sample_round_counts",
    "parallel_round_counts",
    "suggest_race_workers",
    "DEFAULT_CHUNK_BYTES",
    "MIN_DRAWS_PER_WORKER",
    "MIN_TRIALS_PER_WORKER",
    "KERNELS",
    "AntStreams",
    "LOCKSTEP_METHODS",
    "CDF_METHODS",
    "DEFAULT_BLOCK",
    "blocked_choice",
    "lockstep_keys",
    "lockstep_select",
    "tsp_lockstep_orders",
    "qap_lockstep_assignments",
    "coloring_lockstep_colors",
]

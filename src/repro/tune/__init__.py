"""Runtime-distribution capture, speedup prediction, and host probes.

``repro.tune`` closes the loop between measurement and configuration:

* :mod:`repro.tune.timers` — the shared wall-clock timing idioms every
  bench driver uses (min-of-reps, lower median, warmup/repeat policy);
* :mod:`repro.tune.sample` — portable empirical runtime samples;
* :mod:`repro.tune.predictor` — the Las Vegas multi-walk speedup model
  (Truchet, Richoux & Codognet) plus the work-sharing cost model the
  engine's sharded draws follow, all in log space;
* :mod:`repro.tune.probes` — short probe runs measuring this host's
  cost constants and runtime distributions, held in memory;
* :mod:`repro.tune.restarts` — restart schedules (fixed cutoff, Luby)
  derived from captured restart-time distributions;
* :mod:`repro.tune.bench` — ``python -m repro bench tune``, the gate
  that scores predictions against measurement.
"""

from repro.tune.predictor import (
    RuntimeDistribution,
    optimal_sharded_workers,
    sharded_speedup,
)
from repro.tune.probes import Calibration, calibrate
from repro.tune.restarts import luby_sequence, optimal_cutoff, restart_schedule
from repro.tune.sample import RuntimeSample
from repro.tune.timers import TimingResult, best_of, measure, median_of, timed

__all__ = [
    "RuntimeSample",
    "RuntimeDistribution",
    "sharded_speedup",
    "optimal_sharded_workers",
    "Calibration",
    "calibrate",
    "luby_sequence",
    "optimal_cutoff",
    "restart_schedule",
    "timed",
    "best_of",
    "median_of",
    "measure",
    "TimingResult",
]

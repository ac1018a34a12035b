"""Per-host calibration cache: probe once, tune everywhere.

The tuner's cost constants — process spawn overhead, per-draw kernel
cost, captured runtime distributions — are properties of the *host*,
not of any one process.  They are measured by the short probes in
:mod:`repro.tune.probes` and persisted here so every later
``suggest_workers`` decision is a dictionary lookup, not a
measurement.

Cache discipline is the one proven in :mod:`repro.lab.store`: a record
is written to a temp file and published by atomic ``os.rename``, so
concurrent writers and SIGKILLs leave either a complete record or the
previous one, never a torn file.  The default location is
``~/.cache/repro/tune/<host>.json`` (override with the
``REPRO_TUNE_CACHE`` env var — tests point it at a tmpdir).

Resolution order for the one value the engine hot path consults
(:func:`resolve_min_draws_per_worker`):

1. ``REPRO_MIN_DRAWS_PER_WORKER`` env var (tests / CI pin the legacy
   constant or any value without touching the cache);
2. the per-host calibration cache, if a record exists and carries the
   derived value;
3. the uncalibrated fallback
   :data:`repro.engine.parallel.MIN_DRAWS_PER_WORKER` (250k draws — the
   pre-tune constant, kept as the documented floor of last resort).

The lookup is memoised per process (the hot path must stay cheap);
:func:`invalidate` resets the memo after an env or cache change.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.tune.sample import RuntimeSample

__all__ = [
    "HostCalibration",
    "calibration_path",
    "load_calibration",
    "save_calibration",
    "resolve_min_draws_per_worker",
    "invalidate",
    "ENV_CACHE",
    "ENV_MIN_DRAWS",
    "CALIBRATION_SCHEMA",
]

#: Schema tag for calibration records (bump on layout changes).
CALIBRATION_SCHEMA = "repro/tune-calibration/v1"

#: Env var overriding the cache directory (tests point it at a tmpdir).
ENV_CACHE = "REPRO_TUNE_CACHE"

#: Env var overriding the calibrated min-draws-per-worker value.
ENV_MIN_DRAWS = "REPRO_MIN_DRAWS_PER_WORKER"

#: Clamp range for the derived min-draws value: below the floor the
#: sharding bookkeeping itself dominates; above the ceiling a worker
#: would need minutes of draws to "pay for itself", which only happens
#: when a probe mis-measured.
MIN_DRAWS_FLOOR = 10_000
MIN_DRAWS_CEILING = 100_000_000


@dataclass
class HostCalibration:
    """One host's measured cost model plus captured runtime samples."""

    #: Hostname the probes ran on (informational).
    host: str = ""
    #: ``os.cpu_count()`` at probe time.
    cpu_count: int = 1
    #: Serial cost of standing up one pool worker process, seconds.
    spawn_overhead_s: float = 0.0
    #: Compiled-kernel cost of one draw, seconds (throughput path).
    draw_s: float = 0.0
    #: Captured runtime distributions by name (race rounds, restart
    #: times, ...), as :meth:`RuntimeSample.state` dicts.
    samples: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Unix time the probes ran.
    created: float = 0.0

    # ------------------------------------------------------------------
    def min_draws_per_worker(self) -> Optional[int]:
        """The calibrated break-even shard size, or None if unprobed.

        A worker joins the pool only if its shard's kernel time at least
        matches the serial cost of spawning it — ``spawn_overhead_s /
        draw_s`` draws — so the pool never runs slower than a smaller
        one on this host's measured constants.  Clamped to
        ``[MIN_DRAWS_FLOOR, MIN_DRAWS_CEILING]``.
        """
        if self.spawn_overhead_s <= 0.0 or self.draw_s <= 0.0:
            return None
        draws = int(self.spawn_overhead_s / self.draw_s) + 1
        return max(MIN_DRAWS_FLOOR, min(MIN_DRAWS_CEILING, draws))

    def sample(self, name: str) -> Optional[RuntimeSample]:
        """A captured runtime sample by name, if present."""
        state = self.samples.get(name)
        return None if state is None else RuntimeSample.from_state(state)

    def put_sample(self, name: str, sample: RuntimeSample) -> None:
        """Attach (or replace) a captured runtime sample."""
        self.samples[str(name)] = sample.state()

    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, Any]:
        """JSON-able on-disk layout."""
        return {
            "schema": CALIBRATION_SCHEMA,
            "host": self.host,
            "cpu_count": self.cpu_count,
            "spawn_overhead_s": self.spawn_overhead_s,
            "draw_s": self.draw_s,
            "min_draws_per_worker": self.min_draws_per_worker(),
            "samples": self.samples,
            "created": self.created,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "HostCalibration":
        """Rebuild from :meth:`to_record` output (schema-checked)."""
        if record.get("schema") != CALIBRATION_SCHEMA:
            raise ValueError(
                f"calibration schema mismatch: {record.get('schema')!r} "
                f"!= {CALIBRATION_SCHEMA!r}"
            )
        return cls(
            host=str(record.get("host", "")),
            cpu_count=int(record.get("cpu_count", 1)),
            spawn_overhead_s=float(record.get("spawn_overhead_s", 0.0)),
            draw_s=float(record.get("draw_s", 0.0)),
            samples=dict(record.get("samples", {})),
            created=float(record.get("created", 0.0)),
        )


# ----------------------------------------------------------------------
def _host_stem() -> str:
    """Filesystem-safe stem for this host's record."""
    node = platform.node() or "localhost"
    return re.sub(r"[^A-Za-z0-9._-]", "_", node)[:64]


def cache_dir() -> str:
    """The calibration cache directory (env override honoured)."""
    override = os.environ.get(ENV_CACHE)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "tune")


def calibration_path(path: Optional[str] = None) -> str:
    """Where this host's calibration record lives."""
    if path is not None:
        return path
    return os.path.join(cache_dir(), f"{_host_stem()}.json")


def load_calibration(path: Optional[str] = None) -> Optional[HostCalibration]:
    """The host's calibration, or None if absent/unreadable/mismatched.

    Unreadable or wrong-schema records are treated as missing — a stale
    cache must never make the tuner error, only fall back.
    """
    target = calibration_path(path)
    try:
        with open(target, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        return HostCalibration.from_record(record)
    except (FileNotFoundError, json.JSONDecodeError, ValueError, OSError):
        return None


def save_calibration(
    cal: HostCalibration, path: Optional[str] = None
) -> str:
    """Atomically publish a calibration record; returns its path.

    Same tmp-write + ``os.rename`` discipline as ``repro.lab.store``:
    a reader never sees a torn record, and the last writer wins whole.
    """
    target = calibration_path(path)
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    if not cal.created:
        cal.created = time.time()
    tmp = f"{target}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cal.to_record(), fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.rename(tmp, target)
    invalidate()
    return target


# ----------------------------------------------------------------------
#: Memoised (source, value) for resolve_min_draws_per_worker.
_resolved: Optional[Dict[str, Any]] = None


def resolve_min_draws_per_worker(default: Optional[int] = None) -> int:
    """The per-host min-draws-per-worker value the engine should use.

    Resolution: env var > calibration cache > ``default`` (the caller
    passes the legacy constant).  Memoised per process — call
    :func:`invalidate` after changing the env var or rewriting the
    cache mid-process (tests do; services restart).
    """
    global _resolved
    if default is None:
        from repro.engine.parallel import MIN_DRAWS_PER_WORKER as default_const

        default = default_const
    if _resolved is not None:
        return int(_resolved["value"]) if _resolved["value"] is not None else default
    env = os.environ.get(ENV_MIN_DRAWS)
    if env is not None:
        try:
            value = int(env)
            if value < 1:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"{ENV_MIN_DRAWS} must be a positive integer, got {env!r}"
            ) from None
        _resolved = {"source": "env", "value": value}
        return value
    cal = load_calibration()
    calibrated = cal.min_draws_per_worker() if cal is not None else None
    if calibrated is not None:
        _resolved = {"source": "calibration", "value": calibrated}
        return calibrated
    _resolved = {"source": "fallback", "value": None}
    return default


def invalidate() -> None:
    """Forget the memoised resolution (env/cache changed)."""
    global _resolved
    _resolved = None

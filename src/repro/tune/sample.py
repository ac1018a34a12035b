"""Empirical runtime samples: the raw material of speedup prediction.

A :class:`RuntimeSample` is an append-only collection of non-negative
runtime observations (seconds for wall-clock probes, rounds for the race
lab — the unit is the caller's, recorded alongside).  It is deliberately
dumb: the Las Vegas machinery lives in :mod:`repro.tune.predictor`,
which consumes a sample via :meth:`RuntimeSample.distribution`.
Samples live in memory only: a probe records one, and the bench that
ran the probe consumes it.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

__all__ = ["RuntimeSample"]


class RuntimeSample:
    """Non-negative runtime observations in a caller-named unit.

    Parameters
    ----------
    unit:
        Free-form label for what one observation measures (``"s"`` for
        wall seconds, ``"rounds"`` for race round counts, ...); it rides
        into the :class:`repro.tune.predictor.RuntimeDistribution`.
    """

    __slots__ = ("unit", "_values")

    def __init__(self, unit: str = "s", values: Optional[Iterable[float]] = None) -> None:
        self.unit = str(unit)
        self._values: list = []
        if values is not None:
            self.record_many(values)

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Append one observation."""
        value = float(value)
        if not np.isfinite(value) or value < 0.0:
            raise ValueError(f"runtime observations must be finite and >= 0, got {value}")
        self._values.append(value)

    def record_many(self, values: Iterable[float]) -> None:
        """Append a batch of observations."""
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.size and (not np.isfinite(arr).all() or (arr < 0.0).any()):
            raise ValueError("runtime observations must be finite and >= 0")
        self._values.extend(arr.tolist())

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """Copy of the observations, in recording order."""
        return np.asarray(self._values, dtype=np.float64)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return float(np.mean(self._values)) if self._values else 0.0

    @property
    def var(self) -> float:
        """Unbiased sample variance (0.0 below two observations)."""
        if len(self._values) < 2:
            return 0.0
        return float(np.var(self._values, ddof=1))

    def quantile(self, q: float) -> float:
        """Empirical ``q`` quantile (inverted-CDF convention)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return 0.0
        return float(np.quantile(self._values, q, method="inverted_cdf"))

    def distribution(self):
        """This sample as a :class:`repro.tune.predictor.RuntimeDistribution`."""
        from repro.tune.predictor import RuntimeDistribution

        return RuntimeDistribution.from_samples(self.values, unit=self.unit)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuntimeSample(unit={self.unit!r}, count={self.count})"

"""Runtime samples and Las Vegas speedup prediction.

Truchet, Richoux & Codognet ("Prediction of Parallel Speed-ups for
Las Vegas Algorithms", PAPERS.md) observe that for a *multi-walk*
parallelisation — ``W`` independent copies of a randomized algorithm
race, first finisher wins — the parallel runtime is the minimum of
``W`` iid draws from the sequential runtime distribution, so the whole
speedup curve is an order statistic of that one distribution:

    ``speedup(W) = E[T] / E[min(T_1, ..., T_W)]``

No parallel measurement is needed to *predict*: capture the sequential
distribution once (cheap), integrate the min.  The prediction is exact
for the model's assumptions (iid copies, negligible orchestration cost).
``python -m repro bench race`` checks the empirical pipeline against
the exact race round-count law, and ``python -m repro bench select``
feeds it screening-round wall times.

:class:`RuntimeSample` is the raw material: an append-only collection
of non-negative observations in a caller-named unit.
:class:`RuntimeDistribution` is the common representation — an
ascending support with **log** survival probabilities, built either
from an empirical sample or from an exact discrete law such as the race
round-count pmf of :mod:`repro.stats.race_theory`.  Log space matters
for the same reason it does in ``log_rounds_pmf``: ``Pr[T > t]**W``
underflows linear float64 long before the interesting regime (deep
tails, large ``W``), while ``W * log_sf`` stays finite.

Two analytic anchors the property tests pin down:

* deterministic runtime → ``E[min] = E[T]`` → multi-walk speedup is
  exactly 1 for every ``W`` (racing identical clones wins nothing);
* exponential runtime → ``E[min of W] = E[T] / W`` → speedup exactly
  ``W`` (the memoryless ideal).

Real restart-style workloads sit between the two.  For *work-sharing*
parallelism (a fan-out that shards a fixed budget, no racing), the
right model is :func:`sharded_speedup`: deterministic per-unit work
splits perfectly, so the speedup is exactly ``W`` minus whatever pool
startup overhead was measured.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

__all__ = ["RuntimeSample", "RuntimeDistribution", "sharded_speedup"]


class RuntimeSample:
    """Non-negative runtime observations in a caller-named unit.

    Parameters
    ----------
    unit:
        Free-form label for what one observation measures (``"s"`` for
        wall seconds, ``"rounds"`` for race round counts, ...); it rides
        into the :class:`RuntimeDistribution`.
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

    def distribution(self) -> "RuntimeDistribution":
        """This sample as a :class:`RuntimeDistribution`."""
        return RuntimeDistribution.from_samples(self.values, unit=self.unit)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuntimeSample(unit={self.unit!r}, count={self.count})"


class RuntimeDistribution:
    """A runtime law as ``(support, log survival)`` — the predictor's input.

    ``values`` is the ascending support; ``log_sf[j]`` is
    ``log Pr[T > values[j]]`` (so the last entry is ``-inf`` for any
    proper distribution).  All prediction reduces to powering the
    survival function, which is a multiply in log space.
    """

    __slots__ = ("values", "log_sf", "unit")

    def __init__(self, values: np.ndarray, log_sf: np.ndarray, unit: str = "s") -> None:
        values = np.asarray(values, dtype=np.float64)
        log_sf = np.asarray(log_sf, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("support must be a non-empty 1-D array")
        if values.shape != log_sf.shape:
            raise ValueError("support and log_sf must have identical shape")
        if (np.diff(values) < 0).any():
            raise ValueError("support must be ascending")
        if (log_sf > 1e-12).any():
            raise ValueError("log survival probabilities must be <= 0")
        if (np.diff(log_sf) > 1e-12).any():
            raise ValueError("survival function must be non-increasing")
        self.values = values
        self.log_sf = np.minimum(log_sf, 0.0)
        self.unit = str(unit)

    # -- constructors --------------------------------------------------
    @classmethod
    def from_samples(
        cls, samples: Sequence[float], unit: str = "s"
    ) -> "RuntimeDistribution":
        """The empirical distribution of a runtime sample.

        Positional survival ``Pr[T > x_(j)] = (m - 1 - j) / m`` over the
        sorted sample is used; ties telescope correctly in every
        expectation computed here, so duplicates need no special casing.
        """
        arr = np.sort(np.asarray(samples, dtype=np.float64))
        if arr.size == 0:
            raise ValueError("need at least one runtime observation")
        if not np.isfinite(arr).all() or arr[0] < 0.0:
            raise ValueError("runtime observations must be finite and >= 0")
        m = arr.size
        with np.errstate(divide="ignore"):
            log_sf = np.log(np.arange(m - 1, -1, -1, dtype=np.float64) / m)
        return cls(arr, log_sf, unit=unit)

    @classmethod
    def from_log_pmf(
        cls,
        log_pmf: Sequence[float],
        support: Optional[Sequence[float]] = None,
        unit: str = "rounds",
    ) -> "RuntimeDistribution":
        """An exact discrete law from log probabilities.

        ``support`` defaults to ``0..len(log_pmf)-1`` — the layout of
        :func:`repro.stats.race_theory.log_rounds_pmf`.  The survival
        function is accumulated with ``logaddexp`` from the tail, so a
        pmf whose entries span hundreds of orders of magnitude stays
        finite end to end.
        """
        lp = np.asarray(log_pmf, dtype=np.float64)
        if lp.ndim != 1 or lp.size == 0:
            raise ValueError("log_pmf must be a non-empty 1-D array")
        values = (
            np.arange(lp.size, dtype=np.float64)
            if support is None
            else np.asarray(support, dtype=np.float64)
        )
        if values.shape != lp.shape:
            raise ValueError("support and log_pmf must have identical shape")
        # log Pr[T > v_j] = logsumexp(lp[j+1:]), accumulated from the tail.
        tail = np.logaddexp.accumulate(lp[::-1])[::-1]
        log_sf = np.full(lp.size, -np.inf)
        log_sf[:-1] = tail[1:]
        # Truncated laws (race pmfs cut at t_max) carry mass above the
        # window; clamp the stray positive residue from accumulation.
        return cls(values, np.minimum(log_sf, 0.0), unit=unit)

    @classmethod
    def from_race_law(cls, k: int, t_max: Optional[int] = None) -> "RuntimeDistribution":
        """The exact round-count law ``T(k)`` of the paper's race."""
        from repro.stats.race_theory import log_rounds_pmf

        return cls.from_log_pmf(log_rounds_pmf(k, t_max=t_max), unit="rounds")

    # -- prediction ----------------------------------------------------
    def expected_min(self, workers: int) -> float:
        """``E[min of workers iid copies]`` — the multi-walk runtime.

        With ``S`` the survival function, ``Pr[min > v] = S(v)**W``; the
        expectation telescopes over the support as
        ``sum_j v_j * (S_{j-1}**W - S_j**W)``, each power taken as
        ``exp(W * log S)`` so deep tails never underflow to a wrong
        zero-probability step.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        lsf = np.concatenate(([0.0], float(workers) * self.log_sf))
        p = np.exp(lsf)
        step = p[:-1] - p[1:]
        return float(np.dot(self.values, step))

    def mean(self) -> float:
        """``E[T]`` (the one-copy expectation)."""
        return self.expected_min(1)

    def min_of(self, workers: int) -> "RuntimeDistribution":
        """The distribution of the multi-walk minimum itself."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return RuntimeDistribution(
            self.values, float(workers) * self.log_sf, unit=self.unit
        )

    def speedup(self, workers: int) -> float:
        """Predicted multi-walk speedup ``E[T] / E[min of workers]``."""
        mean = self.mean()
        if mean <= 0.0:
            raise ValueError("speedup is undefined for a zero-mean runtime")
        return mean / self.expected_min(workers)

    def speedup_curve(self, workers: Sequence[int]) -> Dict[int, float]:
        """``{W: speedup(W)}`` over a worker grid."""
        return {int(w): self.speedup(int(w)) for w in workers}

    def quantile(self, q: float) -> float:
        """Smallest support value ``v`` with ``Pr[T <= v] >= q``."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {q}")
        cdf = -np.expm1(self.log_sf)  # 1 - sf, accurate near 0
        idx = int(np.searchsorted(cdf, q))
        return float(self.values[min(idx, self.values.size - 1)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RuntimeDistribution(points={self.values.size}, "
            f"mean={self.mean():.6g} {self.unit})"
        )


def sharded_speedup(
    work_s: float, workers: int, overhead_s: float = 0.0
) -> float:
    """Work-sharing speedup with a fixed pool startup overhead.

    The fan-out model: a budget costing ``work_s`` sequentially splits
    perfectly across ``workers``, and standing up the pool costs
    ``overhead_s`` once, whatever the worker count, so the speedup is
    ``work_s / (overhead_s + work_s / workers)`` with asymptote
    ``work_s / overhead_s``.  With zero overhead the speedup is exactly
    ``workers`` — the deterministic-runtime anchor of the property
    tests.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if work_s <= 0.0:
        raise ValueError(f"work_s must be positive, got {work_s}")
    if overhead_s < 0.0:
        raise ValueError(f"overhead_s must be >= 0, got {overhead_s}")
    if workers == 1:
        return 1.0
    return work_s / (overhead_s + work_s / workers)


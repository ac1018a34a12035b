"""Confidence intervals for Monte-Carlo frequency estimates."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["wilson_interval", "mean_interval", "standard_errors"]


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the extremes (0 or all successes), which matters for
    Table II where some probabilities are effectively zero.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from scipy import stats as sps

    z = float(sps.norm.ppf(0.5 + confidence / 2.0))
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    # At the extremes centre == half analytically; rounding can leave a
    # ~1e-17 residue, so pin the exact boundary.
    lo = 0.0 if successes == 0 else max(0.0, float(centre - half))
    hi = 1.0 if successes == trials else min(1.0, float(centre + half))
    return lo, hi


def mean_interval(
    mean: float, variance: float, trials: int, confidence: float = 0.99
) -> Tuple[float, float]:
    """Normal-approximation CI for a Monte-Carlo sample mean.

    ``variance`` is the per-observation variance (exact when known —
    e.g. the race law's ``H_k - H_k^(2)`` — or a sample estimate).  With
    ``trials >= 10^5`` the CLT error is negligible for the bounded-tail
    distributions we test against.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if variance < 0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from scipy import stats as sps

    z = float(sps.norm.ppf(0.5 + confidence / 2.0))
    half = z * float(np.sqrt(variance / trials))
    return float(mean) - half, float(mean) + half


def standard_errors(counts: np.ndarray) -> np.ndarray:
    """Multinomial standard errors of the per-category frequencies."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts are all zero")
    p = counts / total
    return np.sqrt(p * (1.0 - p) / total)

"""Statistical power of the goodness-of-fit experiments.

The paper demonstrates exactness with 10^9 draws; this reproduction
defaults to 10^6.  This module makes the trade-off quantitative using
the standard noncentral-chi-square power analysis:

* a multinomial deviation of effect size ``w`` (Cohen's
  ``w = sqrt(sum (p_alt - p_0)^2 / p_0)``) gives the chi-square statistic
  a noncentral distribution with ``lambda = N w^2``;
* :func:`detection_power` — probability that ``N`` draws reject the null
  at level ``alpha`` for a given alternative;
* :func:`required_draws` — smallest ``N`` achieving target power;
* :func:`detectable_effect` — smallest effect ``w`` detectable at ``N``.

Headline numbers (asserted in the tests): the independent-roulette bias
on Table I has ``w ~ 0.71`` — detectable with ~100 draws — while
certifying agreement down to ``w = 0.001`` needs ~4x10^7 draws.  The
paper's 10^9 draws certify to ``w ~ 2x10^-4``; our 10^6 default to
``w ~ 6x10^-3``.  Every effect the paper reports is orders of magnitude
above both thresholds.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "cohen_w",
    "detection_power",
    "required_draws",
    "detectable_effect",
]


def cohen_w(null_probs: Sequence[float], alt_probs: Sequence[float]) -> float:
    """Cohen's effect size ``w`` between two categorical distributions.

    Categories with zero null probability must carry zero alternative
    mass (they make the chi-square statistic infinite — detection is
    then immediate and power analysis moot).
    """
    p0 = np.asarray(null_probs, dtype=np.float64)
    p1 = np.asarray(alt_probs, dtype=np.float64)
    if p0.shape != p1.shape:
        raise ValueError(f"shape mismatch: {p0.shape} vs {p1.shape}")
    if (p0 < 0).any() or (p1 < 0).any():
        raise ValueError("probabilities must be non-negative")
    p0 = p0 / p0.sum()
    p1 = p1 / p1.sum()
    mask = p0 > 0.0
    if np.any(p1[~mask] > 0.0):
        return math.inf
    return float(np.sqrt(((p1[mask] - p0[mask]) ** 2 / p0[mask]).sum()))


def detection_power(
    n_draws: int, effect_w: float, categories: int, alpha: float = 0.01
) -> float:
    """Probability that ``n_draws`` reject the null against effect ``w``.

    Uses the noncentral chi-square with ``df = categories - 1`` and
    noncentrality ``n_draws * w**2``.
    """
    if n_draws <= 0:
        raise ValueError(f"n_draws must be positive, got {n_draws}")
    if effect_w < 0:
        raise ValueError(f"effect size must be non-negative, got {effect_w}")
    if categories < 2:
        raise ValueError(f"need >= 2 categories, got {categories}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    from scipy import stats as sps

    df = categories - 1
    critical = sps.chi2.ppf(1.0 - alpha, df)
    if effect_w == 0.0:
        return float(alpha)
    lam = n_draws * effect_w**2
    return float(sps.ncx2.sf(critical, df, lam))


def required_draws(
    effect_w: float,
    categories: int,
    alpha: float = 0.01,
    power: float = 0.99,
) -> int:
    """Smallest draw count detecting effect ``w`` with the target power."""
    if effect_w <= 0:
        raise ValueError(f"effect size must be positive, got {effect_w}")
    if not 0 < power < 1:
        raise ValueError(f"power must be in (0, 1), got {power}")
    lo, hi = 1, 2
    while detection_power(hi, effect_w, categories, alpha) < power:
        hi *= 2
        if hi > 10**15:  # pragma: no cover - unreachable for sane inputs
            raise RuntimeError("required draw count exceeds 1e15")
    while lo < hi:
        mid = (lo + hi) // 2
        if detection_power(mid, effect_w, categories, alpha) >= power:
            hi = mid
        else:
            lo = mid + 1
    return lo


def detectable_effect(
    n_draws: int,
    categories: int,
    alpha: float = 0.01,
    power: float = 0.99,
) -> float:
    """Smallest effect ``w`` that ``n_draws`` detect with the target power."""
    if n_draws <= 0:
        raise ValueError(f"n_draws must be positive, got {n_draws}")
    if not 0 < power < 1:
        raise ValueError(f"power must be in (0, 1), got {power}")
    lo, hi = 0.0, 1.0
    while detection_power(n_draws, hi, categories, alpha) < power:
        hi *= 2
        if hi > 1e6:  # pragma: no cover - unreachable
            raise RuntimeError("no detectable effect below w = 1e6")
    for _ in range(80):  # bisection to double precision
        mid = (lo + hi) / 2
        if detection_power(n_draws, mid, categories, alpha) >= power:
            hi = mid
        else:
            lo = mid
    return hi

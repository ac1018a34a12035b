"""Goodness-of-fit tests and distribution distances.

The paper's tables compare empirical frequencies against ``F_i`` by eye
over 10^9 draws; at bench-scale draw counts we replace eyeballing with
formal tests (Pearson chi-square, likelihood-ratio G) and distances
(total variation, KL, max absolute error) with explicit thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "GofResult",
    "chi_square_gof",
    "g_test_gof",
    "tv_distance",
    "kl_divergence",
    "max_abs_error",
]


@dataclass
class GofResult:
    """Outcome of a goodness-of-fit test."""

    #: Test statistic (chi-square or G).
    statistic: float
    #: Degrees of freedom (non-zero expected categories - 1).
    dof: int
    #: Right-tail p-value under the chi-square(dof) null.
    p_value: float
    #: Total draws the counts represent.
    total: int

    def reject(self, alpha: float = 0.01) -> bool:
        """True iff the null (counts ~ expected) is rejected at ``alpha``."""
        return self.p_value < alpha

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GofResult(statistic={self.statistic:.3f}, dof={self.dof}, "
            f"p={self.p_value:.4g})"
        )


def _prepare(counts: np.ndarray, expected_probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if counts.shape != probs.shape:
        raise ValueError(f"shape mismatch: counts {counts.shape} vs probs {probs.shape}")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    if (probs < 0).any():
        raise ValueError("expected probabilities must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts are all zero; nothing to test")
    psum = probs.sum()
    if psum <= 0:
        raise ValueError("expected probabilities sum to zero")
    probs = probs / psum
    # Zero-probability categories must have zero counts; observing mass
    # there is an immediate (infinite-statistic) rejection.
    impossible = (probs == 0.0) & (counts > 0)
    if impossible.any():
        idx = int(np.flatnonzero(impossible)[0])
        raise ValueError(
            f"category {idx} has zero expected probability but {int(counts[idx])} draws"
        )
    return counts, probs, int(total)


def chi_square_gof(counts: np.ndarray, expected_probs: np.ndarray) -> GofResult:
    """Pearson chi-square test of counts against a target distribution.

    Zero-probability categories are excluded from the statistic (after
    verifying they received no draws) and from the degrees of freedom.
    """
    counts, probs, total = _prepare(counts, expected_probs)
    mask = probs > 0.0
    expected = probs[mask] * total
    stat = float(((counts[mask] - expected) ** 2 / expected).sum())
    dof = int(mask.sum()) - 1
    if dof <= 0:
        return GofResult(statistic=stat, dof=0, p_value=1.0, total=total)
    from scipy import stats as sps

    p = float(sps.chi2.sf(stat, dof))
    return GofResult(statistic=stat, dof=dof, p_value=p, total=total)


def g_test_gof(counts: np.ndarray, expected_probs: np.ndarray) -> GofResult:
    """Likelihood-ratio (G) test — asymptotically equivalent to chi-square."""
    counts, probs, total = _prepare(counts, expected_probs)
    mask = probs > 0.0
    expected = probs[mask] * total
    observed = counts[mask]
    nz = observed > 0
    stat = float(2.0 * (observed[nz] * np.log(observed[nz] / expected[nz])).sum())
    dof = int(mask.sum()) - 1
    if dof <= 0:
        return GofResult(statistic=stat, dof=0, p_value=1.0, total=total)
    from scipy import stats as sps

    p = float(sps.chi2.sf(stat, dof))
    return GofResult(statistic=stat, dof=dof, p_value=p, total=total)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance ``0.5 * sum|p - q|`` between distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """``KL(p || q)`` in nats; ``inf`` if p has mass where q has none."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return float("inf")
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def max_abs_error(p: np.ndarray, q: np.ndarray) -> float:
    """Largest per-category deviation — the paper's implicit table metric."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(np.abs(p - q).max())

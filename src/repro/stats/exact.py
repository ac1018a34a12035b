"""Closed-form win probabilities for the selection rules.

For the paper's logarithmic bidding the §II integral gives exactly
``F_i = f_i / sum(f)`` — reproduced numerically here as a cross-check.

For the *independent roulette* baseline (``r_i = f_i * u_i``, arg-max
wins) the induced distribution is not ``F_i``; it is

.. math::

    \\Pr[i\\text{ wins}] \\;=\\; \\int_0^{f_i} \\frac{1}{f_i}
        \\prod_{j \\ne i} \\min(x / f_j,\\, 1)\\, dx ,

a piecewise-polynomial integral evaluated exactly by
:func:`independent_win_probabilities` (in log-space, so Table II's
``(1/2)^{99} / 100 ~ 1.58e-32`` for processor 0 comes out exactly rather
than underflowing).  Ties have measure zero except among zero-fitness
items, which never win when any positive fitness exists.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.fitness import validate_fitness

__all__ = [
    "log_bidding_win_probabilities",
    "log_bidding_win_probability_numeric",
    "independent_win_probabilities",
    "independent_win_probability_numeric",
]


def log_bidding_win_probabilities(fitness: Sequence[float]) -> np.ndarray:
    """Exact win distribution of logarithmic bidding: ``F_i`` (Theorem 1)."""
    f = validate_fitness(fitness)
    return f / f.sum()


def log_bidding_win_probability_numeric(fitness: Sequence[float], index: int) -> float:
    """Quadrature evaluation of the paper's §II integral for one index.

    ``∫_{-inf}^{0} f_i e^{x f_i} ∏_{j≠i} e^{x f_j} dx`` — the tests verify
    it agrees with ``F_i`` to quadrature precision, which is exactly the
    paper's §II derivation re-done numerically.
    """
    f = validate_fitness(fitness)
    if not 0 <= index < len(f):
        raise IndexError(f"index {index} out of range for n={len(f)}")
    fi = float(f[index])
    if fi == 0.0:
        return 0.0
    total = float(f.sum())

    def integrand(x: float) -> float:
        return fi * math.exp(x * total)

    from scipy import integrate

    value, _err = integrate.quad(integrand, -np.inf, 0.0)
    return float(value)


def independent_win_probabilities(fitness: Sequence[float]) -> np.ndarray:
    """Exact win distribution of the independent roulette baseline.

    Piecewise-exact evaluation: on each interval between consecutive
    distinct fitness values ``a < x < b`` (below ``f_i``), the product of
    CDFs is ``x^m / C`` with ``m`` items larger than ``x`` and ``C`` the
    product of their fitnesses, so each piece integrates to
    ``(b^{m+1} - a^{m+1}) / ((m+1) C f_i)``.  Computed in log-space after
    normalising by ``max(f)`` so extreme cases (Table II) neither
    overflow nor lose their tiny-but-nonzero masses.

    Zero-fitness items get probability 0 (their key is identically 0).
    When *several* items share the global maximum key region the formula
    handles ties correctly because ties occur on a measure-zero set.
    """
    f = validate_fitness(fitness)
    n = len(f)
    fmax = float(f.max())
    scaled = f / fmax  # win probabilities are scale-invariant
    out = np.zeros(n, dtype=np.float64)
    positive = np.flatnonzero(scaled > 0.0)
    # Sorted distinct positive values define the integration breakpoints.
    distinct = np.unique(scaled[positive])
    log_f = np.log(scaled[positive])
    sorted_vals = np.sort(scaled[positive])
    for i in positive:
        fi = float(scaled[i])
        # Breakpoints strictly inside (0, fi], always ending at fi.
        points = [0.0] + [float(v) for v in distinct if v < fi] + [fi]
        acc = 0.0
        for a, b in zip(points[:-1], points[1:]):
            # Items j != i with f_j > x for x in (a, b) are those with
            # f_j >= b (values are breakpoints, so f_j in (a, b) is empty).
            # Count and log-product via the sorted array.
            m = int(len(sorted_vals) - np.searchsorted(sorted_vals, b, side="left"))
            log_c = float(log_f[scaled[positive] >= b].sum())
            if fi >= b:
                # Item i itself is in the ">= b" set; it must be excluded.
                m -= 1
                log_c -= math.log(fi)
            # integral of x^m / C on (a, b), divided by f_i:
            # (b^{m+1} - a^{m+1}) / ((m+1) * C * f_i)
            log_b_term = (m + 1) * math.log(b)
            if a == 0.0:
                log_piece = log_b_term
            else:
                ratio = (a / b) ** (m + 1)
                if ratio >= 1.0:  # pragma: no cover - degenerate rounding
                    continue
                log_piece = log_b_term + math.log1p(-ratio)
            log_value = log_piece - log_c - math.log(m + 1) - math.log(fi)
            acc += math.exp(log_value)
        out[i] = acc
    return out


def independent_win_probability_numeric(fitness: Sequence[float], index: int) -> float:
    """Quadrature cross-check of one independent-roulette win probability."""
    f = validate_fitness(fitness)
    if not 0 <= index < len(f):
        raise IndexError(f"index {index} out of range for n={len(f)}")
    fi = float(f[index])
    if fi == 0.0:
        return 0.0
    others = np.delete(np.asarray(f, dtype=np.float64), index)
    others = others[others > 0.0]

    def integrand(x: float) -> float:
        return float(np.minimum(x / others, 1.0).prod()) / fi

    from scipy import integrate

    value, _err = integrate.quad(integrand, 0.0, fi, limit=200)
    return float(value)

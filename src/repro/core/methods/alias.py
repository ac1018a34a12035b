"""Walker/Vose alias method — O(n) build, O(1) per draw, exact.

The alias table partitions the probability mass into ``n`` equal-width
columns, each containing at most two outcomes.  A draw picks a column
uniformly and flips a biased coin between the column's own outcome and its
alias.  Vose's construction (small/large worklists) is numerically robust
and builds in a single O(n) pass.

Included as the classic serial answer to "many draws from one wheel" —
the regime where the paper's per-draw parallel race is compared against
amortised preprocessing in the throughput benchmarks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.methods.base import SelectionMethod, register_method

__all__ = ["AliasTable", "AliasSelection"]


class AliasTable:
    """A frozen Vose alias table for one fitness vector."""

    __slots__ = ("n", "_prob", "_alias")

    def __init__(self, fitness: np.ndarray) -> None:
        """Build the table in O(n).

        ``fitness`` must be validated (non-negative, not all zero).
        Zero-fitness outcomes end up with acceptance probability 0 and are
        always redirected to their alias, so they are never returned.
        """
        f = np.asarray(fitness, dtype=np.float64)
        n = f.size
        # Normalise before scaling: (f / sum) * n stays finite even for
        # subnormal fitness values where n / sum would overflow.
        scaled_arr = (f / f.sum()) * n  # mean 1 per column
        small = np.flatnonzero(scaled_arr < 1.0).tolist()
        large = np.flatnonzero(scaled_arr >= 1.0).tolist()
        # The worklist loop runs on Python lists of floats: the same IEEE
        # double arithmetic as on NumPy scalars (so the table is bitwise
        # the same), without a NumPy scalar box per element access.
        scaled = scaled_arr.tolist()
        prob = [0.0] * n
        alias = [0] * n
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            (small if scaled[l] < 1.0 else large).append(l)
        # Leftovers are numerically 1.0 columns.
        for i in large:
            prob[i] = 1.0
        for i in small:
            # Only reachable through FP cancellation; treat as full columns
            # unless the outcome truly has zero mass.
            prob[i] = 1.0 if f[i] > 0.0 else 0.0
            if f[i] == 0.0 and n > 1:
                # Redirect the empty column to any positive outcome.
                alias[i] = int(np.flatnonzero(f > 0.0)[0])
        self.n = n
        self._prob = np.array(prob, dtype=np.float64)
        self._alias = np.array(alias, dtype=np.int64)

    def draw(self, rng) -> int:
        """One O(1) draw."""
        u = float(rng.random()) * self.n
        col = int(u)
        if col >= self.n:  # u == n from FP rounding of random()*n
            col = self.n - 1
        frac = u - col
        return col if frac < self._prob[col] else int(self._alias[col])

    def draw_many(self, rng, size: int) -> np.ndarray:
        """Vectorised batch of ``size`` draws (one uniform per draw)."""
        return self.draw_many_from(np.asarray(rng.random(size), dtype=np.float64))

    def draw_many_from(self, uniforms: np.ndarray) -> np.ndarray:
        """Map caller-supplied uniforms on ``[0, 1)`` to draws, one each.

        Splitting a uniform sequence across calls returns the same draws
        as one call — the property the batched selection service relies
        on to coalesce per-request substreams into a single lookup.
        """
        u = uniforms * self.n
        col = np.minimum(u.astype(np.int64), self.n - 1)
        frac = u - col
        return np.where(frac < self._prob[col], col, self._alias[col]).astype(np.int64)

    @property
    def acceptance(self) -> np.ndarray:
        """Per-column acceptance probabilities (for tests)."""
        return self._prob.copy()

    @property
    def aliases(self) -> np.ndarray:
        """Per-column alias targets (for tests)."""
        return self._alias.copy()

    def implied_probabilities(self) -> np.ndarray:
        """Reconstruct the outcome distribution the table encodes.

        Exactly ``F_i`` up to FP rounding — asserted by the unit tests.
        """
        p = np.zeros(self.n, dtype=np.float64)
        for col in range(self.n):
            p[col] += self._prob[col]
            p[self._alias[col]] += 1.0 - self._prob[col]
        return p / self.n


@register_method
class AliasSelection(SelectionMethod):
    """Selection through a per-call alias table.

    For repeated draws from the same wheel, build an :class:`AliasTable`
    once and call :meth:`AliasTable.draw_many`; ``select_many`` does
    exactly that internally.
    """

    name = "alias"
    exact = True

    def select(self, fitness: np.ndarray, rng) -> int:
        return AliasTable(fitness).draw(rng)

    def select_many(self, fitness: np.ndarray, rng, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        return AliasTable(fitness).draw_many(rng, size)

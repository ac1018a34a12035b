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
        scaled = (f / f.sum()) * n  # mean 1 per column
        # Vose's worklists pop from the end, so each is kept reversed:
        # smalls and larges in the order the loop consumes them.
        small = np.flatnonzero(scaled < 1.0)[::-1]
        large = np.flatnonzero(scaled >= 1.0)[::-1]
        # Only the running value of the current large depends on the
        # order of events.  It serves the smalls one after another until
        # it drops below 1; its residual is then a small served at once
        # by the next large.  The loop records where each large was
        # exhausted and its residual, on Python floats (the same IEEE
        # arithmetic as the element-at-a-time loop, so the table is
        # bitwise the same); NumPy then fills the table from those points.
        lv = scaled[large].tolist()
        ends, residuals = [], []
        j, done = 0, small.size if lv else 0
        if lv:
            v = lv[0]
            for k, a in enumerate(scaled[small].tolist()):
                v = (v + a) - 1.0
                while v < 1.0:  # large j is exhausted after small k
                    ends.append(k)
                    residuals.append(v)
                    j += 1
                    if j == len(lv):
                        break
                    v = (lv[j] + v) - 1.0
                else:
                    continue
                done = k + 1  # no large left
                break
        prob = np.empty(n, dtype=np.float64)
        alias = np.zeros(n, dtype=np.int64)
        served = small[:done]
        prob[served] = scaled[served]
        # Small k was served by the large after every one exhausted
        # before it.
        exhausted = np.bincount(np.array(ends, dtype=np.int64), minlength=done)
        alias[served] = large[np.cumsum(exhausted) - exhausted]
        # Each exhausted large that a next large took over.
        handed = j if j < large.size else max(large.size - 1, 0)
        prob[large[:handed]] = residuals[:handed]
        alias[large[:handed]] = large[1 : handed + 1]
        if j < large.size:
            # Leftovers are numerically 1.0 columns.
            prob[large[j:]] = 1.0
        else:
            # The larges ran out: the smalls left over (and the last
            # large) are only reachable through FP cancellation; treat
            # them as full columns unless the outcome truly has zero mass.
            rest = np.concatenate((small[done:], large[large.size - 1 :]))
            prob[rest] = np.where(f[rest] > 0.0, 1.0, 0.0)
            empty = rest[f[rest] == 0.0]
            if empty.size and n > 1:
                # Redirect the empty columns to any positive outcome.
                alias[empty] = int(np.flatnonzero(f > 0.0)[0])
        self.n = n
        self._prob = prob
        self._alias = alias

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
        col = u.astype(np.int64)
        np.minimum(col, self.n - 1, out=col)
        u -= col  # the fractional part, in place
        return np.where(u < self._prob.take(col), col, self._alias.take(col))

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

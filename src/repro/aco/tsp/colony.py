"""Ant System / MAX-MIN Ant System with pluggable roulette selection.

The construction step is the paper's motivating workload: from city
``c`` an ant moves to city ``j`` with probability proportional to

.. math:: \\tau_{cj}^{\\alpha} \\; \\eta_{cj}^{\\beta}

over *unvisited* ``j`` — visited cities carry fitness zero, so late
construction steps have ``k`` (non-zero count) far below ``n``, the
regime in which the paper's O(log k) race beats O(log n) methods.  The
colony records exactly those ``(k, n)`` pairs per step so benchmarks can
plot the sparsity profile of a real ACO run.

The next-city choice goes through any registered
:class:`repro.core.methods.SelectionMethod`; selecting
``"independent"`` reproduces the biased GPU baseline of Cecilia et al.
(the paper's ref [6]) and measurably degrades tour quality, while every
exact method leaves quality statistically unchanged — an end-to-end
restatement of Tables I/II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.aco.tsp.heuristics import nearest_neighbour_tour, two_opt
from repro.aco.tsp.instance import TSPInstance
from repro.aco.tsp.tour import Tour
from repro.core.methods.base import SelectionMethod, get_method
from repro.errors import ACOError
from repro.rng.adapters import resolve_rng

__all__ = ["AntSystemConfig", "ConstructionStats", "AntSystem"]


@dataclass
class AntSystemConfig:
    """Hyper-parameters of the colony (Dorigo's Ant System defaults)."""

    #: Number of ants per iteration.
    n_ants: int = 20
    #: Pheromone exponent.
    alpha: float = 1.0
    #: Visibility (1/d) exponent.
    beta: float = 2.0
    #: Evaporation rate in (0, 1].
    rho: float = 0.5
    #: Deposit scale: each ant deposits ``q / tour_length`` on its edges.
    q: float = 1.0
    #: Extra deposits by the best-so-far ant (0 = plain Ant System).
    elitist_weight: float = 0.0
    #: MMAS pheromone clamping (None disables).
    tau_min: Optional[float] = None
    tau_max: Optional[float] = None
    #: Apply 2-opt to each constructed tour.
    local_search: bool = False
    #: Selection method name or instance for the next-city roulette.
    selection: Union[str, SelectionMethod] = "log_bidding"
    #: Construction engine: "scalar" runs the per-ant Python loop,
    #: "vectorized" advances all ants in lockstep through the
    #: repro.engine.colony kernel (one batched selection per step).
    engine: str = "scalar"

    def __post_init__(self) -> None:
        if self.engine not in ("scalar", "vectorized"):
            raise ACOError(
                f"engine must be 'scalar' or 'vectorized', got {self.engine!r}"
            )
        if self.n_ants <= 0:
            raise ACOError(f"n_ants must be positive, got {self.n_ants}")
        if not 0.0 < self.rho <= 1.0:
            raise ACOError(f"rho must be in (0, 1], got {self.rho}")
        if self.alpha < 0 or self.beta < 0:
            raise ACOError("alpha and beta must be non-negative")
        if self.q <= 0:
            raise ACOError(f"q must be positive, got {self.q}")
        if self.elitist_weight < 0:
            raise ACOError("elitist_weight must be non-negative")
        if (self.tau_min is None) != (self.tau_max is None):
            raise ACOError("tau_min and tau_max must be set together")
        if self.tau_min is not None and not 0 < self.tau_min <= self.tau_max:
            raise ACOError("need 0 < tau_min <= tau_max")


@dataclass
class ConstructionStats:
    """Sparsity statistics of the roulette calls in one colony run."""

    #: Number of roulette selections performed.
    selections: int = 0
    #: Sum over selections of the candidate count k (non-zero fitness).
    k_sum: int = 0
    #: Histogram of k values (index = k).
    k_histogram: List[int] = field(default_factory=list)

    def record(self, k: int) -> None:
        """Record one selection with ``k`` positive-fitness candidates."""
        self.selections += 1
        self.k_sum += k
        if k >= len(self.k_histogram):
            self.k_histogram.extend([0] * (k + 1 - len(self.k_histogram)))
        self.k_histogram[k] += 1

    def record_many(self, ks: np.ndarray) -> None:
        """Record a batch of selections (vectorised construction path)."""
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size == 0:
            return
        self.selections += int(ks.size)
        self.k_sum += int(ks.sum())
        top = int(ks.max())
        if top >= len(self.k_histogram):
            self.k_histogram.extend([0] * (top + 1 - len(self.k_histogram)))
        if int(ks.min()) == top:
            # A lockstep step usually records one identical k per ant;
            # skip the histogram scan for that single occupied bin.
            self.k_histogram[top] += int(ks.size)
            return
        counts = np.bincount(ks, minlength=top + 1)
        for k in np.flatnonzero(counts):
            self.k_histogram[int(k)] += int(counts[k])

    def record_uniform(self, k: int, count: int) -> None:
        """Record ``count`` selections that all saw ``k`` candidates.

        Pure-integer fast path for the lockstep kernel, where one step
        records the same ``k`` for every ant; equivalent to
        ``record_many(np.full(count, k))`` without touching numpy.
        """
        self.selections += count
        self.k_sum += k * count
        if k >= len(self.k_histogram):
            self.k_histogram.extend([0] * (k + 1 - len(self.k_histogram)))
        self.k_histogram[k] += count

    @property
    def mean_k(self) -> float:
        """Average candidate count per roulette call."""
        return self.k_sum / self.selections if self.selections else 0.0


class AntSystem:
    """An Ant System colony over one TSP instance.

    Parameters
    ----------
    instance:
        The TSP to solve.
    config:
        Hyper-parameters (see :class:`AntSystemConfig`).
    rng:
        Seed / generator for all stochastic choices.
    """

    def __init__(
        self,
        instance: TSPInstance,
        config: Optional[AntSystemConfig] = None,
        rng=None,
    ) -> None:
        self.instance = instance
        self.config = config or AntSystemConfig()
        self.rng = resolve_rng(rng)
        sel = self.config.selection
        self.selector: SelectionMethod = (
            sel if isinstance(sel, SelectionMethod) else get_method(sel)
        )
        n = instance.n
        self._eta_beta = instance.visibility() ** self.config.beta
        # Conventional tau0 = n_ants / L_nn keeps early pheromone on the
        # scale of one iteration's deposits.
        nn_len = nearest_neighbour_tour(instance).length
        self._tau0 = self.config.n_ants / max(nn_len, 1e-12)
        self.pheromone = np.full((n, n), self._tau0, dtype=np.float64)
        np.fill_diagonal(self.pheromone, 0.0)
        self.best_tour: Optional[Tour] = None
        self.history: List[float] = []
        self.stats = ConstructionStats()
        # Reusable buffers for the lockstep kernel (keyed by shape).
        self._lockstep_ws: dict = {}

    # ------------------------------------------------------------------
    def _desirability(self) -> np.ndarray:
        """``tau^alpha * eta^beta`` for the current pheromone state."""
        if self.config.alpha == 1.0:
            # Dorigo's default; np.power is ~10x a multiply even for
            # exponent 1.0, and this runs once per iteration on n^2 cells.
            return self.pheromone * self._eta_beta
        return (self.pheromone**self.config.alpha) * self._eta_beta

    def construct_tour(
        self,
        start: Optional[int] = None,
        rng=None,
        desirability: Optional[np.ndarray] = None,
    ) -> Tour:
        """Build one ant's tour with roulette next-city selection.

        ``rng`` overrides the colony generator (the equivalence tests
        drive each ant from its own :class:`~repro.engine.colony.AntStreams`
        substream); ``desirability`` accepts the hoisted per-iteration
        ``tau^alpha * eta^beta`` so :meth:`step` computes it once for
        the whole colony instead of once per ant.
        """
        n = self.instance.n
        rng = self.rng if rng is None else resolve_rng(rng)
        if desirability is None:
            desirability = self._desirability()
        order = np.empty(n, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        current = (
            int(rng.random() * n) % n if start is None else int(start)
        )
        order[0] = current
        visited[current] = True
        for step in range(1, n):
            fitness = np.where(visited, 0.0, desirability[current])
            k = int(np.count_nonzero(fitness))
            if k == 0:
                # Pheromone/visibility can underflow to zero rows (e.g.
                # coincident cities); fall back to uniform over unvisited.
                fitness = (~visited).astype(np.float64)
                k = int(fitness.sum())
            self.stats.record(k)
            nxt = self.selector.select(fitness, rng)
            order[step] = nxt
            visited[nxt] = True
            current = nxt
        tour = Tour(self.instance, order)
        if self.config.local_search:
            tour = two_opt(self.instance, tour)
        return tour

    def _iteration_tours_scalar(self) -> List[Tour]:
        """One iteration's tours via the per-ant loop, desirability hoisted.

        ``tau^alpha * eta^beta`` only changes between iterations, so the
        two O(n^2) power/multiply passes are computed once here and
        shared by every ant instead of recomputed per ant.
        """
        desirability = self._desirability()
        return [
            self.construct_tour(desirability=desirability)
            for _ in range(self.config.n_ants)
        ]

    def construct_tours_lockstep(
        self, count: Optional[int] = None, streams=None
    ) -> List[Tour]:
        """Construct tours with the lockstep engine kernel.

        All ants advance one city per kernel step against an
        ``(n_ants, n)`` choice-weight matrix; one vectorised batched
        selection replaces ``n_ants`` scalar Python calls.  With
        ``streams`` (an :class:`~repro.engine.colony.AntStreams`) the
        faithful replay kernel reproduces, ant for ant, the exact draws
        of :meth:`construct_tour` run with ``rng=streams.generator(i)``
        — the seed-for-seed equivalence mode.  Falls back to the scalar
        loop for selection methods without a lockstep kernel.
        """
        from repro.engine.colony import (
            LOCKSTEP_METHODS,
            tsp_lockstep_orders,
            tsp_lockstep_orders_faithful,
        )

        count = self.config.n_ants if count is None else int(count)
        if count <= 0:
            raise ACOError(f"count must be positive, got {count}")
        if self.selector.name not in LOCKSTEP_METHODS:
            desirability = self._desirability()
            return [
                self.construct_tour(desirability=desirability)
                for _ in range(count)
            ]
        desirability = self._desirability()
        if streams is not None:
            orders = tsp_lockstep_orders_faithful(
                desirability,
                streams,
                method=self.selector.name,
                stats=self.stats,
            )
        else:
            orders = tsp_lockstep_orders(
                desirability,
                count,
                self.rng,
                method=self.selector.name,
                stats=self.stats,
                workspace=self._lockstep_ws,
            )
        # One vectorised pass for every tour length; the kernel emits
        # permutations by construction, so skip per-tour revalidation.
        d = self.instance.distances
        lengths = d[orders[:, :-1], orders[:, 1:]].sum(axis=1)
        lengths += d[orders[:, -1], orders[:, 0]]
        tours = [
            Tour.from_valid(self.instance, orders[i], lengths[i])
            for i in range(len(orders))
        ]
        if self.config.local_search:
            tours = [two_opt(self.instance, t) for t in tours]
        return tours

    # ------------------------------------------------------------------
    def _deposit(self, tours: List[Tour]) -> None:
        cfg = self.config
        self.pheromone *= 1.0 - cfg.rho
        for tour in tours:
            amount = cfg.q / tour.length
            a = tour.order
            b = np.roll(a, -1)
            self.pheromone[a, b] += amount
            self.pheromone[b, a] += amount
        if cfg.elitist_weight > 0 and self.best_tour is not None:
            amount = cfg.elitist_weight * cfg.q / self.best_tour.length
            a = self.best_tour.order
            b = np.roll(a, -1)
            self.pheromone[a, b] += amount
            self.pheromone[b, a] += amount
        if cfg.tau_min is not None:
            np.clip(self.pheromone, cfg.tau_min, cfg.tau_max, out=self.pheromone)
        np.fill_diagonal(self.pheromone, 0.0)

    def step(self) -> Tour:
        """One colony iteration; returns the iteration-best tour."""
        if self.config.engine == "vectorized":
            tours = self.construct_tours_lockstep()
        else:
            tours = self._iteration_tours_scalar()
        iteration_best = min(tours, key=lambda t: t.length)
        if self.best_tour is None or iteration_best.length < self.best_tour.length:
            self.best_tour = iteration_best
        self._deposit(tours)
        self.history.append(self.best_tour.length)
        return iteration_best

    def run(self, iterations: int) -> Tour:
        """Run ``iterations`` colony steps; returns the best-so-far tour."""
        if iterations <= 0:
            raise ACOError(f"iterations must be positive, got {iterations}")
        for _ in range(iterations):
            self.step()
        assert self.best_tour is not None
        return self.best_tour

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        best = f"{self.best_tour.length:.2f}" if self.best_tour else "-"
        return (
            f"AntSystem(instance={self.instance.name!r}, ants={self.config.n_ants}, "
            f"selection={self.selector.name!r}, best={best})"
        )

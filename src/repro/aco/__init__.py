"""Ant-colony optimisation — the paper's motivating application.

The paper motivates parallel roulette selection by ACO for the TSP
(refs [1]–[3]): each construction step selects the next city with
probability proportional to ``pheromone^alpha * visibility^beta``, with
*visited cities carrying fitness zero* — the many-zeros regime in which
the O(log k) race shines.  This package provides:

* :mod:`repro.aco.tsp` — TSP instances, tours, nearest-neighbour and
  2-opt heuristics, and an Ant System / MMAS colony whose next-city
  selection is any registered :class:`repro.core.methods.SelectionMethod`,
* :mod:`repro.aco.coloring` — the vertex-coloring ACO of ref [4], again
  with pluggable selection.

Both record per-step ``(k, n)`` statistics so the benchmarks can measure
how sparse real ACO selection actually is.
"""

from repro.aco.tsp import (
    ACSConfig,
    AntColonySystem,
    AntSystem,
    AntSystemConfig,
    TSPInstance,
    Tour,
    nearest_neighbour_tour,
    two_opt,
)
from repro.aco.coloring import ColoringColony, ColoringConfig, ColoringInstance
from repro.aco.qap import QAPColony, QAPConfig, QAPInstance

__all__ = [
    "TSPInstance",
    "Tour",
    "nearest_neighbour_tour",
    "two_opt",
    "AntSystem",
    "AntSystemConfig",
    "AntColonySystem",
    "ACSConfig",
    "ColoringInstance",
    "ColoringColony",
    "ColoringConfig",
    "QAPInstance",
    "QAPColony",
    "QAPConfig",
]

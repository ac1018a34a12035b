"""repro — Logarithmic Random Bidding for Parallel Roulette Wheel Selection.

A full reproduction of Nakano (IPPS 2024): the logarithmic random bidding
selection rule, its CRCW-PRAM O(log k) max race, the prefix-sum and
independent-roulette baselines, a step-exact PRAM simulator, from-scratch
PRNGs (incl. the paper's Mersenne Twister), exact bias analytics for the
baseline, and the ant-colony TSP / vertex-coloring applications that
motivate the method.

Quick start::

    >>> import repro
    >>> repro.select([0, 1, 2, 3], rng=42)          # Pr[i] = i/6, exact
    >>> repro.select_many([5, 1, 4], 1000, rng=0)   # vectorised batch

See README.md for the architecture tour and ``python -m repro --list``
for the paper-reproduction experiments.
"""

import importlib

from repro._version import __version__
from repro.core import (
    FitnessVector,
    RouletteWheel,
    available_methods,
    exact_methods,
    exact_probabilities,
    get_method,
    sample_without_replacement,
    select,
    select_many,
    selection_counts,
    streaming_select,
    StreamingSelector,
)

__all__ = [
    "__version__",
    "select",
    "select_many",
    "selection_counts",
    "sample_without_replacement",
    "streaming_select",
    "StreamingSelector",
    "RouletteWheel",
    "FitnessVector",
    "exact_probabilities",
    "available_methods",
    "exact_methods",
    "get_method",
    "core",
    "engine",
    "pram",
    "parallel",
    "msg",
    "simt",
    "rng",
    "stats",
    "aco",
    "audit",
    "bench",
    "service",
]

#: Subpackages resolve on first attribute access (PEP 562), so ``import
#: repro`` pays only for ``repro.core``; a command imports the rest of
#: the stack (and SciPy / networkx behind it) only if it uses it.
_SUBPACKAGES = frozenset(__all__) - frozenset(globals())


def __getattr__(name):
    if name in _SUBPACKAGES:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

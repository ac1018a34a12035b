"""The paper's primary contribution: exact roulette wheel selection.

Public surface:

* :func:`repro.core.selector.select` / :class:`RouletteWheel` — one-stop
  selection with a pluggable method,
* :mod:`repro.core.methods` — every selection algorithm (the paper's
  logarithmic random bidding, the two baselines it discusses, and the
  classic exact samplers used as additional references),
* :func:`repro.core.bidding.log_bid_keys` and friends — the raw key
  transforms, exposed for the PRAM/thread substrates,
* :func:`repro.core.without_replacement.sample_without_replacement` —
  the natural k-item extension via Efraimidis–Spirakis keys,
* :class:`repro.core.streaming.StreamingSelector` — one-pass selection
  over a fitness stream in O(1) memory.
"""

from repro.core.fitness import FitnessVector, validate_fitness, exact_probabilities
from repro.core.bidding import (
    log_bid_keys,
    gumbel_keys,
    es_keys,
    independent_keys,
    winner_from_uniforms,
)
from repro.core.methods import (
    SelectionMethod,
    available_methods,
    exact_methods,
    get_method,
    register_method,
)
from repro.core.selector import RouletteWheel, select, select_many, selection_counts
from repro.core.without_replacement import sample_without_replacement
from repro.core.streaming import StreamingReservoir, StreamingSelector, streaming_select
from repro.core.dynamic import FenwickSampler

__all__ = [
    "FitnessVector",
    "validate_fitness",
    "exact_probabilities",
    "log_bid_keys",
    "gumbel_keys",
    "es_keys",
    "independent_keys",
    "winner_from_uniforms",
    "SelectionMethod",
    "available_methods",
    "exact_methods",
    "get_method",
    "register_method",
    "RouletteWheel",
    "select",
    "select_many",
    "selection_counts",
    "sample_without_replacement",
    "StreamingSelector",
    "StreamingReservoir",
    "streaming_select",
    "FenwickSampler",
]

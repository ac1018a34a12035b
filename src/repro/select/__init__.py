"""Selection workloads on the engine: parallel R&S and smooth lotteries.

Two workloads from PAPERS.md that exercise the engine where the paper's
*precise probabilities* actually matter, both first-class
:mod:`repro.lab` scenarios and both gated by ``python -m repro
bench select`` (→ ``BENCH_select.json``):

* :mod:`repro.select.rs` — parallel ranking & selection (Ni, Henderson
  & Ciocan): best-arm identification over simulated systems whose
  stochastic outputs are :class:`repro.engine.compiled.CompiledWheel`
  draws, with elimination-style screening rounds fanned out across
  processes on deterministic substreams;
* :mod:`repro.select.lottery` — smooth partial lotteries (Goldberg,
  Fanti & Shah): a size-``k`` committee lottery with score-smoothed
  marginal probabilities, compiled (via the systematic Madow
  decomposition) into ONE roulette wheel over at most ``K`` candidate
  committees — so the committee draw inherits the engine backend's
  probability guarantee directly.  The precise log-bidding backend
  realises the target marginals exactly; the paper's independent-
  roulette baseline visibly does not.

Importing this package rebinds the ``repro.select`` attribute from the
top-level :func:`repro.core.selector.select` function to this module
(standard submodule-import semantics), so the module is itself callable
and forwards to that function — ``repro.select([0, 1, 2], rng=0)``
keeps working whether or not the workloads were imported first.
"""

import sys
import types

from repro.core.selector import select as _select
from repro.select.lottery import (
    CommitteeLottery,
    decompose_marginals,
    smooth_marginals,
)
from repro.select.rs import (
    RSInstance,
    ScreenResult,
    make_systems,
    run_rs,
    screen,
)

__all__ = [
    "smooth_marginals",
    "decompose_marginals",
    "CommitteeLottery",
    "RSInstance",
    "ScreenResult",
    "make_systems",
    "screen",
    "run_rs",
]


class _CallableModule(types.ModuleType):
    """Module that forwards calls to the top-level ``select`` function."""

    def __call__(self, fitness, rng=None, method=None):
        if method is None:
            return _select(fitness, rng=rng)
        return _select(fitness, rng=rng, method=method)


sys.modules[__name__].__class__ = _CallableModule

"""Statistical machinery for validating selection distributions.

* :mod:`repro.stats.empirical` — frequency collection over draws,
* :mod:`repro.stats.gof` — goodness-of-fit tests and distribution
  distances (chi-square, G-test, total variation, KL, max abs error),
* :mod:`repro.stats.exact` — closed-form win probabilities: the target
  ``F_i`` for exact methods and the piecewise-polynomial integral for the
  paper's biased independent-roulette baseline (this is how Table II's
  ``1.58e-32`` is computed rather than observed),
* :mod:`repro.stats.confidence` — Wilson intervals and standard errors
  used by the Monte-Carlo harness,
* :mod:`repro.stats.runtime` — runtime samples and the Las Vegas
  speedup model (Truchet, Richoux & Codognet) plus the work-sharing
  speedup model.
"""

from repro.stats.empirical import EmpiricalDistribution, collect_counts
from repro.stats.gof import (
    GofResult,
    chi_square_gof,
    g_test_gof,
    kl_divergence,
    max_abs_error,
    tv_distance,
)
from repro.stats.exact import (
    independent_win_probabilities,
    independent_win_probability_numeric,
    log_bidding_win_probabilities,
    log_bidding_win_probability_numeric,
)
from repro.stats.confidence import standard_errors, wilson_interval
from repro.stats.power import (
    cohen_w,
    detectable_effect,
    detection_power,
    required_draws,
)
from repro.stats.race_theory import (
    expected_rounds,
    harmonic,
    paper_bound,
    rounds_distribution,
    rounds_tail_bound,
    variance_rounds,
)

__all__ = [
    "EmpiricalDistribution",
    "collect_counts",
    "GofResult",
    "chi_square_gof",
    "g_test_gof",
    "tv_distance",
    "kl_divergence",
    "max_abs_error",
    "independent_win_probabilities",
    "independent_win_probability_numeric",
    "log_bidding_win_probabilities",
    "log_bidding_win_probability_numeric",
    "wilson_interval",
    "standard_errors",
    "harmonic",
    "expected_rounds",
    "variance_rounds",
    "rounds_distribution",
    "rounds_tail_bound",
    "paper_bound",
    "cohen_w",
    "detection_power",
    "required_draws",
    "detectable_effect",
]

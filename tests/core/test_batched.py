"""Batched row-wise selection: ``lockstep_select`` in fast mode.

One wheel per row of a fitness matrix and one winner per row — the
data-parallel layout of the lockstep colony kernels.
"""

import numpy as np
import pytest

from repro.engine.colony import LOCKSTEP_METHODS, lockstep_select
from repro.errors import DegenerateFitnessError, FitnessError, UnknownMethodError
from repro.stats.gof import chi_square_gof


class TestValidation:
    def test_requires_2d(self):
        with pytest.raises(FitnessError):
            lockstep_select(np.array([1.0, 2.0]))

    def test_rejects_negative(self):
        with pytest.raises(FitnessError):
            lockstep_select(np.array([[1.0, -1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(FitnessError):
            lockstep_select(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(FitnessError):
            lockstep_select(np.empty((0, 0)))

    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            lockstep_select(np.ones((2, 2)), method="alias")


class TestSemantics:
    @pytest.mark.parametrize("method", LOCKSTEP_METHODS)
    def test_winners_in_range(self, method, rng):
        f = rng.random((100, 7))
        winners = lockstep_select(f, rng=rng, method=method)
        assert winners.shape == (100,)
        assert np.all((winners >= 0) & (winners < 7))

    @pytest.mark.parametrize("method", ["log_bidding", "prefix_sum", "gumbel"])
    def test_zero_columns_never_win(self, method, rng):
        f = np.tile([0.0, 1.0, 0.0, 2.0], (500, 1))
        winners = lockstep_select(f, rng=rng, method=method)
        assert set(np.unique(winners)) <= {1, 3}

    def test_degenerate_rows_flagged(self, rng):
        """A row without positive fitness is named in the raised error."""
        f = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
        with pytest.raises(DegenerateFitnessError, match="row 1"):
            lockstep_select(f, rng=rng)

    def test_rows_independent(self):
        """Each row must get its own randomness, not a shared spin."""
        f = np.tile([1.0, 1.0], (2000, 1))
        winners = lockstep_select(f, rng=np.random.default_rng(0))
        # A shared spin would make all rows identical.
        assert 0 < winners.sum() < 2000

    def test_deterministic_per_seed(self):
        f = np.random.default_rng(3).random((50, 5))
        a = lockstep_select(f, rng=np.random.default_rng(9))
        b = lockstep_select(f, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestDistribution:
    @pytest.mark.parametrize("method", ["log_bidding", "gumbel", "prefix_sum"])
    def test_exact_methods_match_target(self, method):
        f = np.tile([0.0, 1.0, 2.0, 3.0], (60_000, 1))
        winners = lockstep_select(f, rng=np.random.default_rng(7), method=method)
        counts = np.bincount(winners, minlength=4)
        res = chi_square_gof(counts, np.array([0, 1, 2, 3]) / 6.0)
        assert not res.reject(1e-4), method

    def test_independent_is_biased_rowwise(self):
        f = np.tile(np.arange(10.0), (60_000, 1))
        winners = lockstep_select(f, rng=np.random.default_rng(8), method="independent")
        counts = np.bincount(winners, minlength=10)
        res = chi_square_gof(counts, np.arange(10.0) / 45.0)
        assert res.reject(0.001)

    def test_heterogeneous_rows(self):
        """Different wheels per row must each follow their own target."""
        f = np.zeros((40_000, 3))
        f[::2] = [1.0, 1.0, 0.0]
        f[1::2] = [0.0, 1.0, 3.0]
        winners = lockstep_select(f, rng=np.random.default_rng(5))
        even = np.bincount(winners[::2], minlength=3)
        odd = np.bincount(winners[1::2], minlength=3)
        assert not chi_square_gof(even, np.array([0.5, 0.5, 0.0])).reject(1e-4)
        assert not chi_square_gof(odd, np.array([0.0, 0.25, 0.75])).reject(1e-4)


class TestVectorisedColony:
    """The Ant System's lockstep construction (``engine="vectorized"``)."""

    def test_batch_equals_loop_statistics(self):
        from repro.aco import AntSystem, AntSystemConfig, TSPInstance

        inst = TSPInstance.random_euclidean(20, seed=4)
        seq = AntSystem(inst, AntSystemConfig(n_ants=8), rng=0)
        vec = AntSystem(inst, AntSystemConfig(n_ants=8, engine="vectorized"), rng=0)
        seq.run(3)
        vec.run(3)
        assert seq.stats.selections == vec.stats.selections
        assert seq.stats.mean_k == pytest.approx(vec.stats.mean_k)
        # Same search dynamics: quality within a loose band.
        assert abs(seq.best_tour.length - vec.best_tour.length) < 0.5 * seq.best_tour.length

    def test_batch_tours_valid(self):
        from repro.aco import AntSystem, AntSystemConfig, TSPInstance

        inst = TSPInstance.random_euclidean(15, seed=5)
        colony = AntSystem(inst, AntSystemConfig(n_ants=6, engine="vectorized"), rng=1)
        tours = colony.construct_tours_lockstep(6)
        for t in tours:
            assert sorted(t.order.tolist()) == list(range(15))

    def test_batch_count_validation(self):
        from repro.aco import AntSystem, TSPInstance
        from repro.errors import ACOError

        inst = TSPInstance.random_euclidean(10, seed=6)
        with pytest.raises(ACOError):
            AntSystem(inst, rng=0).construct_tours_lockstep(0)

    def test_non_batchable_method_falls_back(self):
        from repro.aco import AntSystem, AntSystemConfig, TSPInstance

        inst = TSPInstance.random_euclidean(10, seed=7)
        colony = AntSystem(
            inst, AntSystemConfig(n_ants=3, selection="alias", engine="vectorized"), rng=2
        )
        best = colony.run(2)
        assert sorted(best.order.tolist()) == list(range(10))

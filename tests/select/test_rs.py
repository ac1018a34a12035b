"""Ranking & selection: slippage instances, screening, PCS, determinism."""

import numpy as np
import pytest

from repro.select.rs import RSInstance, make_systems, run_rs, screen
from repro.stats.runtime import RuntimeSample


class TestMakeSystems:
    def test_means_are_exact(self):
        inst = make_systems(8, 0.05, best_mean=0.6)
        assert inst.best == 0
        assert inst.means[0] == pytest.approx(0.6, abs=1e-9)
        np.testing.assert_allclose(inst.means[1:], 0.55, atol=1e-9)

    def test_best_index_is_configurable(self):
        inst = make_systems(5, 0.1, best=3)
        assert inst.best == 3
        assert inst.means[3] == inst.means.max()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_systems(0, 0.1)
        for delta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                make_systems(4, delta)
        with pytest.raises(ValueError):
            make_systems(4, 0.1, outcomes=1)
        with pytest.raises(ValueError):
            make_systems(4, 0.1, best=4)


class TestScreen:
    def test_selects_the_true_best(self):
        inst = make_systems(6, 0.1)
        result = screen(inst, alpha=0.1, n0=64, seed=5)
        assert result.correct and result.selected == inst.best
        assert result.total_samples > 0
        assert len(result.round_seconds) == result.rounds

    def test_single_system_trivial(self):
        inst = make_systems(1, 0.1)
        result = screen(inst, seed=0)
        assert result.selected == 0 and result.correct
        assert result.rounds == 0 and result.total_samples == 0

    def test_records_round_times(self):
        sample = RuntimeSample(unit="s")
        screen(make_systems(6, 0.1), n0=16, seed=1, round_sample=sample)
        assert sample.count >= 1

    def test_replications_differ_by_seed(self):
        inst = make_systems(8, 0.02, outcomes=9)
        budgets = {
            screen(inst, n0=8, max_rounds=3, seed=s).total_samples
            for s in range(8)
        }
        # Elimination histories (and thus budgets) vary across seeds.
        assert len(budgets) > 1

    def test_rejects_bad_inputs(self):
        inst = make_systems(3, 0.1)
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                screen(inst, alpha=alpha)
        with pytest.raises(ValueError):
            screen(inst, n0=1)
        with pytest.raises(ValueError):
            screen(inst, growth=0.5)
        with pytest.raises(ValueError):
            screen(inst, max_rounds=0)


class TestRunRS:
    def test_pcs_meets_the_guarantee(self):
        # The statistical gate: the Bonferroni screen must hold
        # PCS >= 1 - alpha on the known-ground-truth slippage
        # configuration.
        inst = make_systems(10, 0.1)
        report = run_rs(inst, 50, alpha=0.1, n0=32, seed=0, workers=1)
        assert report["pcs"] >= 0.9
        assert report["true_best"] == inst.best
        assert report["total_samples"] == sum(
            [report["mean_samples"] * report["replications"]]
        )

    def test_n_worker_replay_is_bitwise_identical(self):
        inst = make_systems(6, 0.05)
        kwargs = dict(alpha=0.1, n0=16, max_rounds=5, seed=11)
        solo = run_rs(inst, 9, workers=1, **kwargs)
        for workers in (2, 3, 4):
            fanned = run_rs(inst, 9, workers=workers, **kwargs)
            assert fanned["selected"] == solo["selected"]
            assert fanned["total_samples"] == solo["total_samples"]
            assert fanned["pcs"] == solo["pcs"]

    def test_workers_capped_by_replications(self):
        inst = make_systems(4, 0.1)
        report = run_rs(inst, 2, n0=8, max_rounds=2, seed=0, workers=8)
        assert report["workers"] == 2

    def test_auto_workers_resolves(self):
        inst = make_systems(4, 0.1)
        report = run_rs(inst, 2, n0=8, max_rounds=2, seed=0)
        assert report["workers"] >= 1

    def test_round_sample_collects_all_replications(self):
        sample = RuntimeSample(unit="s")
        inst = make_systems(5, 0.1)
        report = run_rs(
            inst, 4, n0=16, max_rounds=4, seed=3, workers=1,
            round_sample=sample,
        )
        assert sample.count >= report["replications"]

    def test_rejects_bad_inputs(self):
        inst = make_systems(3, 0.1)
        with pytest.raises(ValueError):
            run_rs(inst, 0)
        with pytest.raises(ValueError):
            run_rs(inst, 4, workers=0)


class TestRSInstance:
    def test_properties(self):
        inst = RSInstance(
            values=np.linspace(0, 1, 5),
            wheels=[np.ones(5), np.ones(5)],
            means=np.asarray([0.4, 0.6]),
            delta=0.2,
        )
        assert inst.n_systems == 2
        assert inst.best == 1

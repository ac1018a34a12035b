"""The lockstep colony kernel: law, determinism, contracts, validity."""

import numpy as np
import pytest

from repro.aco.tsp.colony import ConstructionStats
from repro.engine.colony import (
    CDF_METHODS,
    DEFAULT_BLOCK,
    LOCKSTEP_METHODS,
    AntStreams,
    blocked_choice,
    lockstep_keys,
    lockstep_select,
    tsp_lockstep_orders,
    tsp_lockstep_orders_faithful,
)
from repro.errors import DegenerateFitnessError, FitnessError, UnknownMethodError


def _naive_inverse_cdf(W, spins):
    """Reference: per-row linear inverse-CDF scan, -1 for zero rows."""
    out = np.full(W.shape[0], -1, dtype=np.int64)
    for i, row in enumerate(W):
        total = row.sum()
        if total <= 0.0:
            continue
        target = spins[i] * total
        acc = 0.0
        for j, w in enumerate(row):
            acc += w
            if acc > target:
                out[i] = j
                break
        else:
            out[i] = int(np.flatnonzero(row > 0.0)[-1])
    return out


class TestBlockedChoice:
    """The two-level blocked scan vs the naive linear reference."""

    @pytest.mark.parametrize("block", [1, 3, 8, DEFAULT_BLOCK, 100])
    def test_matches_naive_scan(self, block):
        rng = np.random.default_rng(11)
        W = rng.random((40, 37))
        W[W < 0.3] = 0.0  # plenty of zero-fitness holes
        spins = rng.random(40)
        got = blocked_choice(W, spins, block=block)
        want = _naive_inverse_cdf(W, spins)
        assert np.array_equal(got, want)

    def test_zero_total_rows_return_minus_one(self):
        W = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        got = blocked_choice(W, np.array([0.5, 0.5]))
        assert got[0] == -1
        assert got[1] in (0, 1, 2)

    def test_law_matches_exact_probabilities(self):
        rng = np.random.default_rng(5)
        w = np.array([0.1, 0.0, 0.4, 0.5])
        W = np.tile(w, (4000, 1))
        counts = np.zeros(4, dtype=np.int64)
        for _ in range(25):
            winners = blocked_choice(W, np.asarray(rng.random(4000)))
            counts += np.bincount(winners, minlength=4)
        freq = counts / counts.sum()
        assert freq[1] == 0.0
        assert np.abs(freq - w).max() < 0.01


class TestLockstepSelect:
    """The audit-facing entry point's error contract."""

    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            lockstep_select(np.ones((2, 3)), method="nope")

    def test_invalid_fitness(self):
        with pytest.raises(FitnessError):
            lockstep_select(np.array([[1.0, np.nan]]), method="log_bidding")
        with pytest.raises(FitnessError):
            lockstep_select(np.array([[1.0, -2.0]]), method="log_bidding")

    def test_degenerate_rows(self):
        W = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateFitnessError):
            lockstep_select(W, method="log_bidding")

    def test_stream_count_mismatch(self):
        with pytest.raises(ValueError):
            lockstep_select(
                np.ones((3, 4)), method="log_bidding", streams=AntStreams(0, 2)
            )

    @pytest.mark.parametrize("method", LOCKSTEP_METHODS)
    def test_faithful_matches_per_row_scalar(self, method):
        """streams mode must replay the scalar method row by row."""
        from repro.core.methods.base import get_method

        rng = np.random.default_rng(3)
        W = rng.random((6, 9))
        W[W < 0.25] = 0.0
        W[:, 2] += 0.01  # keep every row alive
        streams = AntStreams(42, 6)
        got = lockstep_select(W, method=method, streams=streams)
        sel = get_method(method)
        want = np.array(
            [sel.select(W[i], AntStreams(42, 6).generator(i)) for i in range(6)]
        )
        assert np.array_equal(got, want)


class TestAntStreams:
    """Substream spawning: deterministic, independent, tuple-seedable."""

    def test_deterministic(self):
        a, b = AntStreams(7, 5), AntStreams(7, 5)
        assert np.array_equal(a.generator(3).random(4), b.generator(3).random(4))

    def test_streams_differ(self):
        s = AntStreams(7, 2)
        assert not np.allclose(s.generator(0).random(8), s.generator(1).random(8))

    def test_tuple_seed(self):
        a, b = AntStreams((7, 1), 3), AntStreams((7, 2), 3)
        assert not np.allclose(a.generator(0).random(8), b.generator(0).random(8))

    def test_len(self):
        assert len(AntStreams(0, 9)) == 9


class TestTspLockstepOrders:
    """Fast-mode TSP construction: validity, stats, determinism."""

    @pytest.mark.parametrize("method", LOCKSTEP_METHODS)
    def test_orders_are_permutations(self, method):
        n, m = 23, 7
        rng = np.random.default_rng(1)
        D = rng.random((n, n)) + 0.01
        np.fill_diagonal(D, 0.0)
        orders = tsp_lockstep_orders(D, m, np.random.default_rng(2), method=method)
        assert orders.shape == (m, n)
        for row in orders:
            assert sorted(row.tolist()) == list(range(n))

    def test_stats_countdown(self):
        """With all-positive weights each step has k = n - step for all ants."""
        n, m = 12, 5
        rng = np.random.default_rng(4)
        D = rng.random((n, n)) + 0.01
        np.fill_diagonal(D, 0.0)
        stats = ConstructionStats()
        tsp_lockstep_orders(D, m, np.random.default_rng(0), stats=stats)
        assert stats.selections == m * (n - 1)
        assert stats.k_sum == m * sum(range(1, n))
        for k in range(1, n):
            assert stats.k_histogram[k] == m

    def test_workspace_reuse_is_deterministic(self):
        n, m = 19, 6
        rng = np.random.default_rng(9)
        D = rng.random((n, n)) + 0.01
        np.fill_diagonal(D, 0.0)
        ws = {}
        a = tsp_lockstep_orders(D, m, np.random.default_rng(5), workspace=ws)
        b = tsp_lockstep_orders(D, m, np.random.default_rng(5), workspace=ws)
        c = tsp_lockstep_orders(D, m, np.random.default_rng(5))
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_fp64_dtype_opt_in(self):
        """dtype=float64 runs the same kernel in full precision."""
        n, m = 17, 4
        rng = np.random.default_rng(2)
        D = rng.random((n, n)) + 0.01
        np.fill_diagonal(D, 0.0)
        orders = tsp_lockstep_orders(
            D, m, np.random.default_rng(6), dtype=np.float64
        )
        for row in orders:
            assert sorted(row.tolist()) == list(range(n))

    def test_sparse_weights_still_valid(self):
        """Zero off-diagonal weights exercise the non-fused branch."""
        n, m = 21, 6
        rng = np.random.default_rng(3)
        D = rng.random((n, n))
        D[D < 0.6] = 0.0  # mostly zeros: dead-row fallback must trigger
        np.fill_diagonal(D, 0.0)
        for method in LOCKSTEP_METHODS:
            orders = tsp_lockstep_orders(D, m, np.random.default_rng(8), method=method)
            for row in orders:
                assert sorted(row.tolist()) == list(range(n))

    def test_float32_underflow_still_valid(self):
        """Weights positive in float64 but zero in float32 (a late colony)."""
        n, m = 16, 5
        D = np.full((n, n), 1e-50)
        np.fill_diagonal(D, 0.0)
        orders = tsp_lockstep_orders(D, m, np.random.default_rng(0))
        for row in orders:
            assert sorted(row.tolist()) == list(range(n))

    @staticmethod
    def _assert_first_step_law(D, row, ants=20_000):
        """First-step frequencies from city ``row`` within 5 sigma of ``F_i``."""
        n = D.shape[0]
        starts = np.full(ants, row, dtype=np.int64)
        orders = tsp_lockstep_orders(D, ants, np.random.default_rng(0), starts=starts)
        assert (np.sort(orders, axis=1) == np.arange(n)).all()
        freq = np.bincount(orders[:, 1], minlength=n) / ants
        target = D[row] / D[row].sum()
        sigma = np.sqrt(target * (1.0 - target) / ants)
        assert np.all(np.abs(freq - target) <= 5.0 * sigma + 1e-12), (freq, target)

    def test_law_exact_for_weights_below_float32_normals(self):
        """(1, 2, 3) x 1e-45 are float32 subnormals before the shift."""
        D = np.full((4, 4), 1e-45)
        np.fill_diagonal(D, 0.0)
        D[0, 1:] = np.array([1.0, 2.0, 3.0]) * 1e-45
        self._assert_first_step_law(D, 0)

    def test_law_exact_for_weights_above_float32_max(self):
        """(1..5) x 1e39 are float32 inf before the shift."""
        D = np.full((6, 6), 1e39)
        np.fill_diagonal(D, 0.0)
        D[0, 1:] = np.arange(1.0, 6.0) * 1e39
        self._assert_first_step_law(D, 0)

    def test_law_exact_past_float32_range_via_float64(self):
        """A 2^266 row range exceeds float32 even after the shift."""
        D = np.ones((4, 4))
        np.fill_diagonal(D, 0.0)
        D[0, 1:] = np.array([1.0, 2.0, 3.0]) * 1e-80
        self._assert_first_step_law(D, 0)

    @pytest.mark.parametrize("k", [-140, -60, 0, 60])
    def test_power_of_two_scale_invariance(self, k):
        """Scaling D by 2^k leaves the orders bitwise unchanged."""
        n, m = 64, 16
        D = np.random.default_rng(12).random((n, n)) + 0.01
        np.fill_diagonal(D, 0.0)
        base = tsp_lockstep_orders(D, m, np.random.default_rng(4))
        scaled = tsp_lockstep_orders(D * 2.0**k, m, np.random.default_rng(4))
        assert np.array_equal(scaled, base)

    def test_rejects_bad_inputs(self):
        D = np.ones((4, 4))
        with pytest.raises(UnknownMethodError):
            tsp_lockstep_orders(D, 2, method="nope")
        with pytest.raises(FitnessError):
            tsp_lockstep_orders(np.ones((3, 4)), 2)
        with pytest.raises(ValueError):
            tsp_lockstep_orders(D, 0)

    def test_k_profile_records_countdown(self):
        n, m = 9, 3
        D = np.ones((n, n))
        np.fill_diagonal(D, 0.0)
        profile = []
        tsp_lockstep_orders(D, m, np.random.default_rng(0), k_profile=profile)
        assert profile == [float(n - step) for step in range(1, n)]


class TestFaithfulKernel:
    """The faithful kernel vs a hand-rolled per-ant scalar replay."""

    @pytest.mark.parametrize("method", LOCKSTEP_METHODS)
    def test_matches_scalar_arithmetic(self, method):
        from repro.core.methods.base import get_method

        n, m = 14, 5
        rng = np.random.default_rng(21)
        D = rng.random((n, n)) + 0.01
        np.fill_diagonal(D, 0.0)
        orders = tsp_lockstep_orders_faithful(D, AntStreams(77, m), method=method)

        sel = get_method(method)
        ref_streams = AntStreams(77, m)
        for i in range(m):
            g = ref_streams.generator(i)
            start = int(np.asarray(g.random(1))[0] * n) % n
            visited = np.zeros(n, dtype=bool)
            visited[start] = True
            order = [start]
            cur = start
            for _ in range(n - 1):
                fitness = np.where(visited, 0.0, D[cur])
                if not (fitness > 0).any():
                    fitness = (~visited).astype(float)
                cur = sel.select(fitness, g)
                visited[cur] = True
                order.append(cur)
            assert np.array_equal(orders[i], np.array(order)), method


class TestLockstepKeys:
    """Key matrices for the non-CDF (race) methods."""

    def test_independent_bias_preserved(self):
        """The independent baseline keeps its biased f*u key form."""
        rng = np.random.default_rng(0)
        W = np.tile([1.0, 10.0], (50_000, 1))
        keys = lockstep_keys(W, rng, method="independent")
        freq = (np.argmax(keys, axis=1) == 1).mean()
        # Exact law would give 10/11 = 0.909; the biased independent
        # race gives P(10u2 > u1) = 1 - 1/20 = 0.95.
        assert abs(freq - 0.95) < 0.01

    def test_cdf_methods_listed(self):
        assert set(CDF_METHODS) <= set(LOCKSTEP_METHODS)
        assert "independent" in LOCKSTEP_METHODS
        assert "independent" not in CDF_METHODS

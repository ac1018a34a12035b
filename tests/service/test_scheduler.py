"""Micro-batch scheduler: coalescing, determinism, backpressure."""

import asyncio
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
    UnknownWheelError,
)
from repro.rng.streams import request_stream
from repro.service.metrics import ServiceMetrics
from repro.service.registry import WheelRegistry, digest_key
from repro.service.scheduler import BatchConfig, MicroBatchScheduler, NaiveScheduler

SIZES = [1, 5, 17, 3, 64, 2, 9, 30]


def _registry(n=200, method="log_bidding", policy=None):
    reg = WheelRegistry(policy=policy or "auto")
    wid, _ = reg.register(np.arange(1.0, n + 1.0), method=method)
    return reg, wid


async def _gather_draws(scheduler, wid, sizes):
    return await asyncio.gather(
        *(scheduler.draw(wid, n, seed=i) for i, n in enumerate(sizes))
    )


class TestCoalescing:
    def test_requests_coalesce_into_one_batch(self):
        reg, wid = _registry()
        sched = MicroBatchScheduler(reg, BatchConfig(max_batch=len(SIZES)), seed=1)
        draws = asyncio.run(_gather_draws(sched, wid, SIZES))
        assert [len(d) for d in draws] == SIZES
        snap = sched.metrics.batch_sizes.snapshot()
        assert snap["batches"] == 1 and snap["max_size"] == len(SIZES)

    def test_solo_equals_coalesced_equals_direct(self):
        reg, wid = _registry()
        coalesced = asyncio.run(
            _gather_draws(
                MicroBatchScheduler(reg, BatchConfig(max_batch=64), seed=9), wid, SIZES
            )
        )
        solo = asyncio.run(
            _gather_draws(
                MicroBatchScheduler(reg, BatchConfig(max_batch=1), seed=9), wid, SIZES
            )
        )
        wheel = reg.get(wid)
        for i, (c, s) in enumerate(zip(coalesced, solo)):
            direct = wheel.select_many(
                SIZES[i], request_stream(9, digest_key(wid), i)
            )
            assert np.array_equal(c, s)
            assert np.array_equal(c, direct)

    def test_faithful_policy_matches_naive_scheduler(self):
        # Under the faithful kernel the batched service reproduces the
        # registry method draw-for-draw, so batched == naive bitwise.
        reg, wid = _registry(method="log_bidding", policy="faithful")
        batched = asyncio.run(
            _gather_draws(MicroBatchScheduler(reg, seed=4), wid, SIZES)
        )
        naive = asyncio.run(_gather_draws(NaiveScheduler(reg, seed=4), wid, SIZES))
        for b, n in zip(batched, naive):
            assert np.array_equal(b, n)

    def test_service_seed_changes_draws(self):
        reg, wid = _registry()
        a = asyncio.run(_gather_draws(MicroBatchScheduler(reg, seed=1), wid, [50]))
        b = asyncio.run(_gather_draws(MicroBatchScheduler(reg, seed=2), wid, [50]))
        assert not np.array_equal(a[0], b[0])

    def test_auto_seeds_are_deterministic_per_arrival_order(self):
        reg, wid = _registry()

        async def run():
            sched = MicroBatchScheduler(reg, seed=5)
            return await asyncio.gather(*(sched.draw(wid, 10) for _ in range(4)))

        first = asyncio.run(run())
        second = asyncio.run(run())
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_out_of_range_seed_fails_alone(self):
        """A seed outside [0, 2**64) is refused at admission; the
        requests it would have coalesced with are served unchanged."""
        reg, wid = _registry()
        seeds = [5, -1, 6, 2**64 - 1, 2**64, 7]

        async def burst():
            sched = MicroBatchScheduler(reg, BatchConfig(max_batch=64), seed=3)
            return await asyncio.gather(
                *(sched.draw(wid, 4, seed=s) for s in seeds), return_exceptions=True
            )

        async def solo(seed):
            sched = MicroBatchScheduler(reg, BatchConfig(max_batch=1), seed=3)
            return await sched.draw(wid, 4, seed=seed)

        for seed, got in zip(seeds, asyncio.run(burst())):
            if 0 <= seed < 2**64:
                np.testing.assert_array_equal(got, asyncio.run(solo(seed)))
            else:
                assert isinstance(got, ValueError), (seed, got)

    def test_zero_delay_flushes_immediately_without_busy_wait(self):
        reg, wid = _registry()
        sched = MicroBatchScheduler(
            reg, BatchConfig(max_batch=64, max_delay_us=0.0), seed=0
        )

        async def run():
            start = time.perf_counter()
            out = await sched.draw(wid, 5, seed=0)
            return out, time.perf_counter() - start

        out, elapsed = asyncio.run(run())
        assert len(out) == 5
        # An immediate flush is event-loop-tick fast; a busy-wait or a
        # stuck timer would blow far past this generous bound.
        assert elapsed < 1.0
        assert sched.metrics.batch_sizes.snapshot()["batches"] == 1


class TestTick:
    """One scheduler tick looks at every pending wheel once per loop pass."""

    def test_a_burst_on_k_wheels_flushes_each_wheel_once(self):
        reg = WheelRegistry()
        wids = [reg.register(np.arange(1.0, 30.0 + k))[0] for k in range(5)]
        sched = MicroBatchScheduler(reg, BatchConfig(max_batch=64), seed=2)

        async def burst():
            # Interleaved: every wheel gets a request before any gets two.
            return await asyncio.gather(
                *(sched.draw(wid, 3, seed=i) for i in range(4) for wid in wids)
            )

        draws = asyncio.run(burst())
        assert sched.metrics.batch_sizes.snapshot()["sizes"] == {"4": len(wids)}
        assert sched._queues == {} and sched._tick_handle is None
        got = iter(draws)
        for i in range(4):
            for wid in wids:
                solo = reg.get(wid).select_many(3, request_stream(2, digest_key(wid), i))
                np.testing.assert_array_equal(next(got), solo)

    @pytest.mark.parametrize("stop", ["drain", "close"])
    def test_drain_and_close_leave_no_armed_wheel(self, stop):
        reg, wid = _registry()
        other, _ = reg.register(np.arange(1.0, 50.0))
        sched = MicroBatchScheduler(reg, BatchConfig(max_delay_us=1e6), seed=0)

        async def run():
            tasks = [
                asyncio.ensure_future(sched.draw(w, 2, seed=i))
                for i, w in enumerate([wid, other, wid])
            ]
            await asyncio.sleep(0)  # the draws are admitted, not flushed
            assert set(sched._queues) == {wid, other}
            assert sched._tick_handle is not None
            await getattr(sched, stop)()
            assert sched._queues == {} and sched._tick_handle is None
            return await asyncio.gather(*tasks)

        assert [len(d) for d in asyncio.run(run())] == [2, 2, 2]
        assert sched.metrics.batch_sizes.snapshot()["batches"] == 2


class TestBatchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay_us": -1.0},
            {"max_delay_us": float("nan")},
            {"max_delay_us": float("inf")},
            {"queue_limit": 0},
            {"max_request_draws": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BatchConfig(**kwargs)


class TestBackpressure:
    @pytest.mark.parametrize(
        "config, requests",
        [
            (BatchConfig(max_batch=256, max_delay_us=50_000.0, queue_limit=4), 32),
            (BatchConfig(max_batch=8, max_delay_us=100.0, queue_limit=1), 16),
        ],
        ids=["queue_limit=4", "queue_limit=1"],
    )
    def test_admission_control_sheds(self, config, requests):
        reg, wid = _registry()
        metrics = ServiceMetrics()
        sched = MicroBatchScheduler(reg, config, seed=0, metrics=metrics)

        async def burst():
            results = await asyncio.gather(
                *(sched.draw(wid, 2) for _ in range(requests)),
                return_exceptions=True,
            )
            await sched.close()
            return results

        results = asyncio.run(burst())
        shed = [r for r in results if isinstance(r, ServiceOverloadedError)]
        served = [r for r in results if isinstance(r, np.ndarray)]
        assert len(shed) + len(served) == requests
        assert shed and served
        assert metrics.shed_total == len(shed)
        assert metrics.ok_total == len(served)

    def test_burst_never_hangs(self):
        reg, wid = _registry()
        sched = MicroBatchScheduler(
            reg, BatchConfig(queue_limit=3, max_batch=8), seed=0
        )

        async def burst():
            return await asyncio.wait_for(
                asyncio.gather(
                    *(sched.draw(wid, 1) for _ in range(64)), return_exceptions=True
                ),
                timeout=10.0,
            )

        results = asyncio.run(burst())
        assert all(
            isinstance(r, (np.ndarray, ServiceOverloadedError)) for r in results
        )

    def test_expired_deadline_fails_queued_request(self):
        reg, wid = _registry()
        sched = MicroBatchScheduler(
            reg, BatchConfig(max_batch=1024, max_delay_us=20_000.0), seed=0
        )

        async def run():
            # deadline_us=0: expired by the time the batch flushes.
            doomed = asyncio.ensure_future(sched.draw(wid, 4, deadline_us=0.0))
            await asyncio.sleep(0)
            await asyncio.sleep(0.025)
            with pytest.raises(DeadlineExceededError):
                await doomed
            await sched.close()

        asyncio.run(run())
        assert sched.metrics.expired_total == 1

    def test_unknown_wheel_rejected_before_queueing(self):
        reg, _ = _registry()
        sched = MicroBatchScheduler(reg, seed=0)

        async def run():
            with pytest.raises(UnknownWheelError):
                await sched.draw("w1:" + "f" * 64, 3)

        asyncio.run(run())
        assert sched.queued == 0

    def test_closed_scheduler_refuses(self):
        reg, wid = _registry()
        sched = MicroBatchScheduler(reg, seed=0)

        async def run():
            await sched.close()
            with pytest.raises(ServiceOverloadedError):
                await sched.draw(wid, 1)

        asyncio.run(run())

    def test_invalid_draw_sizes_rejected(self):
        reg, wid = _registry()
        sched = MicroBatchScheduler(
            reg, BatchConfig(max_request_draws=100), seed=0
        )

        async def run():
            with pytest.raises(ValueError):
                await sched.draw(wid, 0)
            with pytest.raises(ValueError):
                await sched.draw(wid, 101)

        asyncio.run(run())


class TestMetricsFlow:
    def test_lifecycle_counters_balance(self):
        reg, wid = _registry()
        sched = MicroBatchScheduler(reg, seed=0)
        asyncio.run(_gather_draws(sched, wid, SIZES))
        m = sched.metrics
        assert m.requests_total == len(SIZES)
        assert m.ok_total == len(SIZES)
        assert m.draws_total == sum(SIZES)
        assert m.queue_depth == 0
        assert m.queue_peak >= 1
        assert m.latency.count == len(SIZES)

    def test_flushed_queues_are_dropped(self):
        """A queue goes once its batch is flushed, so serving many minted
        versions leaves no per-version entry behind."""
        reg, wid = _registry()
        sched = MicroBatchScheduler(reg, BatchConfig(max_batch=4), seed=0)
        versions = [reg.update(wid, [0], [float(k + 2)])[0] for k in range(20)]

        async def run():
            for version in versions:
                await _gather_draws(sched, version, SIZES)  # max_batch and tick flushes
            return sched._queues

        assert asyncio.run(run()) == {}
        assert sched.metrics.ok_total == len(versions) * len(SIZES)

"""The serving contract as a state machine: capacity, coalescing and
sharding are invisible in every reply.

A reply is a pure function of the service seed and the request stream.
Hypothesis drives the same random stream of register, update, draw and
stats requests into a reference service and a variant, and every reply
must match exactly (``stats`` need only answer ``ok``).  The variants:

* a 3-wheel registry against an unbounded one — LRU eviction (of roots
  that were never updated, too) must never surface as an error;
* draws ``gather``ed concurrently, so they coalesce in the micro-batcher,
  against the same draws answered one at a time;
* a 2-shard cluster with a 3-wheel registry per shard against a 1-shard
  cluster (fewer examples: each one forks three shard processes);
* a 2-shard cluster against a single process.

A draw carries an explicit seed, so its reply depends only on the wheel,
the size and the seed, or none: it then takes the next auto-seed, which
both sides must assign alike, also after a draw on an unknown wheel.
Fitness values come from a tiny pool (zeros and 1e-300 included), so
registrations repeat, updates collide and degenerate wheels are refused
alike on both sides.
"""

import asyncio

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, multiple, rule

from repro.service.cluster import ClusterService
from repro.service.registry import wheel_digest
from repro.service.server import SelectionService

_VALUES = st.sampled_from([0.0, 1e-300, 0.5, 1.0, 2.0, 3.0])
_SEEDS = st.none() | st.integers(min_value=0, max_value=2**64 - 1)
#: A well-formed id no registry ever mints (unknown-wheel answers must
#: match too).
_NEVER_MINTED = "w1:" + "0" * 64


async def _cancel_leftovers():
    tasks = asyncio.all_tasks() - {asyncio.current_task()}
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def _plain(reply):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in reply.items()}


class ServingContract(RuleBasedStateMachine):
    """Reference and variant answer the same requests; replies must match."""

    #: Answer each draw burst with ``asyncio.gather`` on the variant.
    gather = False

    def make_services(self):
        raise NotImplementedError

    wheels = Bundle("wheels")

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.reference, self.variant = self.make_services()
        self.request_id = 0

    def teardown(self):
        run = self.loop.run_until_complete
        for service in (self.reference, self.variant):
            run(service.close())
        run(_cancel_leftovers())  # a cluster's reply readers
        self.loop.close()

    def _stamp(self, request):
        self.request_id += 1
        return {**request, "id": self.request_id}

    def ask(self, request):
        request = self._stamp(request)
        want = self.loop.run_until_complete(self.reference.handle_request(dict(request)))
        got = self.loop.run_until_complete(self.variant.handle_request(dict(request)))
        assert _plain(got) == _plain(want), request
        return want

    @rule(
        target=wheels,
        fitness=st.lists(_VALUES, min_size=1, max_size=5),
        method=st.sampled_from(["log_bidding", "alias", "prefix_sum"]),
        backend=st.sampled_from([None, "stochastic_acceptance"]),
    )
    def register(self, fitness, method, backend):
        request = {"op": "register", "fitness": fitness, "method": method}
        if backend is not None:
            request["backend"] = backend
        reply = self.ask(request)
        return reply["wheel"] if reply["status"] == "ok" else multiple()

    @rule(
        target=wheels,
        wheel=wheels,
        delta=st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), _VALUES),
            min_size=1,
            max_size=3,
        ),
    )
    def update(self, wheel, delta):
        reply = self.ask(
            {
                "op": "update",
                "wheel": wheel,
                "indices": [i for i, _ in delta],
                "values": [v for _, v in delta],
            }
        )
        return reply["wheel"] if reply["status"] == "ok" else multiple()

    @rule(
        draws=st.lists(
            st.tuples(
                st.one_of(wheels, st.just(_NEVER_MINTED)),
                st.integers(min_value=1, max_value=16),
                _SEEDS,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def draw(self, draws):
        requests = [
            self._stamp(
                {"op": "draw", "wheel": w, "n": n}
                if seed is None
                else {"op": "draw", "wheel": w, "n": n, "seed": seed}
            )
            for w, n, seed in draws
        ]
        run = self.loop.run_until_complete
        want = [run(self.reference.handle_request(dict(r))) for r in requests]
        if self.gather:

            async def burst():
                return await asyncio.gather(
                    *(self.variant.handle_request(dict(r)) for r in requests)
                )

            got = run(burst())
        else:
            got = [run(self.variant.handle_request(dict(r))) for r in requests]
        assert [_plain(r) for r in got] == [_plain(r) for r in want], requests

    @rule()
    def stats(self):
        request = self._stamp({"op": "stats"})
        for service in (self.reference, self.variant):
            reply = self.loop.run_until_complete(service.handle_request(dict(request)))
            assert reply["status"] == "ok", reply


class TinyRegistry(ServingContract):
    def make_services(self):
        return SelectionService(seed=7), SelectionService(seed=7, max_wheels=3)


class CoalescedDraws(ServingContract):
    gather = True

    def make_services(self):
        return SelectionService(seed=7), SelectionService(seed=7)


class ShardCount(ServingContract):
    gather = True

    def make_services(self):
        return (
            ClusterService(workers=1, seed=7),
            ClusterService(workers=2, seed=7, max_wheels=3),
        )


class SingleProcessVsCluster(ServingContract):
    gather = True

    def make_services(self):
        return SelectionService(seed=7), ClusterService(workers=2, seed=7)


TestTinyRegistry = TinyRegistry.TestCase
TestTinyRegistry.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None, derandomize=True
)
TestCoalescedDraws = CoalescedDraws.TestCase
TestCoalescedDraws.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None, derandomize=True
)
TestShardCount = ShardCount.TestCase
TestShardCount.settings = settings(
    max_examples=4, stateful_step_count=40, deadline=None, derandomize=True
)
TestSingleProcessVsCluster = SingleProcessVsCluster.TestCase
TestSingleProcessVsCluster.settings = settings(
    max_examples=4, stateful_step_count=40, deadline=None, derandomize=True
)


def test_refused_draws_take_auto_seeds_alike():
    """A draw refused for its size or for lacking a wheel takes no
    auto-seed; one on an unknown wheel takes one.  A single process and
    a cluster apply that rule alike, so the last draw matches."""
    fitness = [1.0, 2.0, 3.0, 4.0]
    wheel = wheel_digest(np.asarray(fitness), "log_bidding", "auto")
    requests = [
        {"op": "register", "fitness": fitness},
        {"op": "draw", "wheel": wheel, "n": 0},
        {"op": "draw", "wheel": wheel, "n": (1 << 20) + 1},
        {"op": "draw", "n": 3},
        {"op": "draw", "wheel": _NEVER_MINTED, "n": 3},
        {"op": "draw", "wheel": wheel, "n": 8},
    ]
    loop = asyncio.new_event_loop()
    services = SelectionService(seed=7), ClusterService(workers=2, seed=7)

    def answers(service):
        run = loop.run_until_complete
        return [_plain(run(service.handle_request(dict(r, id=i)))) for i, r in enumerate(requests)]

    try:
        single, cluster = map(answers, services)
    finally:
        for service in services:
            loop.run_until_complete(service.close())
        loop.run_until_complete(_cancel_leftovers())
        loop.close()
    assert [r["status"] for r in single] == ["ok", "error", "error", "error", "error", "ok"]
    assert cluster == single

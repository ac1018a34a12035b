"""``python -m repro bench serve``: the serving stack, measured and gated.

:func:`run_bench_serve` drives the load generators of
:mod:`repro.service.loadgen` against every serving layer and records
``BENCH_serve.json``:

* the scheduler legs (naive / cached_naive / batched, each one
  :func:`measure_scheduler_leg`) and their >= 10x coalescing gate,
  coalescing-determinism certificate, and overload probe;
* a **protocol** leg pair — the same closed-loop TCP workload spoken as
  JSON-lines vs binary frames — gated at >= 2x;
* a **cluster** worker sweep (1, 2, 4, 8 shard processes) with scaling
  efficiency, auto-skipped (with the reason recorded) when the host has
  fewer than 4 cores, plus the **per-shard determinism certificate**:
  byte-identical draws from a 1-worker and an N-worker cluster;
* the live-mutation sections: the delta-update-vs-reregister gate, the
  mutate leg with per-version latency histograms, the per-version
  determinism certificate, and the served-vs-in-process colony loop.

Every TCP leg runs against one ephemeral loopback server, and every
load-generated leg comes from one :func:`~repro.service.loadgen.run_tcp_load`
(or :func:`measure_scheduler_leg`), so each reports ``draw_requests``
and ``draws = draw_requests * n_draws``.  Every
certificate compares the same two pieces: draws served for request
seeds ``0..k-1`` and the same requests replayed on an oracle wheel
through :func:`~repro.rng.streams.request_stream`.

The determinism certificates, the overload shape and the mutate leg's
update traffic are required gates; the throughput gates are advisory.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.record import (
    GATE,
    NONEMPTY,
    NUMBER,
    POSITIVE,
    TRUE,
    gate,
    make_record,
    render_gates,
    skip,
)
from repro.engine.compiled import AcceptanceWheel, CompiledWheel
from repro.rng.streams import request_stream
from repro.service.cluster import ClusterService
from repro.service.loadgen import (
    _connect,
    _send_request,
    run_closed_loop,
    run_open_loop,
    run_tcp_load,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import raise_structured
from repro.service.registry import WheelRegistry, digest_key
from repro.service.scheduler import BatchConfig, MicroBatchScheduler, NaiveScheduler
from repro.service.server import SelectionService, start_tcp_server
from repro.bench.timers import median_of

__all__ = [
    "run_bench_serve",
    "render_bench_serve",
    "measure_scheduler_leg",
    "REQUIRED",
    "SMOKE",
]

#: The mutate leg's gate: UPDATEs served under live traffic.
_MUTATE_GATE = "results.update.mutate.updates"

#: Paths every serve record must carry (see :func:`repro.bench.record.validate`).
REQUIRED = [
    *[
        (f"results.legs.{leg}.{key}", kind)
        for leg in ("naive", "batched")
        for key, kind in (
            ("requests", NUMBER),
            ("elapsed_s", NUMBER),
            ("requests_per_s", POSITIVE),
            ("latency", NONEMPTY),
            ("batch_sizes", NONEMPTY),
        )
    ],
    ("results.determinism.ok", GATE),
    ("results.determinism.methods.*.bitwise_identical", TRUE),
    ("results.overload.ok_shape", GATE),
    ("results.protocol.legs.jsonl.requests_per_s", POSITIVE),
    ("results.protocol.legs.frames.requests_per_s", POSITIVE),
    ("results.cluster.legs.*.requests_per_s", POSITIVE),
    ("results.cluster.determinism.ok", GATE),
    ("results.cluster.determinism.wheels.*.bitwise_identical", TRUE),
    ("results.update.legs.*.delta_ms", POSITIVE),
    ("results.update.legs.*.reregister_ms", POSITIVE),
    ("results.update.mutate.draws", POSITIVE),
    ("results.update.mutate.per_version_latency", NONEMPTY, _MUTATE_GATE),
    ("results.update.determinism.ok", GATE),
    ("results.update.determinism.versions.*.bitwise_identical", TRUE),
    ("results.colony.inprocess_s", POSITIVE),
    ("results.colony.served_s", POSITIVE),
]

#: ``--smoke``: a 200-item wheel, 16 clients, a 2-worker cluster and
#: mutate traffic with one UPDATE per two requests.
SMOKE = {
    "wheel_size": 200,
    "clients": 16,
    "requests_per_client": 4,
    "n_draws": 4,
    "cluster_workers": [1, 2],
    "mutate": True,
    "update_every": 2,
    "update_k": 2,
    "update_n": 20_000,
}

#: Methods covered by the coalescing-determinism certificate: the
#: paper's method plus one representative of each other kernel family.
_CERTIFICATE_METHODS = ("log_bidding", "gumbel", "alias")

#: The worker counts the cluster sweep targets on a big-enough host.
_CLUSTER_SWEEP = (1, 2, 4, 8)

#: Scaling-efficiency gate: throughput(4) / (4 * throughput(1)).
_SCALING_GATE_WORKERS = 4
_SCALING_GATE_TARGET = 0.7

#: Binary frames must beat JSON-lines by this factor on the TCP legs.
_PROTOCOL_GATE_TARGET = 2.0

#: The delta-update path must beat re-register+recompile by this factor
#: for every measured delta size k <= n/100 at the gate wheel size.
_UPDATE_GATE_TARGET = 10.0
_UPDATE_GATE_N = 100_000
_UPDATE_GATE_KS = (10, 100, 1000)

#: The served dynamic colony loop (draws + per-iteration UPDATE over
#: binary frames) must stay within this factor of the in-process
#: vectorized loop — the "serving a live colony is viable" gate.
_COLONY_GATE_TARGET = 25.0

#: Registry counters the update sections report.
_UPDATE_STATS = (
    "updates",
    "update_hits",
    "delta_recompiles",
    "max_chain_len",
    "misses",
)


# ----------------------------------------------------------------------
# Shared harness: service lifetimes, served draws and their replay
# ----------------------------------------------------------------------


async def _ask(service, request: Dict[str, Any]) -> Dict[str, Any]:
    """One request to an in-process service; a structured error raises."""
    reply = await service.handle_request(request)
    raise_structured(reply)
    return reply


def _run_closing(service, body: Callable[[Any], Awaitable[Any]]) -> Any:
    """``asyncio.run(body(service))``, closing ``service`` however it ends."""

    async def go() -> Any:
        try:
            return await body(service)
        finally:
            await service.close()

    return asyncio.run(go())


@contextlib.asynccontextmanager
async def _ephemeral_server(service):
    """Serve ``service`` on an ephemeral loopback port; yield the port.

    On exit the listener closes, then the service.
    """
    server = await start_tcp_server(service, port=0)
    try:
        yield server.sockets[0].getsockname()[1]
    finally:
        server.close()
        await server.wait_closed()
        await service.close()


async def _served_draws(service, wheel_id: str, sizes: Sequence[int]) -> List[np.ndarray]:
    """Draw ``sizes[i]`` under request seed ``i``, every request in flight at once."""
    replies = await asyncio.gather(
        *(
            _ask(service, {"op": "draw", "wheel": wheel_id, "n": n, "seed": i})
            for i, n in enumerate(sizes)
        )
    )
    return [np.asarray(r["draws"]) for r in replies]


def _replayed_draws(wheel, seed: int, wheel_id: str, sizes: Sequence[int]) -> List[np.ndarray]:
    """The replay oracle: the same requests on ``wheel``, one substream each."""
    return [
        wheel.select_many(n, request_stream(seed, digest_key(wheel_id), i))
        for i, n in enumerate(sizes)
    ]


def _identical(first: Sequence[np.ndarray], *others: Sequence[np.ndarray]) -> bool:
    """Every run holds byte-identical draws, response for response."""
    return all(
        len(other) == len(first) and all(np.array_equal(a, b) for a, b in zip(first, other))
        for other in others
    )


# ----------------------------------------------------------------------
# In-process scheduler legs
# ----------------------------------------------------------------------


class _CachedNaiveScheduler:
    """Secondary baseline: compiled cache hit per request, no coalescing.

    Isolates the two effects the batched leg stacks: against ``naive``
    it shows the caching win, against ``batched`` the coalescing win.
    """

    def __init__(self, registry: WheelRegistry, *, seed: int = 0, metrics=None):
        self.registry = registry
        self.seed = int(seed)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._request_counter = 0

    async def draw(self, wheel_id: str, n: int, **_: Any) -> np.ndarray:
        seed = self._request_counter
        self._request_counter += 1
        wheel = self.registry.get(wheel_id)
        start = time.monotonic()
        self.metrics.enqueued(int(n))
        rng = request_stream(self.seed, digest_key(wheel_id), seed)
        draws = wheel.select_many(int(n), rng)
        self.metrics.dequeued()
        self.metrics.batch_sizes.observe(1)
        self.metrics.served(time.monotonic() - start)
        await asyncio.sleep(0)
        return draws


def measure_scheduler_leg(
    make_scheduler: Callable[[WheelRegistry], Any],
    fitness: np.ndarray,
    *,
    method: str = "log_bidding",
    backend: Optional[str] = None,
    clients: int,
    requests_per_client: int,
    n_draws: int,
) -> Dict[str, Any]:
    """One in-process closed-loop leg: register, warm up, measure, close.

    ``make_scheduler(registry)`` builds the scheduler under test.  One
    request from each of up to 8 clients primes allocators and compiled
    tables before the timed run; the report carries throughput and the
    scheduler's latency and batch-size histograms.
    """
    registry = WheelRegistry()
    wheel_id, _ = registry.register(fitness, method=method, backend=backend)
    scheduler = make_scheduler(registry)

    async def go() -> float:
        await run_closed_loop(
            scheduler, wheel_id, clients=min(clients, 8),
            requests_per_client=1, n_draws=n_draws,
        )
        elapsed = await run_closed_loop(
            scheduler, wheel_id, clients=clients,
            requests_per_client=requests_per_client, n_draws=n_draws,
        )
        close = getattr(scheduler, "close", None)
        if close is not None:
            await close()
        return elapsed

    elapsed = asyncio.run(go())
    requests = clients * requests_per_client
    return {
        "requests": requests,
        "draw_requests": requests,
        "draws": requests * n_draws,
        "elapsed_s": elapsed,
        "requests_per_s": requests / elapsed if elapsed > 0 else 0.0,
        "draws_per_s": requests * n_draws / elapsed if elapsed > 0 else 0.0,
        "latency": scheduler.metrics.latency.snapshot(),
        "batch_sizes": scheduler.metrics.batch_sizes.snapshot(),
    }


def _determinism_certificate(
    wheel_size: int, seed: int, *, methods: Sequence[str] = _CERTIFICATE_METHODS
) -> Dict[str, Any]:
    """Certify responses are bit-identical solo vs coalesced.

    For each method, the same ``(wheel, n, seed)`` request set is served
    three ways — fully coalesced (``max_batch`` large), strictly solo
    (``max_batch=1``), and directly via ``select_many`` on the compiled
    wheel with the request's replayed substream — and all three must
    agree byte for byte.
    """
    sizes = [1, 3, 17, 64, 5, 128, 2, 31]
    fitness = np.arange(1.0, wheel_size + 1.0)

    def serve(method: str, max_batch: int) -> List[np.ndarray]:
        service = SelectionService(
            seed=seed, config=BatchConfig(max_batch=max_batch, max_delay_us=500.0)
        )
        wheel_id, _ = service.registry.register(fitness, method=method)
        return _run_closing(service, lambda s: _served_draws(s, wheel_id, sizes))

    registry = WheelRegistry()
    per_method: Dict[str, Any] = {}
    for method in methods:
        wheel_id, _ = registry.register(fitness, method=method)
        direct = _replayed_draws(registry.get(wheel_id), seed, wheel_id, sizes)
        per_method[method] = {
            "requests": len(sizes),
            "sizes": sizes,
            "bitwise_identical": _identical(
                serve(method, len(sizes)), serve(method, 1), direct
            ),
        }
    ok = all(entry["bitwise_identical"] for entry in per_method.values())
    return {"methods": per_method, "ok": ok}


def _overload_probe(
    wheel_size: int, seed: int, *, queue_limit: int = 8, burst: int = 96
) -> Dict[str, Any]:
    """The acceptance drill: a burst far past ``queue_limit``.

    Asserts the contract shape — every request answered (ok or shed),
    nothing hangs, and the shed count shows up in metrics.
    """
    registry = WheelRegistry()
    wheel_id, _ = registry.register(np.arange(1.0, wheel_size + 1.0))
    scheduler = MicroBatchScheduler(
        registry,
        BatchConfig(max_batch=16, max_delay_us=200.0, queue_limit=queue_limit),
        seed=seed,
    )

    async def drill() -> Dict[str, int]:
        outcome = await run_open_loop(
            scheduler, wheel_id, requests=burst, n_draws=4, timeout_s=30.0
        )
        await scheduler.close()
        return outcome

    outcome = asyncio.run(drill())
    shed_metric = scheduler.metrics.shed_total
    accounted = outcome["ok"] + outcome["shed"] == outcome["submitted"]
    return {
        "queue_limit": queue_limit,
        "submitted": outcome["submitted"],
        "ok": outcome["ok"],
        "shed": outcome["shed"],
        "shed_total_metric": shed_metric,
        "all_accounted": bool(accounted),
        "metrics_consistent": bool(shed_metric == outcome["shed"]),
        "ok_shape": bool(
            accounted and outcome["shed"] > 0 and shed_metric == outcome["shed"]
        ),
    }


# ----------------------------------------------------------------------
# TCP legs: frames vs JSON-lines, and the mutating load
# ----------------------------------------------------------------------


def _measure_tcp_leg(
    fitness: np.ndarray, method: str, *, seed: int, config: BatchConfig, **load: Any
) -> Tuple[Dict[str, Any], SelectionService]:
    """One TCP leg: ephemeral server, warm-up, then ``run_tcp_load(**load)``.

    Registry capacity covers every version a mutating load mints, so a
    mutate leg measures delta-update latency rather than LRU churn.
    """
    every = load.get("update_every", 0)
    versions = load["requests_per_client"] // every if every > 0 else 0
    service = SelectionService(
        seed=seed, config=config, max_wheels=max(256, load["clients"] * (versions + 1) + 16)
    )
    wheel_id, _ = service.registry.register(fitness, method=method)

    async def go() -> Dict[str, Any]:
        async with _ephemeral_server(service) as port:
            # Warm-up primes connections, allocators, compiled tables.
            await run_tcp_load(
                "127.0.0.1", port, wheel_id, kind=load["kind"],
                clients=min(load["clients"], 8), requests_per_client=2,
                n_draws=load["n_draws"], seed_base=1 << 40,
            )
            return await run_tcp_load("127.0.0.1", port, wheel_id, **load)

    return asyncio.run(go()), service


def _protocol_section(
    fitness: np.ndarray,
    method: str,
    *,
    clients: int,
    requests_per_client: int,
    n_draws: int,
    seed: int,
    procs: int,
    config: BatchConfig,
) -> Dict[str, Any]:
    legs = {}
    for kind in ("jsonl", "frames"):
        leg, service = _measure_tcp_leg(
            fitness, method, seed=seed, config=config, kind=kind, clients=clients,
            requests_per_client=requests_per_client, n_draws=n_draws, procs=procs,
        )
        leg["batch_sizes"] = service.metrics.batch_sizes.snapshot()
        legs[kind] = leg
    jsonl_rps = legs["jsonl"]["requests_per_s"]
    speedup = legs["frames"]["requests_per_s"] / jsonl_rps if jsonl_rps > 0 else 0.0
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "n_draws": n_draws,
        "procs": procs,
        "legs": legs,
        "speedup": speedup,
    }


def _measure_mutate_leg(
    fitness: np.ndarray, method: str, *, seed: int, config: BatchConfig, **load: Any
) -> Dict[str, Any]:
    """The served ``--mutate`` leg over frames: draws interleaved with
    chained UPDATEs, plus the server-side update counters."""
    leg, service = _measure_tcp_leg(
        fitness, method, seed=seed, config=config, kind="frames",
        wheel_size=len(fitness), **load,
    )
    stats = service.registry.stats()
    leg["service"] = {
        "updates_total": service.metrics.updates_total,
        "update_indices_total": service.metrics.update_indices_total,
        "update_latency": service.metrics.update_latency.snapshot(),
        "registry": {key: stats[key] for key in (*_UPDATE_STATS, "versions", "evictions")},
    }
    return leg


# ----------------------------------------------------------------------
# Live-mutation sections: delta gate, mutate leg, per-version
# determinism certificate, and the served dynamic colony loop
# ----------------------------------------------------------------------


def _update_gate_section(
    seed: int,
    *,
    n: int = _UPDATE_GATE_N,
    ks: Sequence[int] = _UPDATE_GATE_KS,
    trials: int = 3,
    method: str = "log_bidding",
) -> Dict[str, Any]:
    """The >= 10x delta-update gate at the gate wheel size.

    For each delta size ``k <= n/100``, the same mutation is served two
    ways — the full re-register path (content hash + validate + compile)
    on a cold registry, and :meth:`WheelRegistry.update` against the
    registered root — and the per-k speedup is the ratio of the two
    median times.  The gate requires every measured k to clear the
    target.
    """
    rng = np.random.default_rng(seed + 0x5EED)
    base = rng.random(n) + 0.1
    registry = WheelRegistry(max_wheels=len(ks) * trials + 8)
    root_id, _ = registry.register(base, method=method)
    legs: Dict[str, Any] = {}
    speedups: List[float] = []
    for k in ks:
        k = int(min(max(1, k), max(1, n // 100)))
        rereg: List[float] = []
        delta: List[float] = []
        for _ in range(trials):
            idx = rng.choice(n, size=k, replace=False)
            vals = rng.random(k) + 0.1
            mutated = base.copy()
            mutated[idx] = vals
            cold = WheelRegistry()
            start = time.perf_counter()
            cold.register(mutated, method=method)
            rereg.append(time.perf_counter() - start)
            start = time.perf_counter()
            registry.update(root_id, idx, vals)
            delta.append(time.perf_counter() - start)
        # Lower median via the shared helper: robust to one outlier in
        # either direction, and unbiased for the ratio gate below.
        rereg_s = median_of(rereg)
        delta_s = median_of(delta)
        speedup = rereg_s / delta_s if delta_s > 0 else 0.0
        speedups.append(speedup)
        legs[str(k)] = {
            "k": k,
            "reregister_ms": rereg_s * 1e3,
            "delta_ms": delta_s * 1e3,
            "speedup": speedup,
        }
    stats = registry.stats()
    min_speedup = min(speedups) if speedups else 0.0
    return {
        "n": n,
        "trials": trials,
        "method": method,
        "legs": legs,
        "min_speedup": min_speedup,
        "registry": {key: stats[key] for key in _UPDATE_STATS},
    }


def _chain_certificate(
    base: np.ndarray,
    register: Dict[str, Any],
    deltas: Sequence[Tuple[np.ndarray, np.ndarray]],
    oracle: Callable[[np.ndarray, Any], Any],
    *,
    sizes: Sequence[int],
    seed: int,
    workers: int,
) -> Tuple[List[Dict[str, Any]], bool]:
    """Serve one UPDATE chain on a 1-worker and a ``workers``-worker cluster.

    ``register`` holds the root's registration keywords.  Both clusters
    must mint the version ids a local mirror registry derives, and every
    version — root included — is drawn against twice: once the moment it
    exists and once after the whole chain does.  A version is
    bitwise-identical when all of those draws agree across pool sizes,
    across the two passes (the copy-on-write guarantee: later updates
    never disturb a parent), and with ``oracle(values, mirror_wheel)`` —
    a freshly built wheel holding the version's values — replaying the
    same requests.  Returns the per-version entries and whether every
    version's two passes agreed.
    """
    mirror = WheelRegistry()
    ids = [mirror.register(base, **register)[0]]
    values = [base]
    for idx, vals in deltas:
        ids.append(mirror.update(ids[-1], idx, vals)[0])
        values.append(values[-1].copy())
        values[-1][idx] = vals

    async def walk(cluster) -> Tuple[List[str], List[Any], List[Any]]:
        reply = await _ask(cluster, {"op": "register", "fitness": base.tolist(), **register})
        minted = [reply["wheel"]]
        first = [await _served_draws(cluster, minted[0], sizes)]
        for idx, vals in deltas:
            reply = await _ask(
                cluster,
                {
                    "op": "update",
                    "wheel": minted[-1],
                    "indices": idx.tolist(),
                    "values": vals.tolist(),
                },
            )
            minted.append(reply["wheel"])
            first.append(await _served_draws(cluster, minted[-1], sizes))
        second = [await _served_draws(cluster, wid, sizes) for wid in minted]
        return minted, first, second

    (ids_1, first_1, second_1), (ids_n, first_n, second_n) = (
        _run_closing(ClusterService(workers=n, seed=seed), walk) for n in (1, workers)
    )
    same_ids = ids_1 == ids == ids_n
    entries = []
    cow_stable = True
    for version, wid in enumerate(ids):
        wheel = mirror.get(wid)
        direct = _replayed_draws(oracle(values[version], wheel), seed, wid, sizes)
        stable = _identical(first_1[version], second_1[version]) and _identical(
            first_n[version], second_n[version]
        )
        cow_stable = cow_stable and stable
        ok = same_ids and stable and _identical(first_1[version], first_n[version], direct)
        entries.append(
            {"version": version, "wheel": wid, "kernel": wheel.kernel, "bitwise_identical": ok}
        )
    return entries, cow_stable


def _version_determinism_certificate(
    wheel_size: int,
    seed: int,
    *,
    workers: int = 3,
    chain: int = 3,
    method: str = "log_bidding",
) -> Dict[str, Any]:
    """The per-version determinism certificate.

    A ``chain``-update history on a ``method`` wheel goes through
    :func:`_chain_certificate`, whose oracle is a *freshly compiled*
    wheel on the version's resolved kernel.  A one-update
    ``stochastic_acceptance`` chain rides along with its own
    rejection-sampler oracle.
    """
    sizes = [1, 7, 33, 64]
    delta_rng = np.random.default_rng(seed + 1717)
    base = np.arange(1.0, wheel_size + 1.0)
    k = max(1, wheel_size // 50)
    deltas = [
        (delta_rng.choice(wheel_size, size=k, replace=False), delta_rng.random(k) + 0.5)
        for _ in range(chain)
    ]
    versions, cow_stable = _chain_certificate(
        base, {"method": method}, deltas,
        lambda values, wheel: CompiledWheel(values, method, kernel=wheel.kernel),
        sizes=sizes, seed=seed, workers=workers,
    )
    acceptance, _ = _chain_certificate(
        base, {"backend": "stochastic_acceptance"}, deltas[:1],
        lambda values, _: AcceptanceWheel(values),
        sizes=sizes, seed=seed, workers=workers,
    )
    acceptance_ok = all(entry["bitwise_identical"] for entry in acceptance)
    return {
        "workers_compared": [1, workers],
        "method": method,
        "chain": chain,
        "sizes": sizes,
        "versions": versions,
        "cow_stable": cow_stable,
        "acceptance_ok": acceptance_ok,
        "ok": acceptance_ok and all(entry["bitwise_identical"] for entry in versions),
    }


def _update_section(
    fitness: np.ndarray,
    method: str,
    seed: int,
    *,
    wheel_size: int,
    clients: int,
    requests_per_client: int,
    n_draws: int,
    update_every: int,
    update_k: int,
    procs: int,
    config: BatchConfig,
    update_n: int,
    mutate: bool,
) -> Dict[str, Any]:
    """Assemble the ``update`` results block (gate + leg + certificate)."""
    section = _update_gate_section(seed, n=update_n, method=method)
    mutate_clients = clients if mutate else min(clients, 16)
    mutate_rpc = requests_per_client if mutate else min(requests_per_client, 32)
    section["mutate"] = _measure_mutate_leg(
        fitness, method, seed=seed, config=config,
        clients=mutate_clients, requests_per_client=mutate_rpc,
        n_draws=n_draws, update_every=update_every,
        update_k=min(update_k, wheel_size), procs=procs,
    )
    section["determinism"] = _version_determinism_certificate(
        min(wheel_size, 512), seed, method=method
    )
    return section


def _colony_section(
    seed: int,
    *,
    n: int = 50_000,
    ants: int = 256,
    iterations: int = 25,
    update_k: int = 50,
    method: str = "log_bidding",
    config: Optional[BatchConfig] = None,
) -> Dict[str, Any]:
    """The served dynamic colony loop vs its in-process vectorized twin.

    The workload is the paper's motivating ACO shape: per iteration, one
    batched selection of ``ants`` next-choices from the pheromone wheel,
    then a ``k``-sparse pheromone delta.  In process that is one cumsum
    plus one ``searchsorted`` batch and a scatter; served, it is one
    DRAW and one UPDATE frame per iteration over a real TCP connection,
    the UPDATE minting the next version the following DRAW targets.  The
    gate bounds the served/in-process slowdown — the "a live colony can
    be served" viability factor.
    """
    n = int(n)
    update_k = int(min(update_k, n))
    rng = np.random.default_rng(seed + 424242)
    base = rng.random(n) + 0.1
    deltas = [
        (rng.choice(n, size=update_k, replace=False), rng.random(update_k) + 0.5)
        for _ in range(iterations)
    ]
    draw_u = rng.random((iterations, ants))

    values = base.copy()
    start = time.perf_counter()
    for it in range(iterations):
        cs = np.cumsum(values)
        np.minimum(
            np.searchsorted(cs, draw_u[it] * cs[-1], side="right"), n - 1
        )
        idx, vals = deltas[it]
        values[idx] = vals
    inproc_s = time.perf_counter() - start

    service = SelectionService(
        seed=seed, config=config, max_wheels=iterations + 8
    )
    wheel_id, _ = service.registry.register(base, method=method)

    async def go() -> float:
        async with _ephemeral_server(service) as port:
            async with _connect("127.0.0.1", port) as (reader, writer):

                async def ask(request: Dict[str, Any]) -> Dict[str, Any]:
                    reply = await _send_request("frames", reader, writer, request)
                    raise_structured(reply)
                    return reply

                await ask({"op": "draw", "wheel": wheel_id, "n": ants, "seed": 1 << 40})
                cur = wheel_id
                begin = time.perf_counter()
                for it in range(iterations):
                    await ask({"op": "draw", "wheel": cur, "n": ants, "seed": it})
                    idx, vals = deltas[it]
                    reply = await ask(
                        {"op": "update", "wheel": cur, "indices": idx, "values": vals}
                    )
                    cur = reply["wheel"]
                served = time.perf_counter() - begin
            # Let the server-side handler observe the EOF and finish its
            # own close before the loop is torn down.
            await asyncio.sleep(0.05)
            return served

    served_s = asyncio.run(go())
    factor = served_s / inproc_s if inproc_s > 0 else 0.0
    return {
        "n": n,
        "ants": ants,
        "iterations": iterations,
        "update_k": update_k,
        "method": method,
        "inprocess_s": inproc_s,
        "served_s": served_s,
        "inprocess_iter_us": inproc_s / iterations * 1e6,
        "served_iter_us": served_s / iterations * 1e6,
        "factor": factor,
    }


# ----------------------------------------------------------------------
# Cluster sweep + per-shard determinism certificate
# ----------------------------------------------------------------------


def _measure_cluster_leg(
    workers: int,
    fitness_vectors: List[np.ndarray],
    method: str,
    *,
    clients: int,
    requests_per_client: int,
    n_draws: int,
    seed: int,
    procs: int,
    config: BatchConfig,
) -> Dict[str, Any]:
    """Throughput of a ``workers``-shard cluster over binary frames.

    Several distinct wheels are registered so the consistent-hash ring
    actually spreads load across shards; one load spreads its clients
    over them, and its latency histogram is the exact merge over wheels.
    """
    cluster = ClusterService(workers=workers, seed=seed, config=config)

    async def go() -> Tuple[Dict[str, Any], Dict[str, Any]]:
        async with _ephemeral_server(cluster) as port:
            wheel_ids = [
                (await _ask(cluster, {"op": "register", "fitness": f, "method": method}))["wheel"]
                for f in fitness_vectors
            ]
            load = await run_tcp_load(
                "127.0.0.1", port, wheel_ids, kind="frames", clients=clients,
                requests_per_client=requests_per_client, n_draws=n_draws, procs=procs,
            )
            return load, await cluster.stats()

    load, stats = asyncio.run(go())
    shard_stats = stats["shards"]
    keys = ("requests", "draw_requests", "draws", "elapsed_s", "requests_per_s", "draws_per_s",
            "latency")
    return {
        "workers": workers,
        **{key: load[key] for key in keys},
        "routing": stats["routed"],
        "routing_max_share": stats["routing_max_share"],
        "batch_mean_size": (
            sum(s["batch_sizes"]["mean_size"] * s["batch_sizes"]["batches"] for s in shard_stats)
            / max(1, sum(s["batch_sizes"]["batches"] for s in shard_stats))
        ),
        "compiles": sum(s["registry"]["compiles"] for s in shard_stats),
    }


def _cluster_determinism_certificate(
    wheel_size: int, seed: int, *, workers: int = 3, method: str = "log_bidding"
) -> Dict[str, Any]:
    """The per-shard determinism certificate.

    The same ``(wheel_id, request seed)`` set — several wheels so the
    ring routes to different shards, varied draw sizes — is served by a
    1-worker and a ``workers``-worker cluster with the same service
    seed, and replayed directly on a compiled wheel.  All three must be
    byte-identical: shard placement and coalescing are invisible in the
    draws.
    """
    sizes = [1, 5, 33, 64, 2, 17]
    vectors = [
        np.arange(1.0, wheel_size + 1.0),
        np.arange(wheel_size, 0.0, -1.0),
        np.linspace(0.5, 7.5, wheel_size),
    ]

    async def draw_all(cluster) -> List[List[np.ndarray]]:
        out = []
        for fitness in vectors:
            reply = await _ask(cluster, {"op": "register", "fitness": fitness, "method": method})
            out.append(await _served_draws(cluster, reply["wheel"], sizes))
        return out

    single, multi = (
        _run_closing(ClusterService(workers=n, seed=seed), draw_all) for n in (1, workers)
    )
    registry = WheelRegistry()
    per_wheel = []
    for fitness, served_1, served_n in zip(vectors, single, multi):
        wheel_id, _ = registry.register(fitness, method=method)
        direct = _replayed_draws(registry.get(wheel_id), seed, wheel_id, sizes)
        per_wheel.append(
            {"wheel": wheel_id, "bitwise_identical": _identical(served_1, served_n, direct)}
        )
    return {
        "workers_compared": [1, workers],
        "method": method,
        "sizes": sizes,
        "wheels": per_wheel,
        "ok": all(entry["bitwise_identical"] for entry in per_wheel),
    }


def _default_cluster_sweep(cpu_count: int) -> List[int]:
    """Worker counts to measure: the full {1,2,4,8} sweep on a >= 4 core
    host, a minimal {1,2} path-exercise otherwise."""
    if cpu_count >= _SCALING_GATE_WORKERS:
        return [w for w in _CLUSTER_SWEEP if w <= max(8, cpu_count)]
    return [1, 2]


def _cluster_section(
    wheel_size: int,
    seed: int,
    method: str,
    *,
    clients: int,
    requests_per_client: int,
    n_draws: int,
    procs: int,
    config: BatchConfig,
    workers_sweep: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    cpu_count = os.cpu_count() or 1
    sweep = (
        list(workers_sweep)
        if workers_sweep is not None
        else _default_cluster_sweep(cpu_count)
    )
    # Distinct wheels so the ring spreads load; deterministic contents.
    fitness_vectors = [
        np.arange(1.0, wheel_size + 1.0) * (1.0 + 0.01 * k) for k in range(8)
    ]
    legs = [
        _measure_cluster_leg(
            w, fitness_vectors, method,
            clients=clients, requests_per_client=requests_per_client,
            n_draws=n_draws, seed=seed, procs=procs, config=config,
        )
        for w in sweep
    ]
    by_workers = {str(leg["workers"]): leg for leg in legs}
    base = by_workers.get("1", legs[0])
    efficiency = {
        str(leg["workers"]): (
            leg["requests_per_s"] / (leg["workers"] * base["requests_per_s"])
            if base["requests_per_s"] > 0
            else 0.0
        )
        for leg in legs
    }
    return {
        "cpu_count": cpu_count,
        "workers_sweep": sweep,
        "legs": by_workers,
        "efficiency": efficiency,
        "determinism": _cluster_determinism_certificate(wheel_size, seed),
    }


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------


def run_bench_serve(
    wheel_size: int = 1000,
    clients: int = 64,
    requests_per_client: int = 32,
    n_draws: int = 8,
    seed: int = 0,
    method: str = "log_bidding",
    max_batch: int = 64,
    max_delay_us: float = 200.0,
    gate_target: float = 10.0,
    procs: int = 1,
    cluster_workers: Optional[Sequence[int]] = None,
    protocol_draws: int = 1024,
    protocol_requests_per_client: int = 16,
    mutate: bool = False,
    update_every: int = 4,
    update_k: int = 8,
    update_n: int = _UPDATE_GATE_N,
    colony_n: int = 50_000,
    colony_ants: int = 256,
    colony_iterations: int = 25,
) -> Dict[str, Any]:
    """Measure the serving stack end to end and assemble the report.

    The default configuration is the acceptance gate: 64 closed-loop
    clients against a 1000-item ``log_bidding`` wheel, requiring >= 10x
    requests/s of the micro-batching scheduler over the per-request
    validate+select baseline, >= 2x of binary frames over JSON-lines on
    the TCP legs, (on hosts with >= 4 cores) >= 0.7 scaling efficiency
    at 4 cluster workers, >= 10x of the delta-update path over
    re-register+recompile at ``update_n``, and the served dynamic colony
    loop within ``_COLONY_GATE_TARGET`` (25x) of its in-process twin.  The
    mutate leg always runs at a light default so the report shape is
    stable; ``mutate=True`` (the CLI's ``--mutate``) runs it at the full
    client count.
    """
    if wheel_size < 2:
        raise ValueError(f"wheel_size must be >= 2, got {wheel_size}")
    if clients <= 0 or requests_per_client <= 0 or n_draws <= 0:
        raise ValueError("clients, requests_per_client, n_draws must be positive")
    if procs <= 0:
        raise ValueError(f"procs must be positive, got {procs}")
    fitness = np.arange(1.0, wheel_size + 1.0)
    config = BatchConfig(max_batch=max_batch, max_delay_us=max_delay_us)
    schedulers = {
        "naive": lambda r: NaiveScheduler(r, seed=seed),
        "cached_naive": lambda r: _CachedNaiveScheduler(r, seed=seed),
        "batched": lambda r: MicroBatchScheduler(r, config, seed=seed),
    }
    legs = {
        name: measure_scheduler_leg(
            make, fitness, method=method, clients=clients,
            requests_per_client=requests_per_client, n_draws=n_draws,
        )
        for name, make in schedulers.items()
    }
    gate_speedup = (
        legs["batched"]["requests_per_s"] / legs["naive"]["requests_per_s"]
        if legs["naive"]["requests_per_s"] > 0
        else 0.0
    )
    determinism = _determinism_certificate(wheel_size, seed)
    overload = _overload_probe(wheel_size, seed)
    protocol = _protocol_section(
        fitness, method,
        clients=clients, requests_per_client=protocol_requests_per_client,
        n_draws=protocol_draws, seed=seed, procs=procs, config=config,
    )
    cluster = _cluster_section(
        wheel_size, seed, method,
        clients=clients, requests_per_client=requests_per_client,
        n_draws=n_draws, procs=procs, config=config,
        workers_sweep=cluster_workers,
    )
    update = _update_section(
        fitness, method, seed,
        wheel_size=wheel_size, clients=clients,
        requests_per_client=requests_per_client, n_draws=n_draws,
        update_every=update_every, update_k=update_k, procs=procs,
        config=config, update_n=update_n, mutate=mutate,
    )
    colony = _colony_section(
        seed, n=colony_n, ants=colony_ants, iterations=colony_iterations,
        method=method, config=config,
    )

    results = {
        "legs": legs,
        "speedup": gate_speedup,
        "determinism": determinism,
        "overload": overload,
        "protocol": protocol,
        "cluster": cluster,
        "update": update,
        "colony": colony,
    }
    sections = {"results": results}
    scaling_path = f"results.cluster.efficiency.{_SCALING_GATE_WORKERS}"
    if cluster["cpu_count"] < _SCALING_GATE_WORKERS:
        scaling = skip(
            scaling_path, ">=", _SCALING_GATE_TARGET,
            f"cpu_count={cluster['cpu_count']} < {_SCALING_GATE_WORKERS}: "
            f"scaling efficiency is not measurable on this host; sweep "
            f"limited to workers={cluster['workers_sweep']} to exercise the "
            f"multi-process path",
        )
    elif str(_SCALING_GATE_WORKERS) not in cluster["efficiency"]:
        scaling = skip(
            scaling_path, ">=", _SCALING_GATE_TARGET,
            f"the sweep workers={cluster['workers_sweep']} has no "
            f"{_SCALING_GATE_WORKERS}-worker leg",
        )
    else:
        scaling = gate(sections, scaling_path, ">=", _SCALING_GATE_TARGET)
    mutate_leg = update["mutate"]
    per_client = mutate_leg["requests"] // max(1, mutate_leg["clients"])
    if 0 < update_every <= per_client:
        mutate_traffic = gate(sections, _MUTATE_GATE, ">", 0, required=True)
    else:
        mutate_traffic = skip(
            _MUTATE_GATE, ">", 0,
            f"update_every={update_every} sends no UPDATE within "
            f"{per_client} requests per client",
            required=True,
        )
    gates = [
        gate(sections, "results.speedup", ">=", gate_target),
        gate(sections, "results.determinism.ok", "==", True, required=True),
        gate(sections, "results.overload.ok_shape", "==", True, required=True),
        gate(sections, "results.protocol.speedup", ">=", _PROTOCOL_GATE_TARGET),
        scaling,
        gate(
            sections, "results.cluster.determinism.ok", "==", True, required=True
        ),
        gate(sections, "results.update.min_speedup", ">=", _UPDATE_GATE_TARGET),
        gate(
            sections, "results.update.determinism.ok", "==", True, required=True
        ),
        mutate_traffic,
        gate(sections, "results.colony.factor", "<=", _COLONY_GATE_TARGET),
    ]
    config = {
        "wheel_size": wheel_size,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "n_draws": n_draws,
        "seed": seed,
        "method": method,
        "max_batch": max_batch,
        "max_delay_us": max_delay_us,
        "procs": procs,
        "protocol_draws": protocol_draws,
        "protocol_requests_per_client": protocol_requests_per_client,
        "mutate": mutate,
        "update_every": update_every,
        "update_k": update_k,
        "update_n": update_n,
        "colony_n": colony_n,
        "colony_ants": colony_ants,
        "colony_iterations": colony_iterations,
    }
    return make_record("serve", config, sections, gates)


def render_bench_serve(report: Dict[str, Any]) -> str:
    """Human-readable summary of a serve bench report."""
    config, results = report["config"], report["results"]
    lines = [
        f"bench serve: {config['clients']} clients x "
        f"{config['requests_per_client']} reqs, n={config['wheel_size']}, "
        f"method={config['method']}, draws/req={config['n_draws']}",
        "",
        f"{'leg':<14}{'req/s':>12}{'p50 us':>10}{'p99 us':>10}{'mean batch':>12}",
    ]
    for name, leg in results["legs"].items():
        lines.append(
            f"{name:<14}{leg['requests_per_s']:>12.0f}"
            f"{leg['latency']['p50_us']:>10.0f}"
            f"{leg['latency']['p99_us']:>10.0f}"
            f"{leg['batch_sizes']['mean_size']:>12.2f}"
        )
    overload, protocol = results["overload"], results["protocol"]
    lines += [
        f"determinism certificate methods: "
        f"{', '.join(results['determinism']['methods'])}",
        f"overload probe: {overload['ok']} ok / {overload['shed']} shed of "
        f"{overload['submitted']}",
        "",
        f"protocol ({protocol['clients']} clients x "
        f"{protocol['n_draws']} draws/req, procs={protocol['procs']}):",
        f"  jsonl  {protocol['legs']['jsonl']['requests_per_s']:>10.0f} req/s",
        f"  frames {protocol['legs']['frames']['requests_per_s']:>10.0f} req/s",
        f"  frames/jsonl = {protocol['speedup']:.2f}x",
    ]
    cluster = results["cluster"]
    lines += ["", f"cluster sweep (cpu_count={cluster['cpu_count']}):"]
    for key in sorted(cluster["legs"], key=int):
        lines.append(
            f"  workers={key:<3}{cluster['legs'][key]['requests_per_s']:>10.0f} "
            f"req/s  eff={cluster['efficiency'][key]:.2f}"
        )
    cert = cluster["determinism"]
    lines.append(
        f"  per-shard determinism (workers {cert['workers_compared']}) "
        f"across {len(cert['wheels'])} wheels"
    )
    update = results["update"]
    lines += ["", f"delta updates (n={update['n']}):"]
    for key in sorted(update["legs"], key=int):
        leg = update["legs"][key]
        lines.append(
            f"  k={key:<6}delta {leg['delta_ms']:>8.2f} ms vs "
            f"re-register {leg['reregister_ms']:>8.2f} ms  "
            f"({leg['speedup']:.1f}x)"
        )
    mutate_leg, cert = update["mutate"], update["determinism"]
    colony = results["colony"]
    lines += [
        f"  mutate leg: {mutate_leg['requests_per_s']:.0f} req/s, "
        f"{mutate_leg['updates']} updates "
        f"(1:{mutate_leg['update_every']} of requests, "
        f"k={mutate_leg['update_k']}), "
        f"{len(mutate_leg['per_version_latency'])} version depths",
        f"  per-version determinism (workers {cert['workers_compared']}, "
        f"chain {cert['chain']}); acceptance "
        f"{'ok' if cert['acceptance_ok'] else 'FAILED'}",
        "",
        f"dynamic colony loop (n={colony['n']}, ants={colony['ants']}, "
        f"{colony['iterations']} iters, k={colony['update_k']}):",
        f"  in-process {colony['inprocess_iter_us']:>10.0f} us/iter",
        f"  served     {colony['served_iter_us']:>10.0f} us/iter",
        f"  served/in-process = {colony['factor']:.1f}x",
        "",
        render_gates(report),
    ]
    return "\n".join(lines)

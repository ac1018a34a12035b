"""The end-to-end ACO bench: tours/s scalar vs lockstep, recorded.

:func:`run_bench_aco` times full colony iterations on a paper-scale
Euclidean TSP instance for every lockstep-capable selection method,
three ways: the scalar per-ant loop (desirability hoisted), the
vectorized lockstep engine, and the faithful per-ant-stream replay.  It
also records the run's sparsity profile (mean candidate count ``k`` per
construction step — the ``k << n`` regime the paper targets), times the
lockstep kernel on fresh vs converged weights, times the
dynamic Fenwick wheel's batched vs scalar paths, and certifies
seed-for-seed equivalence of the scalar and lockstep constructions on a
small instance for all three colonies.  ``python -m repro bench aco``
records the result in ``BENCH_aco.json``.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.bench.record import GATE, NONEMPTY, NUMBER, POSITIVE, gate, make_record, render_gates
from repro.engine.colony import (
    DEFAULT_BLOCK,
    LOCKSTEP_METHODS,
    AntStreams,
    tsp_lockstep_orders,
    tsp_lockstep_orders_faithful,
)
from repro.bench.timers import best_of

__all__ = ["run_bench_aco", "render_bench_aco", "REQUIRED", "SMOKE"]

#: Paths every ACO record must carry (see :func:`repro.bench.record.validate`).
REQUIRED = [
    ("results.per_method", NONEMPTY),
    *[
        (f"results.per_method.*.{key}", NUMBER)
        for key in (
            "scalar_tours_per_s",
            "vectorized_tours_per_s",
            "faithful_tours_per_s",
            "speedup",
            "scalar_us_per_draw",
            "vectorized_us_per_draw",
        )
    ],
    ("results.sparsity.mean_k", NONEMPTY),
    ("results.dynamic_wheel", NONEMPTY),
    ("results.equivalence.per_method", NONEMPTY),
    ("results.equivalence.all_identical", GATE),
    *[(f"results.converged.{key}", POSITIVE) for key in ("fresh_ms", "converged_ms", "slowdown")],
]

#: ``--smoke``: 60 cities, 8 ants, 2 iterations.
SMOKE = {"n": 60, "n_ants": 8, "iterations": 2}

#: Decay applied to every weight off one ring tour by the converged leg.
#: An unreinforced edge at ``rho = 0.5`` halves each iteration, so this is
#: where a 500-city colony's off-tour weights stand near iteration 130.
CONVERGED_DECAY = 2.0**-140

#: Points kept when decimating the per-step sparsity profile for JSON.
_PROFILE_POINTS = 50


def _tsp_colony(instance, method: str, n_ants: int, engine: str, seed: int):
    from repro.aco.tsp.colony import AntSystem, AntSystemConfig

    cfg = AntSystemConfig(n_ants=n_ants, selection=method, engine=engine)
    return AntSystem(instance, cfg, rng=seed)


def _time_steps(colony, iterations: int) -> float:
    """Best per-iteration wall time over ``iterations`` colony steps.

    Min-of-reps (``repro.bench.timers.best_of``): the standard throughput
    estimator on shared machines — scheduler preemption only ever *adds*
    time, so the minimum is the closest observation to the true cost.
    Each repeat advances the same colony, so pheromone state evolves
    exactly as in the pre-timers loop.
    """
    return best_of(colony.step, repeats=iterations)


def _bench_dynamic_wheel(n: int, seed: int, batch: int = 64, draws: int = 4096) -> Dict[str, Any]:
    """Batched vs scalar timings of the Fenwick wheel at wheel size ``n``."""
    from repro.core.dynamic import FenwickSampler

    rng = np.random.default_rng(seed)
    base = rng.random(n) + 0.01
    idx = rng.integers(0, n, size=batch)
    vals = rng.random(batch) + 0.01

    s1 = FenwickSampler(base)
    start = time.perf_counter()
    for i, v in zip(idx.tolist(), vals.tolist()):
        s1.update(i, v)
    loop_update_s = time.perf_counter() - start

    s2 = FenwickSampler(base)
    start = time.perf_counter()
    s2.update_many(idx, vals)
    batch_update_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(draws):
        s2.select(rng)
    loop_select_s = time.perf_counter() - start

    start = time.perf_counter()
    s2.select_many(draws, rng)
    batch_select_s = time.perf_counter() - start

    return {
        "n": n,
        "batch": batch,
        "draws": draws,
        "rebuild_cutoff": s2.rebuild_cutoff,
        "update_loop_s": loop_update_s,
        "update_many_s": batch_update_s,
        "update_speedup": loop_update_s / batch_update_s if batch_update_s else float("inf"),
        "select_loop_s": loop_select_s,
        "select_many_s": batch_select_s,
        "select_speedup": loop_select_s / batch_select_s if batch_select_s else float("inf"),
    }


def _converged_leg(
    desirability: np.ndarray, n_ants: int, seed: int, block: int, repeats: int
) -> Dict[str, Any]:
    """Kernel time on fresh weights vs a converged colony's weights.

    The converged state keeps the edges of one ring tour (city ``i`` to
    ``i + 1``) and multiplies every other weight by
    :data:`CONVERGED_DECAY`.  The lockstep kernel shifts the weights by
    an exact power of two before its float32 scan, so the decayed
    weights stay normal floats and a converged iteration should cost
    about what a fresh one does.
    """
    n = desirability.shape[0]
    ring, succ = np.arange(n), np.roll(np.arange(n), -1)
    converged = desirability * CONVERGED_DECAY
    converged[ring, succ] = desirability[ring, succ]
    converged[succ, ring] = desirability[succ, ring]
    workspace: Dict = {}
    times = {}
    for name, D in (("fresh", desirability), ("converged", converged)):
        rng = np.random.default_rng(seed)
        run = partial(tsp_lockstep_orders, D, n_ants, rng, block=block, workspace=workspace)
        run()  # warm-up (workspace allocation)
        times[name] = 1e3 * best_of(run, repeats=repeats)
    return {
        "decay": CONVERGED_DECAY,
        "fresh_ms": times["fresh"],
        "converged_ms": times["converged"],
        "slowdown": times["converged"] / times["fresh"],
    }


def _equivalence_certificate(
    methods: Sequence[str], n: int, n_ants: int, seed: int
) -> Dict[str, Any]:
    """Scalar-vs-faithful-lockstep equality on small instances, all colonies."""
    from repro.aco.coloring.colony import ColoringColony, ColoringConfig
    from repro.aco.coloring.instance import ColoringInstance
    from repro.aco.qap.colony import QAPColony, QAPConfig
    from repro.aco.qap.instance import QAPInstance
    from repro.aco.tsp.colony import AntSystem, AntSystemConfig
    from repro.aco.tsp.instance import TSPInstance

    tsp = TSPInstance.random_euclidean(n, seed=seed)
    qap = QAPInstance.random_uniform(max(8, n // 2), seed=seed)
    graph = ColoringInstance.random_gnp(max(8, n // 2), 0.3, seed=seed)
    out: Dict[str, Any] = {"n": n, "n_ants": n_ants, "per_method": {}}
    all_ok = True
    for method in methods:
        cfg = AntSystemConfig(n_ants=n_ants, selection=method)
        scalar = AntSystem(tsp, cfg, rng=seed)
        streams = AntStreams((seed, 0), n_ants)
        tours_s = [scalar.construct_tour(rng=streams.generator(i)) for i in range(n_ants)]
        lock = AntSystem(tsp, cfg, rng=seed)
        tours_v = lock.construct_tours_lockstep(streams=AntStreams((seed, 0), n_ants))
        tsp_ok = all(
            np.array_equal(a.order, b.order) for a, b in zip(tours_s, tours_v)
        ) and scalar.stats.k_histogram == lock.stats.k_histogram

        qcfg = QAPConfig(n_ants=n_ants, selection=method)
        q1 = QAPColony(qap, qcfg, rng=seed)
        qs = AntStreams((seed, 1), n_ants)
        a1 = [q1.construct(rng=qs.generator(i)) for i in range(n_ants)]
        q2 = QAPColony(qap, qcfg, rng=seed)
        a2 = q2.construct_lockstep(streams=AntStreams((seed, 1), n_ants))
        qap_ok = all(np.array_equal(x, y) for x, y in zip(a1, a2)) and (
            q1.stats.k_histogram == q2.stats.k_histogram
        )

        ccfg = ColoringConfig(n_ants=n_ants, selection=method)
        c1 = ColoringColony(graph, ccfg, rng=seed)
        cs = AntStreams((seed, 2), n_ants)
        b1 = [c1.construct(rng=cs.generator(i)) for i in range(n_ants)]
        c2 = ColoringColony(graph, ccfg, rng=seed)
        b2 = c2.construct_lockstep(streams=AntStreams((seed, 2), n_ants))
        col_ok = all(np.array_equal(x, y) for x, y in zip(b1, b2)) and (
            c1.stats.k_histogram == c2.stats.k_histogram
        )

        out["per_method"][method] = {
            "tsp": bool(tsp_ok),
            "qap": bool(qap_ok),
            "coloring": bool(col_ok),
        }
        all_ok = all_ok and tsp_ok and qap_ok and col_ok
    out["all_identical"] = bool(all_ok)
    return out


def run_bench_aco(
    n: int = 500,
    n_ants: int = 128,
    iterations: int = 2,
    seed: int = 0,
    methods: Sequence[str] = LOCKSTEP_METHODS,
    scalar_ants: Optional[int] = None,
    block: int = DEFAULT_BLOCK,
    gate_method: str = "log_bidding",
    gate_target: float = 20.0,
    equivalence_n: int = 32,
    equivalence_ants: int = 6,
) -> Dict[str, Any]:
    """Time scalar vs lockstep colony construction and assemble the report.

    The default configuration is the acceptance gate: a paper-scale
    Euclidean TSP (``n = 500``) with ``n_ants = 128`` and a >= 20x
    tours/s ratio of the vectorized engine over the scalar per-ant loop
    for ``gate_method``.  The scalar leg runs ``scalar_ants`` ants
    (default ``min(n_ants, 8)``) so the bench stays minutes-free —
    tours/s is per-tour throughput, independent of the colony size.
    """
    from repro.aco.tsp.instance import TSPInstance

    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if n_ants <= 0 or iterations <= 0:
        raise ValueError("n_ants and iterations must be positive")
    methods = [str(m) for m in methods]
    unknown = [m for m in methods if m not in LOCKSTEP_METHODS]
    if unknown:
        raise ValueError(f"methods without a lockstep kernel: {unknown}")
    if gate_method not in methods:
        raise ValueError(f"gate_method {gate_method!r} not in methods {methods}")
    if scalar_ants is None:
        scalar_ants = min(n_ants, 8)

    instance = TSPInstance.random_euclidean(n, seed=seed)
    draws_per_tour = n - 1
    per_method: Dict[str, Any] = {}
    for method in methods:
        scalar = _tsp_colony(instance, method, scalar_ants, "scalar", seed)
        scalar.step()  # warm-up (visibility powers, allocator)
        scalar_s = _time_steps(scalar, iterations)

        vec = _tsp_colony(instance, method, n_ants, "vectorized", seed)
        vec.step()  # warm-up (workspace allocation)
        vec_s = _time_steps(vec, iterations)

        faithful_streams = AntStreams((seed, 3), n_ants)
        desirability = vec._desirability()
        start = time.perf_counter()
        tsp_lockstep_orders_faithful(
            desirability, faithful_streams, method=method
        )
        faithful_s = time.perf_counter() - start

        scalar_tps = scalar_ants / scalar_s
        vec_tps = n_ants / vec_s
        per_method[method] = {
            "scalar_ants": scalar_ants,
            "vectorized_ants": n_ants,
            "iterations": iterations,
            "scalar_iteration_s": scalar_s,
            "vectorized_iteration_s": vec_s,
            "faithful_s": faithful_s,
            "scalar_tours_per_s": scalar_tps,
            "vectorized_tours_per_s": vec_tps,
            "faithful_tours_per_s": n_ants / faithful_s,
            "speedup": vec_tps / scalar_tps,
            "scalar_us_per_draw": 1e6 * scalar_s / (scalar_ants * draws_per_tour),
            "vectorized_us_per_draw": 1e6 * vec_s / (n_ants * draws_per_tour),
        }

    # Sparsity profile: mean candidate count per construction step of one
    # lockstep iteration (k = n - step on strictly positive wheels; the
    # k << n regime is the paper's motivation).
    profile_colony = _tsp_colony(instance, gate_method, n_ants, "vectorized", seed)
    k_profile: list = []
    tsp_lockstep_orders(
        profile_colony._desirability(),
        n_ants,
        profile_colony.rng,
        method=gate_method,
        block=block,
        k_profile=k_profile,
    )
    stride = max(1, len(k_profile) // _PROFILE_POINTS)
    sparsity = {
        "steps": len(k_profile),
        "stride": stride,
        "mean_k": [round(v, 2) for v in k_profile[::stride]],
        "k_first": k_profile[0] if k_profile else None,
        "k_last": k_profile[-1] if k_profile else None,
    }

    converged = _converged_leg(
        profile_colony._desirability(), n_ants, seed, block, iterations
    )
    dynamic_wheel = _bench_dynamic_wheel(n, seed)
    equivalence = _equivalence_certificate(
        methods, equivalence_n, equivalence_ants, seed
    )
    config = {
        "n": n,
        "n_ants": n_ants,
        "iterations": iterations,
        "seed": seed,
        "methods": methods,
        "scalar_ants": scalar_ants,
        "block": block,
        "equivalence_n": equivalence_n,
        "equivalence_ants": equivalence_ants,
        "gate_method": gate_method,
    }
    results = {
        "per_method": per_method,
        "sparsity": sparsity,
        "dynamic_wheel": dynamic_wheel,
        "equivalence": equivalence,
        "converged": converged,
    }
    sections = {"results": results}
    gates = [
        gate(sections, "results.equivalence.all_identical", "==", True, required=True),
        gate(sections, f"results.per_method.{gate_method}.speedup", ">=", gate_target),
        gate(sections, "results.converged.slowdown", "<=", 1.5),
    ]
    return make_record("aco", config, sections, gates)


def render_bench_aco(report: Dict[str, Any]) -> str:
    """One-screen human summary of an ACO bench report."""
    c, r = report["config"], report["results"]
    lines = [
        f"== ACO bench: n={c['n']}, n_ants={c['n_ants']}, "
        f"iterations={c['iterations']}, seed={c['seed']} ==",
        f"{'method':>12s}  {'scalar t/s':>10s}  {'lockstep t/s':>12s}  "
        f"{'faithful t/s':>12s}  {'speedup':>8s}  {'us/draw':>8s}",
    ]
    for method, e in r["per_method"].items():
        lines.append(
            f"{method:>12s}  {e['scalar_tours_per_s']:>10.1f}  "
            f"{e['vectorized_tours_per_s']:>12.1f}  "
            f"{e['faithful_tours_per_s']:>12.1f}  "
            f"{e['speedup']:>7.1f}x  {e['vectorized_us_per_draw']:>8.2f}"
        )
    s = r["sparsity"]
    lines.append(
        f"sparsity: k {s['k_first']:.0f} -> {s['k_last']:.0f} over "
        f"{s['steps']} steps (mean per-step candidate count)"
    )
    cv = r["converged"]
    lines.append(
        f"converged kernel: {cv['fresh_ms']:.1f} ms fresh, "
        f"{cv['converged_ms']:.1f} ms with off-tour weights x{cv['decay']:.3g} "
        f"({cv['slowdown']:.2f}x)"
    )
    d = r["dynamic_wheel"]
    lines.append(
        f"fenwick n={d['n']}: update_many {d['update_speedup']:.1f}x, "
        f"select_many {d['select_speedup']:.1f}x (cutoff {d['rebuild_cutoff']})"
    )
    lines.append(
        f"equivalence (n={r['equivalence']['n']}): all colonies identical = "
        f"{r['equivalence']['all_identical']}"
    )
    lines.append(render_gates(report))
    return "\n".join(lines)

"""Scenario plugins: the bench drivers behind one uniform cell contract.

A scenario is a callable ``run(config: dict) -> dict`` taking one cell's
parameter point and returning a flat dict of scalar metrics — one tidy
row.  The built-ins wire in the existing paper-reproduction drivers:

========== ===========================================================
name       wraps
========== ===========================================================
engine     :func:`repro.engine.bench.run_bench` (compiled throughput)
race       :func:`repro.engine.race_bench.run_bench_race` (round counts)
aco        :func:`repro.engine.aco_bench.run_bench_aco` (tours/s)
serve      :func:`repro.service.bench.measure_scheduler_leg` (draws/s)
accuracy   :func:`repro.bench.runner.monte_carlo_selection` (Tables I/II)
tune       :func:`repro.tune.bench.run_bench_tune` (speedup prediction)
rs         :func:`repro.select.rs.run_rs` (screening PCS / samples)
lottery    :class:`repro.select.lottery.CommitteeLottery` (marginal err)
sleep      deterministic-duration no-op (tests, kill-and-resume gate)
========== ===========================================================

Every new workload lands as a ``@scenario`` plugin plus a config file
under ``examples/lab/`` — not a new CLI.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping

__all__ = ["SCENARIOS", "scenario", "run_cell", "flatten_metrics"]

#: Registry of scenario name -> runner.
SCENARIOS: Dict[str, Callable[[Mapping[str, Any]], Dict[str, Any]]] = {}


def scenario(name: str):
    """Register a scenario plugin under ``name`` (decorator)."""

    def register(fn: Callable[[Mapping[str, Any]], Dict[str, Any]]):
        if name in SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIOS[name] = fn
        return fn

    return register


def run_cell(config: Mapping[str, Any]) -> Dict[str, Any]:
    """Dispatch one cell config to its scenario; returns tidy metrics."""
    name = config.get("scenario")
    runner = SCENARIOS.get(str(name))
    if runner is None:
        raise ValueError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        )
    params = {k: v for k, v in config.items() if k != "scenario"}
    return flatten_metrics(runner(params))


def flatten_metrics(tree: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    """Flatten nested metric dicts to dotted scalar columns.

    Non-scalar leaves (lists, arrays) are dropped — tidy rows hold
    scalars; anything richer belongs in the scenario's own artifacts.
    """
    out: Dict[str, Any] = {}
    for k, v in tree.items():
        name = f"{prefix}{k}"
        if isinstance(v, Mapping):
            out.update(flatten_metrics(v, prefix=f"{name}."))
        elif isinstance(v, bool) or isinstance(v, (int, float, str)):
            out[name] = v
        else:
            item = getattr(v, "item", None)
            if callable(item):
                out[name] = item()
    return out


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
@scenario("engine")
def _engine(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Compiled-kernel selection throughput (the ``bench engine`` driver)."""
    from repro.engine.bench import run_bench

    report = run_bench(
        n=int(params.get("n", 1000)),
        draws=int(params.get("draws", 1_000_000)),
        seed=int(params.get("seed", 0)),
        method=str(params.get("method", "log_bidding")),
    )
    results = dict(report["results"])
    results["draws_per_s_compiled"] = (
        report["config"]["draws"] / results["compiled_select_many_s"]
        if results["compiled_select_many_s"]
        else 0.0
    )
    return results


@scenario("race")
def _race(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Theorem-1 race round counts vs the exact law (``bench race`` driver)."""
    from repro.engine.race_bench import run_bench_race

    k = int(params.get("k", 1024))
    report = run_bench_race(
        ks=[k],
        trials=int(params.get("trials", 10_000)),
        seed=int(params.get("seed", 0)),
        workers=int(params["workers"]) if "workers" in params else None,
        pram_k=min(k, int(params.get("pram_k", 64))),
        pram_reps=int(params.get("pram_reps", 3)),
    )
    row = dict(report["results"]["per_k"][0])
    row.pop("quantiles", None)
    row.pop("exact_quantiles", None)
    row.pop("ci", None)
    row["speedup_vs_pram"] = report["results"]["speedup_vs_pram"]
    return row


@scenario("aco")
def _aco(params: Mapping[str, Any]) -> Dict[str, Any]:
    """End-to-end colony construction tours/s (``bench aco`` driver)."""
    from repro.engine.aco_bench import run_bench_aco

    report = run_bench_aco(
        n=int(params.get("n", 100)),
        n_ants=int(params.get("ants", 32)),
        iterations=int(params.get("iterations", 1)),
        seed=int(params.get("seed", 0)),
    )
    # One dotted column group per lockstep method (run_cell flattens it).
    return dict(report["results"]["per_method"])


@scenario("serve")
def _serve(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Served draw throughput through the service stack, naive vs batched.

    Runs in-process (registry + micro-batch scheduler + closed-loop
    clients, the scheduler legs of ``bench serve``) so a lab matrix can
    sweep backends and batching knobs without binding ports; the TCP,
    cluster and UPDATE legs stay in ``bench serve``.
    """
    import numpy as np

    from repro.service.bench import measure_scheduler_leg
    from repro.service.scheduler import (
        BatchConfig,
        MicroBatchScheduler,
        NaiveScheduler,
    )

    n_draws = int(params.get("n_draws", 8))
    seed = int(params.get("seed", 0))
    config = BatchConfig(
        max_batch=int(params.get("max_batch", 64)),
        max_delay_us=float(params.get("max_delay_us", 200.0)),
    )
    fitness = np.arange(1.0, int(params.get("n", 1000)) + 1.0)

    def measure(make_scheduler) -> Dict[str, Any]:
        return measure_scheduler_leg(
            make_scheduler,
            fitness,
            method=str(params.get("method", "log_bidding")),
            backend=str(params.get("backend", "compiled")),
            clients=int(params.get("clients", 16)),
            requests_per_client=int(params.get("requests_per_client", 8)),
            n_draws=n_draws,
        )

    naive = measure(lambda r: NaiveScheduler(r, seed=seed))
    batched = measure(lambda r: MicroBatchScheduler(r, config, seed=seed))
    naive_rps, batched_rps = naive["requests_per_s"], batched["requests_per_s"]
    return {
        "requests": batched["requests"],
        "requests_per_s_naive": naive_rps,
        "requests_per_s_batched": batched_rps,
        "speedup_batched_vs_naive": batched_rps / naive_rps if naive_rps else 0.0,
        "draws_per_s": batched["draws_per_s"],
    }


@scenario("accuracy")
def _accuracy(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Tables I/II selection-accuracy cells: one method on one workload."""
    from repro.bench.runner import monte_carlo_selection
    from repro.bench.workloads import make_workload

    workload = str(params.get("workload", "linear"))
    n = int(params.get("n", 10))
    method = str(params.get("method", "log_bidding"))
    iterations = int(params.get("iterations", 100_000))
    seed = int(params.get("seed", 0))
    fitness = make_workload(workload, n=n)
    mc = monte_carlo_selection(fitness, [method], iterations, seed=seed)
    return {
        "iterations": iterations,
        "tv_distance": mc.tv(method),
        "max_abs_error": mc.max_error(method),
        "gof_pvalue": mc.gof_pvalue(method),
    }


@scenario("tune")
def _tune(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One ``bench tune`` point: calibrate, predict, and gate on this host.

    Exposes the tuner's headline numbers as tidy columns so a lab
    matrix can sweep seeds or workloads and chart prediction error and
    autotune quality alongside the other scenarios.
    """
    from repro.bench.record import failed_gates
    from repro.tune.bench import run_bench_tune

    report = run_bench_tune(
        seed=int(params.get("seed", 0)),
        trials=int(params.get("trials", 12)),
        race_trials=int(params.get("race_trials", 4)),
        wheel_n=int(params.get("n", 1024)),
        method=str(params.get("method", "log_bidding")),
        clients=int(params.get("clients", 8)),
        requests_per_client=int(params.get("requests_per_client", 16)),
        n_draws=int(params.get("n_draws", 8)),
        race_trials_probe=int(params.get("race_trials_probe", 5000)),
    )
    cal, sg, at = (
        report["calibration"],
        report["speedup_gate"],
        report["autotune_gate"],
    )
    return {
        "draw_ns": cal["draw_ns"],
        "spawn_overhead_ms": cal["spawn_overhead_s"] * 1e3,
        "min_draws_per_worker": cal["min_draws_per_worker"] or 0,
        "race_law_error": report["predictor"]["worst_relative_error"],
        "speedup_gate_skipped": "worst_relative_error" not in sg,
        "speedup_gate_error": sg.get("worst_relative_error", 0.0),
        "autotune_ratio": at["ratio_vs_best_static"],
        "probe_budget_fraction": at["probe_budget_fraction"],
        "gates_failed": len(failed_gates(report)),
    }


@scenario("rs")
def _rs(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Screening R&S on the slippage configuration: PCS and budget.

    One cell = one (K, delta, alpha, seed) point; the matrix axes map
    to the Ni-Henderson-Ciocan experiment grid (systems x indifference
    zone), with ``workers`` sweepable for the parallel-screening leg.
    """
    from repro.select.rs import make_systems, run_rs

    instance = make_systems(
        int(params.get("systems", 10)),
        float(params.get("delta", 0.05)),
        outcomes=int(params.get("outcomes", 33)),
    )
    report = run_rs(
        instance,
        int(params.get("replications", 20)),
        alpha=float(params.get("alpha", 0.1)),
        n0=int(params.get("n0", 32)),
        growth=float(params.get("growth", 2.0)),
        max_rounds=int(params.get("max_rounds", 10)),
        seed=int(params.get("seed", 0)),
        workers=int(params["workers"]) if "workers" in params else None,
    )
    return {
        "pcs": report["pcs"],
        "target_pcs": 1.0 - report["alpha"],
        "replications": report["replications"],
        "workers": report["workers"],
        "mean_rounds": report["mean_rounds"],
        "mean_samples": report["mean_samples"],
        "total_samples": report["total_samples"],
        "wall_s": report["wall_s"],
        "samples_per_s": report["samples_per_s"],
    }


@scenario("lottery")
def _lottery(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Smooth partial lottery: marginal error vs throughput for one backend.

    One cell = one (K, k, smoothing, method, seed) point; sweeping
    ``method`` over log_bidding and independent reproduces the
    exactness-vs-bias comparison of the lottery paper as a lab table.
    """
    import numpy as np

    from repro.bench.workloads import make_scores
    from repro.rng.streams import derive_seed
    from repro.select.lottery import CommitteeLottery

    n = int(params.get("n", 64))
    k = int(params.get("k", 8))
    method = str(params.get("method", "log_bidding"))
    draws = int(params.get("draws", 100_000))
    seed = int(params.get("seed", 0))
    landscape = str(params.get("scores", "normal"))
    score_kwargs = {"n": n}
    if landscape != "tied":
        score_kwargs["seed"] = derive_seed(seed, 1)
    scores = make_scores(landscape, **score_kwargs)
    lottery = CommitteeLottery(
        scores, k, smoothing=float(params.get("smoothing", 0.35)),
        method=method,
    )
    rng = np.random.default_rng(derive_seed(seed, 2))
    start = time.perf_counter()
    counts = lottery.component_counts(draws, rng=rng)
    elapsed = time.perf_counter() - start
    empirical = lottery.marginal_error(lottery.empirical_marginals(counts))
    analytic = lottery.marginal_error(lottery.induced_marginals())
    return {
        "n_components": lottery.n_components,
        "draws": draws,
        "max_abs_error": empirical["max_abs"],
        "tv_per_seat": empirical["tv_per_seat"],
        "analytic_max_abs_error": analytic["max_abs"],
        "analytic_tv_per_seat": analytic["tv_per_seat"],
        "elapsed_s": elapsed,
        "draws_per_s": draws / elapsed if elapsed else 0.0,
    }


@scenario("sleep")
def _sleep(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Deterministic-duration cell for tests and the kill-resume gate."""
    ms = float(params.get("ms", 50.0))
    time.sleep(ms / 1000.0)
    return {"slept_ms": ms}


def _collect_entry_points() -> None:
    """Adopt third-party plugins advertised as ``repro.lab.scenarios``."""
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py<3.8 never ships here
        return
    try:
        eps = entry_points(group="repro.lab.scenarios")
    except TypeError:  # pragma: no cover - legacy importlib.metadata
        eps = entry_points().get("repro.lab.scenarios", [])
    for ep in eps:  # pragma: no cover - no third-party plugins in-tree
        if ep.name not in SCENARIOS:
            SCENARIOS[ep.name] = ep.load()


_collect_entry_points()

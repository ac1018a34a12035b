"""The ``colony-tsp`` and ``paper-race`` workloads: library calls in a fresh process.

Both bypass the service.  ``colony-tsp`` steps a vectorized Ant System
(the lockstep construction kernels); ``paper-race`` runs the paper's
Table I and Table II wheels through ``parallel_counts`` with the faithful
log-bidding race kernel and two worker processes (sharing one CPU).

The parent spawns this file as a child (``python perfbench/inproc.py
WORKLOAD SEED SECONDS SMOKE SPANS_DIR``).  The child imports ``repro``,
builds the workload and prints ``READY``; the parent times spawn to
``READY`` as one cold start.  After three cold starts the last child gets
``GO``, runs, and prints ``RESULT <json>``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    _root = Path(__file__).resolve().parent.parent
    sys.path[0] = str(_root)
    sys.path.insert(1, str(_root / "src"))

from perfbench import spans  # noqa: E402
from perfbench.common import (  # noqa: E402
    ROOT,
    LineReader,
    RunResult,
    child_env,
    log,
    median,
    percentile,
    pin,
    spans_dir,
    stop_process,
    vm_hwm_mb,
)
from perfbench.speed import between, cpus_by_speed, run_slowdown, slowdown_on  # noqa: E402

COLD_STARTS = 3
#: Colony iterations per second of ``--seconds``, capped.  The work is
#: fixed rather than time-bounded because an iteration's cost depends on
#: how far the colony has converged: at 500 cities, iterations ~105-132
#: run about 7x slower than the first hundred (their weights have decayed
#: to float32 subnormals), and every run must cover them.  The cap stays
#: below iteration 133, where weights underflow to float32 zero and the
#: lockstep kernel starts emitting tours that repeat a city.
ITERATIONS_PER_SECOND = 8.7
MAX_ITERATIONS = 130
#: Race blocks (draws per parallel_counts call) sized so a Table I and a
#: Table II block take about the same time (~0.15 s) on one vCPU.
RACE_BLOCKS = {"full": (1_500_000, 225_000), "smoke": (20_000, 4_000)}
RACE_WORKERS = 2
#: Paper-race draws are checked per table: every |p_i - F_i| within
#: this many binomial standard deviations.
SIGMAS = 5.0
#: Reference kernel of the slowdown (``perfbench.speed``).  It is probed
#: before the first op and after each one; an op's time is divided by
#: the mean of the two probes around it, set-up by the mean of all the
#: run's probes.  The colony's iterations are NumPy-bound; the race's blocks
#: also fork, pickle and reduce in the interpreter, and tracked the
#: ``py`` kernel best (p90 block time spread over ten runs 0.015-0.03
#: against 0.055-0.09 with ``np``).
SPEED_KIND = {"colony-tsp": "np", "paper-race": "py"}


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------


def _colony_setup(seed: int, seconds: float, smoke: bool):
    from repro.aco.tsp.colony import AntSystem, AntSystemConfig
    from repro.aco.tsp.instance import TSPInstance
    from repro.engine import colony

    cities, ants = (60, 16) if smoke else (500, 128)
    inst = TSPInstance.random_euclidean(cities, seed=seed)
    system = AntSystem(inst, AntSystemConfig(n_ants=ants, engine="vectorized"), rng=seed)
    # Keep each iteration's orders (a fresh array per call) for the
    # permutation check, which runs outside the timed step.
    last = {}
    kernel = colony.tsp_lockstep_orders

    def keep_orders(*args, **kwargs):
        last["orders"] = kernel(*args, **kwargs)
        return last["orders"]

    colony.tsp_lockstep_orders = keep_orders
    return system, last, max(1, min(MAX_ITERATIONS, round(ITERATIONS_PER_SECOND * seconds)))


def _colony_run(state) -> dict:
    import numpy as np

    system, last, iterations = state
    n = system.instance.n
    expect = np.arange(n)
    step_s, permutations = [], True
    probes = [slowdown_on(None)]
    clock = time.perf_counter
    for _ in range(iterations):
        start = clock()
        system.step()
        step_s.append(clock() - start)
        permutations &= bool((np.sort(last["orders"], axis=1) == expect).all())
        probes.append(slowdown_on(None))
    return {
        "op_s": step_s,
        "probes": probes,
        "op_work": [system.config.n_ants] * iterations,
        "checks": {"tours_are_permutations": permutations},
        "detail": {"colony.best_length": [system.best_tour.length, "1"]},
    }


def _race_setup(seed: int, seconds: float, smoke: bool):
    from repro.bench.workloads import linear_fitness, two_level_fitness
    from repro.engine import parallel

    tables = (linear_fitness(10), two_level_fitness(100))
    # One small call forks the pool once, so page-ins and lazy imports
    # land in set-up rather than in the first timed block.
    parallel.parallel_counts(tables[0], 10_000, kernel="faithful", workers=RACE_WORKERS, seed=seed)
    return tables, RACE_BLOCKS["smoke" if smoke else "full"], seed, seconds


def _race_run(state) -> dict:
    import numpy as np

    from repro.engine import parallel

    tables, blocks, seed, seconds = state
    counts = [np.zeros(f.size, dtype=np.int64) for f in tables]
    block_s = ([], [])
    op_s, op_work = [], []
    probes = [slowdown_on(None)]
    clock = time.perf_counter
    stop = clock() + seconds
    k = 0
    while clock() < stop or k < 2:
        t = k % 2
        start = clock()
        counts[t] += parallel.parallel_counts(
            tables[t], blocks[t], kernel="faithful", workers=RACE_WORKERS, seed=seed * 1_000_003 + k
        )
        took = clock() - start
        block_s[t].append(took)
        op_s.append(took)
        op_work.append(blocks[t])
        probes.append(slowdown_on(None))
        k += 1
    checks, detail = {}, {}
    for t, f in enumerate(tables):
        total = int(counts[t].sum())
        p = f / f.sum()
        sigma = np.sqrt(p * (1.0 - p) / total)
        err = np.abs(counts[t] / total - p)
        z = np.where(sigma > 0, err / np.where(sigma > 0, sigma, 1.0), np.where(err > 0, np.inf, 0.0))
        name = f"table{t + 1}"
        checks[f"{name}_within_{SIGMAS:g}_sigma"] = bool(z.max() <= SIGMAS)
        detail[f"{name}_draws_per_s"] = [blocks[t] / median(block_s[t]), "1/s"]
        detail[f"{name}_max_z"] = [float(z.max()), "sigma"]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "op_s": op_s,
        "probes": probes,
        "op_work": op_work,
        "checks": checks,
        "detail": detail,
        # Two pool workers are alive at once; each is at most this large.
        "children_rss_mb": RACE_WORKERS * usage.ru_maxrss / 1024.0,
    }


_SETUP = {"colony-tsp": (_colony_setup, _colony_run, spans.install_colony),
          "paper-race": (_race_setup, _race_run, spans.install_race)}


def child_main(argv) -> int:
    workload, seed, seconds, smoke, trace_dir = argv
    seed, seconds, smoke = int(seed), float(seconds), smoke == "1"
    start = time.perf_counter()
    import repro  # noqa: F401  - timed: the import users pay at start

    import_s = time.perf_counter() - start
    setup, body, install = _SETUP[workload]
    recorder = None
    if trace_dir != "-":
        recorder = spans.Recorder(trace_dir)
        recorder.meta["import_s"] = import_s
    state = setup(seed, seconds, smoke)
    if recorder is not None:
        install(recorder)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        if recorder is not None:
            recorder.flush()
        return 0
    cpu0 = sum(os.times()[:4])
    start_ns = time.perf_counter_ns()
    out = body(state)
    end_ns = time.perf_counter_ns()
    out["cpu_s"] = sum(os.times()[:4]) - cpu0
    out["cpus"] = len(os.sched_getaffinity(0))
    out["window_ns"] = [start_ns, end_ns]
    out["import_s"] = import_s
    out["rss_mb"] = vm_hwm_mb(os.getpid()) + out.pop("children_rss_mb", 0.0)
    if recorder is not None:
        recorder.flush()
    print("RESULT " + json.dumps(out), flush=True)
    return 0


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> RunResult:
    cold_starts = 1 if smoke else COLD_STARTS
    setups, setup_probes, dirs = [], [], []
    out = None
    # The workload runs on the fastest CPU at hand; the race's two pool
    # workers share it.  Letting them spread over both vCPUs made each
    # block wait for the slower one and doubled the run-to-run spread of
    # its p90 (0.21 against 0.10 over ten runs).
    own_cpus = os.sched_getaffinity(0)
    pinned = len(own_cpus) > 1
    for i in range(cold_starts):
        trace_dir = spans_dir(f"{workload}-{i}") if traced else None
        dirs.append(trace_dir)
        cpus = {cpus_by_speed(own_cpus)[0]} if pinned else None
        setup_probes.append(slowdown_on(cpus))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), workload, str(seed),
             repr(seconds), "1" if smoke else "0", str(trace_dir or "-")],
            cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=None,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
            start_new_session=True,
        )
        try:
            lines = LineReader(proc, proc.stdout)
            lines.wait_for("READY", 300.0)
            setups.append(time.perf_counter() - start)
            # The child now waits on stdin, so its CPU is free to probe.
            setup_probes.append(slowdown_on(cpus))
            last = i == cold_starts - 1
            if last and pinned:
                pin([proc.pid], {cpus_by_speed(own_cpus)[0]})
            proc.stdin.write(b"GO\n" if last else b"EXIT\n")
            proc.stdin.flush()
            if last:
                line = lines.wait_for("RESULT ", 900.0)
                out = json.loads(line[len("RESULT "):])
            proc.wait(timeout=60.0)
        finally:
            stop_process(proc)
    log(f"{workload}: setup {[round(s, 3) for s in setups]} s")

    op_s, op_work, probes = out["op_s"], out["op_work"], out["probes"]
    kind = SPEED_KIND[workload]
    slow = between(probes, kind)
    norm_s = [t / f for t, f in zip(op_s, slow)]
    wall_s = (out["window_ns"][1] - out["window_ns"][0]) / 1e9
    result = RunResult(
        workload=workload,
        seed=seed,
        traced=traced,
        metrics={
            "setup_s": median(setups) / run_slowdown(setup_probes + probes, kind),
            "peak_rss_mb": out["rss_mb"],
            "latency_p50_ms": median(norm_s) * 1e3,
            "throughput_per_s": sum(op_work) / sum(norm_s),
        },
        attempted=len(op_s),
        failed=0,
        checks=out["checks"],
        detail={
            **out["detail"],
            "startup.import_s": [out["import_s"], "s"],
            "cpu.busy_s_per_s": [out["cpu_s"] / wall_s, "s/s"],
            "host.slowdown": [median(slow), "x"],
            "raw.latency_p50_ms": [median(op_s) * 1e3, "ms"],
            "raw.latency_p90_ms": [percentile(op_s, 0.9) * 1e3, "ms"],
            "raw.setup_s": [median(setups), "s"],
        },
        series={"setup_s": setups, "setup_probes": setup_probes, "op_s": op_s, "probes": probes},
    )
    if traced:
        _layers(result, dirs, out)
    return result


def _layers(result: RunResult, dirs, out) -> None:
    start_ns, end_ns = out["window_ns"]
    dumps = spans.load(dirs[-1])
    imports = [d["meta"]["import_s"] for directory in dirs for d in spans.load(directory)
               if "import_s" in d["meta"]]

    def in_window(name):
        return [s for s in spans.merged(dumps, name) if start_ns <= s[0] and s[1] <= end_ns]

    if result.workload == "colony-tsp":
        entries, kernels = in_window("aco.step"), in_window("colony.construct")
        kernel_times = [s[1] - s[0] for s in kernels]
    else:
        # The pool workers' spans overlap on their shared CPU: count the
        # CPU time each one spent in the kernel instead.
        entries, kernels = in_window("parallel.counts"), in_window("compiled.counts")
        kernel_times = [s[3] for s in kernels]
    kernel_ns = sum(kernel_times)
    kernel_draws = sum(s[2] for s in kernels)
    entry_us = spans.durations_us(entries)
    self_us = [t / 1e3 for t in spans.self_times(entries, kernels)]
    wall_ns = end_ns - start_ns
    result.layers.update(
        {
            "startup.import_s": median(imports),
            "entry.us_p50": percentile(entry_us, 0.5),
            "entry.us_p99": percentile(entry_us, 0.99),
            "entry.self_us_p50": percentile(self_us, 0.5),
            "kernel.us_p50": percentile([t / 1e3 for t in kernel_times], 0.5),
            "kernel.ns_per_draw": kernel_ns / max(1, kernel_draws),
            "kernel.busy_s_per_s": kernel_ns / wall_ns,
            "cpu.busy_s_per_s": result.detail["cpu.busy_s_per_s"][0],
        }
    )
    if result.workload == "colony-tsp":
        construct_ms = [u / 1e3 for u in spans.durations_us(kernels)]
        result.detail.update(
            {
                "colony.construct_ms_p50": [percentile(construct_ms, 0.5), "ms"],
                "colony.construct_ms_max": [max(construct_ms), "ms"],
                "colony.construct_share": [kernel_ns / max(1, sum(s[1] - s[0] for s in entries)), "frac"],
                "aco.step_self_ms_p50": [percentile(self_us, 0.5) / 1e3, "ms"],
            }
        )
    else:
        blocks_s = [u / 1e6 for u in entry_us]
        # Share of the block's CPU-seconds (wall time x CPUs the workers
        # ran on) spent in the race kernel.
        efficiency = [
            sum(k[3] for k in kernels if e[0] <= k[0] and k[1] <= e[1])
            / (out["cpus"] * (e[1] - e[0]))
            for e in entries
        ]
        result.detail.update(
            {
                "parallel.wall_s": [percentile(blocks_s, 0.5), "s"],
                "parallel.efficiency": [percentile(efficiency, 0.5), "frac"],
                "compiled.race_ns_per_draw": [kernel_ns / max(1, kernel_draws), "ns"],
            }
        )


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))

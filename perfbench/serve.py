"""The ``serve-hot`` and ``serve-live`` workloads: the selection service over TCP.

``serve-hot`` runs ``python -m repro serve`` (one process: wire,
scheduler, alias kernel); ``serve-live`` runs ``serve --workers 2`` (a
front end, two forked shards and the shared-memory wheel store) and turns
a tenth of the requests into ``UPDATE`` frames, so versioned wheels and
LRU eviction run beside the draws.

A run: three cold starts of the server, each timed from spawn until all
64 wheels are registered (``setup_s`` is their median); on the last one
an open-loop phase (Poisson arrivals at a fixed rate, latency timed from
each request's due time) and a closed-loop phase (a fixed number of
pipelined requests per connection, throughput the median rate of its
segments).  Every timing is normalized by the host's slowdown.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import loadgen, spans
from perfbench.common import (
    ROOT,
    LineReader,
    RunResult,
    child_env,
    child_pids,
    cpu_seconds,
    log,
    median,
    percentile,
    pin,
    spans_dir,
    stop_process,
    vm_hwm_mb,
)
from perfbench.speed import between, cpus_by_speed, run_slowdown, slowdown_on

CONNECTIONS = 2
#: Requests in flight per connection in the closed loop.
DEPTH = 8
#: Share of ``--seconds`` spent in the open loop; the rest is closed loop.
OPEN_SHARE = 0.6
#: Open-loop arrival rates, each ~15% of the workload's closed-loop peak
#: on a 2-vCPU host (~7000 and ~2400 requests/s), so latency is mostly
#: service time rather than queueing.
OPEN_RPS = {"serve-hot": 1000.0, "serve-live": 400.0}
#: Segments each phase is cut into.  Between segments the traffic pauses
#: while the generator probes the server CPU's slowdown
#: (``perfbench.speed``).  Open-loop latency and set-up are divided by
#: the mean of the run's probes: a single ~7 ms probe is too short to
#: stand for a 1.5 s open-loop segment.  Throughput is the median
#: closed-loop segment's rate, each rate scaled by the mean of the two
#: probes around its 0.375 s segment.  Over five sets of ten runs that
#: gave a spread of 0.05-0.14, against 0.11-0.23 when the median rate
#: was scaled by the run's median probe.
OPEN_SEGMENTS = 6
CLOSED_SEGMENTS = 16
#: Reference kernel of the slowdown.  Over ten runs in a quiet and in a
#: noisy stretch of the host, dividing by ``np`` kept every timing
#: metric's spread within 0.14; the ``py`` kernel, whose slow readings
#: run to 1.8-2x, over-corrected latency (spread up to 0.45).
SPEED_KIND = "np"
#: Closed-loop requests pre-encoded per second of the phase (all
#: connections); a run that uses them all is marked invalid.
CLOSED_RPS_CAP = 16000
#: Share of serve-live requests that are UPDATEs, and indices per UPDATE.
UPDATE_SHARE = 0.1
UPDATE_K = 8
#: Odd, so it deals every size to exactly one popularity rank.
SIZE_STRIDE = 23
#: Draw replies checked bitwise against an in-process replay.
SAMPLED_DRAWS = 256
#: Validity guard on the load generator.
MAX_LATE_P99_MS = 5.0
MAX_CPU_FRAC = 0.9


@dataclass(frozen=True)
class Scale:
    wheels: int
    size_range: Tuple[float, float]
    max_n: int
    cold_starts: int
    #: Multiplies the open-loop rate.
    rate_factor: float


FULL = Scale(wheels=64, size_range=(1e3, 1e5), max_n=4096, cold_starts=3, rate_factor=1.0)
SMOKE = Scale(wheels=8, size_range=(1e2, 2e3), max_n=256, cold_starts=1, rate_factor=0.25)


@dataclass
class Planned:
    """One generated request with what the replay needs to check it."""

    req: loadgen.Req
    wheel: str  # id the request names
    seed: int = 0  # draws
    indices: Optional[np.ndarray] = None  # updates
    values: Optional[np.ndarray] = None
    child: str = ""  # the version id an update must mint


class Traffic:
    """Wheels, popularity and the pre-encoded requests of both phases."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: Scale) -> None:
        from repro.service.frames import request_to_frame
        from repro.service.registry import version_id, wheel_digest

        self._encode = request_to_frame
        self._version_id = version_id
        self.rng = np.random.default_rng([seed, 0x5E5E])
        self.seed_base = seed << 32
        self.live = workload == "serve-live"
        self.scale = scale
        rate = OPEN_RPS[workload] * scale.rate_factor
        # Wheel w has popularity rank w under Zipf(1.1).  Sizes are the
        # log-uniform quantiles over the size range, dealt to ranks in a
        # fixed stride, so every seed has the same mix of hot and cold,
        # small and large wheels; the seed draws the fitness values.
        lo, hi = scale.size_range
        grid = np.geomspace(lo, hi, scale.wheels).astype(int)
        sizes = grid[(np.arange(scale.wheels) * SIZE_STRIDE) % scale.wheels]
        self.fitness = [self.rng.uniform(0.1, 1.0, int(s)) for s in sizes]
        self.roots = [wheel_digest(f, "log_bidding", "auto") for f in self.fitness]
        self.current = list(self.roots)
        weights = np.arange(1, scale.wheels + 1, dtype=float) ** -1.1
        self.popularity = weights / weights.sum()
        self.conn_of = [w % CONNECTIONS for w in range(scale.wheels)]
        self.next_rid = 1
        self.planned: Dict[int, Planned] = {}

        self.register_frames = [
            request_to_frame({"op": "register", "fitness": f, "id": self._rid()})
            for f in self.fitness
        ]
        self.open_s = seconds * OPEN_SHARE
        self.closed_s = seconds - self.open_s
        gaps = self.rng.exponential(1.0 / rate, int(rate * self.open_s * 1.5) + 16)
        dues = np.cumsum(gaps)
        dues = dues[dues < self.open_s]
        wheels = self.rng.choice(scale.wheels, size=dues.size, p=self.popularity)
        pinned = 0
        if self.live:
            # The registry pins a root against LRU eviction once it has a
            # version.  A cold root without one is evicted under version
            # churn, and its next request fails (UnknownWheelError), so
            # the open loop starts with one UPDATE per wheel.
            pinned = min(scale.wheels, wheels.size)
            wheels[:pinned] = self.rng.permutation(scale.wheels)[:pinned]
        self.schedule = list(zip(dues.tolist(), self._plan(wheels, pinned)))
        # Closed loop: one sequence per connection over its own wheels,
        # long enough for twice the peak rate measured when this was set.
        cap = int(self.closed_s * CLOSED_RPS_CAP / CONNECTIONS) + DEPTH
        self.sequences: List[List[loadgen.Req]] = []
        for c in range(CONNECTIONS):
            mine = np.array([w for w in range(scale.wheels) if self.conn_of[w] == c])
            p = self.popularity[mine] / self.popularity[mine].sum()
            self.sequences.append(self._plan(self.rng.choice(mine, size=cap, p=p)))

    def _rid(self) -> int:
        rid = self.next_rid
        self.next_rid += 1
        return rid

    def _plan(self, wheels: np.ndarray, updates_first: int = 0) -> List[loadgen.Req]:
        """Encode one request per entry of ``wheels``, in order; the first
        ``updates_first`` are UPDATEs."""
        count = wheels.size
        is_update = (self.rng.random(count) < UPDATE_SHARE) if self.live else np.zeros(count, bool)
        is_update[:updates_first] = True
        top = self.scale.max_n
        ns = np.exp(self.rng.uniform(0.0, math.log(top + 1), count)).astype(int).clip(1, top)
        out = []
        for w, update, n in zip(wheels.tolist(), is_update.tolist(), ns.tolist()):
            rid = self._rid()
            wheel = self.current[w]
            if update:
                size = self.fitness[w].size
                indices = np.sort(self.rng.choice(size, UPDATE_K, replace=False)).astype(np.int64)
                values = self.rng.uniform(0.1, 1.0, UPDATE_K)
                child = self._version_id(wheel, indices, values)
                self.current[w] = child
                frame = self._encode(
                    {"op": "update", "wheel": wheel, "indices": indices, "values": values, "id": rid}
                )
                req = loadgen.Req(rid, self.conn_of[w], frame, 0)
                self.planned[rid] = Planned(req, wheel, indices=indices, values=values, child=child)
            else:
                seed = self.seed_base + rid
                frame = self._encode({"op": "draw", "wheel": wheel, "n": n, "seed": seed, "id": rid})
                req = loadgen.Req(rid, self.conn_of[w], frame, n)
                self.planned[rid] = Planned(req, wheel, seed=seed)
            out.append(req)
        return out

    def open_segments(self) -> List[List[Tuple[float, loadgen.Req]]]:
        """The open-loop schedule cut at equal times, each re-based to 0."""
        width = self.open_s / OPEN_SEGMENTS
        out: List[list] = [[] for _ in range(OPEN_SEGMENTS)]
        for due, req in self.schedule:
            k = min(int(due // width), OPEN_SEGMENTS - 1)
            out[k].append((due - k * width, req))
        return out

    def sampled_draws(self) -> List[int]:
        draws = [req.rid for _, req in self.schedule if req.n]
        count = min(SAMPLED_DRAWS, len(draws))
        return sorted(int(r) for r in self.rng.choice(draws, size=count, replace=False))

    def update_rids(self) -> List[int]:
        return [rid for rid, p in self.planned.items() if not p.req.n]


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------


def _server_cmd(live: bool, trace_dir) -> List[str]:
    args = ["serve", "--port", "0"] + (["--workers", "2"] if live else [])
    if trace_dir is None:
        return [sys.executable, "-m", "repro"] + args
    return [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(trace_dir)] + args


def _place(cpus, server_pids=()):
    """Move this process (the generator) to the slowest of ``cpus`` right
    now and the server processes to the rest; returns the server's CPUs.

    Separate CPUs keep the scheduler from stacking the generator and the
    server on one CPU now and then, which halved closed-loop throughput
    for seconds at a time.  ``None`` on a single-CPU host.
    """
    if len(cpus) < 2:
        return None
    order = cpus_by_speed(cpus)
    server_cpus = set(order[:-1])
    os.sched_setaffinity(0, {order[-1]})
    pin(server_pids, server_cpus)
    return server_cpus


def _cold_start(traffic: Traffic, live: bool, trace_dir, server_cpus):
    """Spawn a server and register every wheel; returns the live handles,
    the set-up and ping times, and probes of the server CPUs' slowdown
    before the spawn and after the registrations."""
    from repro.service import frames

    before = slowdown_on(server_cpus)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        _server_cmd(live, trace_dir),
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=(lambda: os.sched_setaffinity(0, server_cpus)) if server_cpus else None,
        start_new_session=True,
    )
    try:
        line = LineReader(proc, proc.stderr).wait_for("repro selection service listening", 120.0)
        port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        socks = loadgen.connect(port, CONNECTIONS)
        (ftype, _, _), = loadgen.rpc(socks[0], [frames.request_to_frame({"op": "ping"})])
        ping_s = time.perf_counter() - t0
        replies = loadgen.rpc(socks[0], traffic.register_frames)
        setup_s = time.perf_counter() - t0
        probes = [before, slowdown_on(server_cpus)]
    except BaseException:
        stop_process(proc)
        raise
    ids = [
        frames.frame_to_response(ft, body, rid).get("wheel") for ft, rid, body in replies
    ]
    ok = ftype == frames.FT_OK and ids == traffic.roots
    return proc, socks, setup_s, ping_s, probes, ok


def _query(sock, op: str) -> dict:
    from repro.service import frames

    (ftype, rid, body), = loadgen.rpc(sock, [frames.request_to_frame({"op": op})])
    return frames.frame_to_response(ftype, body, rid)[op]


def _sum_shards(stats: dict, *path) -> float:
    total = 0.0
    for shard in stats["shards"]:
        node = shard
        for key in path:
            node = node[key]
        total += node
    return total


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def _phases(socks, traffic: Traffic, keep, server_cpus):
    """Both traffic phases, segment by segment, probing the server's CPUs
    before the first segment and after each one (the server is idle then:
    every segment waits for its replies)."""
    probes = [slowdown_on(server_cpus)]
    open_logs = []
    for segment in traffic.open_segments():
        open_logs.append(loadgen.open_loop(socks, segment, keep))
        probes.append(slowdown_on(server_cpus))
    closed_logs = []
    sent = [0] * CONNECTIONS
    for _ in range(CLOSED_SEGMENTS):
        rest = [seq[n:] for seq, n in zip(traffic.sequences, sent)]
        closed_logs.append(
            loadgen.closed_loop(socks, rest, DEPTH, traffic.closed_s / CLOSED_SEGMENTS, keep)
        )
        sent = [a + b for a, b in zip(sent, closed_logs[-1].sent)]
        probes.append(slowdown_on(server_cpus))
    return open_logs, closed_logs, probes


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> RunResult:
    live = workload == "serve-live"
    scale = SMOKE if smoke else FULL
    traffic = Traffic(workload, seed, seconds, scale)
    sampled = traffic.sampled_draws()
    keep = set(sampled) | set(traffic.update_rids())
    checks: Dict[str, bool] = {}
    detail: Dict[str, list] = {}

    setups, setup_probes, pings, dirs = [], [], [], []
    proc = socks = None
    own_cpus = os.sched_getaffinity(0)
    try:
        for i in range(scale.cold_starts):
            trace_dir = spans_dir(f"{workload}-{i}") if traced else None
            dirs.append(trace_dir)
            server_cpus = _place(own_cpus)
            proc, socks, setup_s, ping_s, probes, ok = _cold_start(
                traffic, live, trace_dir, server_cpus
            )
            setups.append(setup_s)
            setup_probes += probes
            pings.append(ping_s)
            checks["register_ids"] = checks.get("register_ids", True) and ok
            if i < scale.cold_starts - 1:
                for s in socks:
                    s.close()
                stop_process(proc)
        log(f"{workload}: setup {[round(s, 3) for s in setups]} s")

        pids = [proc.pid] + child_pids(proc.pid)
        server_cpus = _place(own_cpus, pids)
        cpu_before = sum(cpu_seconds(p) for p in pids)
        phase_start = time.perf_counter_ns()
        gc.disable()
        try:
            open_logs, closed_logs, probes = _phases(socks, traffic, keep, server_cpus)
        finally:
            gc.enable()
        phase_end = time.perf_counter_ns()
        wall_s = (phase_end - phase_start) / 1e9
        cpu_s = sum(cpu_seconds(p) for p in pids) - cpu_before
        rss_mb = sum(vm_hwm_mb(p) for p in pids)
        stats = _query(socks[0], "stats")
    finally:
        if socks is not None:
            for s in socks:
                s.close()
        if proc is not None:
            stop_process(proc)
        os.sched_setaffinity(0, own_cpus)

    slow = run_slowdown(setup_probes + probes, SPEED_KIND)
    segment_s = traffic.closed_s / CLOSED_SEGMENTS
    rates = [sum(t < segment_s for t in c.done_at) / segment_s for c in closed_logs]
    closed_slow = between(probes[OPEN_SEGMENTS:], SPEED_KIND)
    open_log, closed_log = loadgen.PhaseLog.merge(open_logs), loadgen.PhaseLog.merge(closed_logs)
    metrics = {
        "setup_s": median(setups) / slow,
        "peak_rss_mb": rss_mb,
        "latency_p50_ms": percentile(open_log.draw_ms, 0.5) / slow,
        "throughput_per_s": median([r * f for r, f in zip(rates, closed_slow)]),
    }
    late_p99 = percentile(open_log.late_ms, 0.99)
    gen_cpu = (open_log.cpu_s + closed_log.cpu_s) / (open_log.wall_s + closed_log.wall_s)
    n_draws = len(open_log.draw_ms)
    detail.update(
        {
            "draw_p50_ms": [percentile(open_log.draw_ms, 0.5), "ms"],
            "draw_p90_ms": [percentile(open_log.draw_ms, 0.9), "ms"],
            "draw_p99_ms": [percentile(open_log.draw_ms, 0.99), "ms"],
            "draw_p99_samples_beyond": [n_draws // 100, "count"],
            "draw_p999_ms": [percentile(open_log.draw_ms, 0.999), "ms"],
            "draw_p999_samples_beyond": [n_draws // 1000, "count"],
            "startup.ping_s": [median(pings), "s"],
            "host.slowdown": [slow, "x"],
            "raw.setup_s": [median(setups), "s"],
            "raw.throughput_per_s": [median(rates), "1/s"],
            "loadgen.late_ms_p50": [percentile(open_log.late_ms, 0.5), "ms"],
            "loadgen.late_ms_p99": [late_p99, "ms"],
            "loadgen.cpu_frac": [gen_cpu, "frac"],
            "cpu.busy_s_per_s": [cpu_s / wall_s, "s/s"],
            "server.requests": [stats["frontend"]["requests_total"], "count"],
            "server.errors": [stats["frontend"]["error_total"], "count"],
            "scheduler.batch_mean": [
                _sum_shards(stats, "batch_sizes", "requests")
                / max(1.0, _sum_shards(stats, "batch_sizes", "batches")),
                "count",
            ],
            "scheduler.flushes": [_sum_shards(stats, "batch_sizes", "batches"), "count"],
            "scheduler.shed": [_sum_shards(stats, "shed_total"), "count"],
            "scheduler.expired": [_sum_shards(stats, "expired_total"), "count"],
        }
    )
    if live:
        hits = _sum_shards(stats, "registry", "hits")
        misses = _sum_shards(stats, "registry", "misses")
        detail.update(
            {
                "update_p50_ms": [percentile(open_log.update_ms, 0.5), "ms"],
                "update_p90_ms": [percentile(open_log.update_ms, 0.9), "ms"],
                "registry.hit_ratio": [hits / max(1.0, hits + misses), "frac"],
                "registry.evictions": [_sum_shards(stats, "registry", "evictions"), "count"],
                "registry.rederives": [_sum_shards(stats, "registry", "rederives"), "count"],
                "registry.delta_recompiles": [
                    _sum_shards(stats, "registry", "delta_recompiles"), "count"
                ],
                "cluster.routing_max_share": [stats["routing_max_share"], "frac"],
                "cluster.store_hits": [_sum_shards(stats, "registry", "store_hits"), "count"],
                "cluster.compiles": [_sum_shards(stats, "registry", "compiles"), "count"],
            }
        )
    kept = {**open_log.kept, **closed_log.kept}
    checks.update(_replay(traffic, sampled, kept, closed_log.sent))
    result = RunResult(
        workload=workload,
        seed=seed,
        traced=traced,
        metrics=metrics,
        attempted=open_log.attempted + closed_log.attempted,
        failed=open_log.failed + closed_log.failed,
        checks=checks,
        detail=detail,
        series={
            "setup_s": setups,
            "probes": setup_probes + probes,
            "closed_rps": rates,
            "open_draw_ms": [o.draw_ms for o in open_logs],
        },
    )
    if late_p99 > MAX_LATE_P99_MS or gen_cpu > MAX_CPU_FRAC:
        result.valid = False
        result.notes.append(
            f"invalid: generator late p99 {late_p99:.2f} ms, cpu {gen_cpu:.2f}"
        )
    if any(n >= len(seq) for n, seq in zip(closed_log.sent, traffic.sequences)):
        result.valid = False
        result.notes.append("invalid: the closed loop ran out of pre-encoded requests")
    if traced:
        _layers(result, dirs, phase_start, phase_end, live)
    return result


def _replay(
    traffic: Traffic, sampled: List[int], kept: Dict[int, bytes], closed_sent: List[int]
) -> Dict[str, bool]:
    """Check replies against an in-process registry replaying the same history."""
    from repro.rng.streams import request_stream
    from repro.service import frames
    from repro.service.registry import WheelRegistry, base_id, digest_key

    # One registry per wheel, holding its root and newest version: each
    # update applies to the newest version and each sampled draw is
    # replayed when its version is the newest, so memory stays small.
    registries = {}
    for root, f in zip(traffic.roots, traffic.fitness):
        registries[root] = WheelRegistry(max_wheels=1)
        registries[root].register(f)
    # What the server saw: all of the open loop, then each closed-loop
    # sequence up to what was sent on that connection.
    seen = [req for _, req in traffic.schedule]
    for c, seq in enumerate(traffic.sequences):
        seen.extend(seq[: closed_sent[c]])
    sampled = set(sampled)
    updates_ok, draws_ok = True, bool(sampled)
    for req in seen:
        plan = traffic.planned[req.rid]
        body = kept.get(req.rid)
        registry = registries[base_id(plan.wheel)]
        if not req.n:
            minted, _ = registry.update(plan.wheel, plan.indices, plan.values)
            reply = frames.frame_to_response(frames.FT_OK, body, None) if body else {}
            updates_ok &= minted == plan.child == reply.get("wheel")
        elif req.rid in sampled:
            want = registry.get(plan.wheel).select_many(
                req.n, rng=request_stream(0, digest_key(plan.wheel), plan.seed)
            )
            got = frames.frame_to_response(frames.FT_DRAWS, body, None)["draws"] if body else None
            draws_ok &= got is not None and got.tobytes() == want.astype("<i8").tobytes()
    out = {"draws_bitwise": draws_ok}
    if traffic.live:
        out["update_versions"] = updates_ok
    return out


def _layers(result: RunResult, dirs, phase_start: int, phase_end: int, live: bool) -> None:
    """Per-layer numbers from the spans of the measured (last) server."""
    dumps = spans.load(dirs[-1])
    imports = [
        d["meta"]["import_s"]
        for directory in dirs
        for d in spans.load(directory)
        if "import_s" in d["meta"]
    ]

    def in_phase(name):
        return [s for s in spans.merged(dumps, name) if phase_start <= s[0] and s[1] <= phase_end]

    entry_name = "cluster.handle" if live else "server.handle"
    entries = [s for s in in_phase(entry_name) if s[2] == "draw"]
    draws = in_phase("scheduler.draw")
    kernels = in_phase("compiled.segments")
    flushes = spans.StartIndex(kernels, 2)
    shard_draw = {(s[2], s[3]): s for s in draws}

    entry_self, waits, hops = [], [], []
    for e in entries:
        d = shard_draw.get((e[3], e[4]))
        if d is None:
            continue
        flush = spans.flush_of(d, flushes)
        if flush is None:
            continue
        kernel_ns = flush[1] - flush[0]
        entry_self.append((e[1] - e[0] - kernel_ns) / 1e3)
        waits.append((d[1] - d[0] - kernel_ns) / 1e3)
        hops.append((e[1] - e[0] - (d[1] - d[0])) / 1e3)
    kernel_ns = sum(s[1] - s[0] for s in kernels)
    kernel_draws = sum(s[3] for s in kernels)
    wall_ns = phase_end - phase_start
    entry_us = spans.durations_us(entries)
    result.layers.update(
        {
            "startup.import_s": median(imports),
            "entry.us_p50": percentile(entry_us, 0.5),
            "entry.us_p99": percentile(entry_us, 0.99),
            "entry.self_us_p50": percentile(entry_self, 0.5),
            "kernel.us_p50": percentile(spans.durations_us(kernels), 0.5),
            "kernel.ns_per_draw": kernel_ns / max(1, kernel_draws),
            "kernel.busy_s_per_s": kernel_ns / wall_ns,
            "cpu.busy_s_per_s": result.detail["cpu.busy_s_per_s"][0],
        }
    )
    registers = spans.merged(dumps, "registry.register")
    updates = in_phase("registry.update")
    detail = {
        "registry.register_ms_p50": [percentile([u / 1e3 for u in spans.durations_us(registers)], 0.5), "ms"],
        "server.handle_us_p50": [percentile(entry_us, 0.5), "us"],
        "server.handle_us_p99": [percentile(entry_us, 0.99), "us"],
        "scheduler.wait_us_p50": [percentile(waits, 0.5), "us"],
        "scheduler.wait_us_p99": [percentile(waits, 0.99), "us"],
        "compiled.segments_us_p50": [percentile(spans.durations_us(kernels), 0.5), "us"],
        "compiled.ns_per_draw": [kernel_ns / max(1, kernel_draws), "ns"],
    }
    if live:
        update_us = spans.durations_us(updates)
        detail.update(
            {
                "registry.update_us_p50": [percentile(update_us, 0.5), "us"],
                "registry.update_us_p99": [percentile(update_us, 0.99), "us"],
                "cluster.hop_us_p50": [percentile(hops, 0.5), "us"],
                "cluster.hop_us_p99": [percentile(hops, 0.99), "us"],
            }
        )
    else:
        detail.update(
            {
                "frames.decode_us_p50": [percentile(spans.durations_us(in_phase("frames.decode")), 0.5), "us"],
                "frames.encode_us_p50": [percentile(spans.durations_us(in_phase("frames.encode")), 0.5), "us"],
            }
        )
    result.detail.update(detail)
    result.notes.append(
        f"spans matched for {len(entry_self)} of {len(entries)} traced draw requests"
    )

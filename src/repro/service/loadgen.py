"""Load generation: closed loop, open loop, and multi-process TCP clients.

Two generator shapes, matching how services are actually characterised:

* **closed loop** (:func:`run_closed_loop`): each of ``clients``
  concurrent clients waits for its response before sending the next
  request — throughput emerges from latency, the shape behind the
  headline batched-vs-naive gate;
* **open loop** (:func:`run_open_loop`): the whole request burst is
  submitted at once regardless of responses — offered load exceeds
  capacity and the service must shed; this drives the overload probe.

Both of those drive a scheduler in-process.  The third shape goes over
the wire: :func:`run_tcp_load` forks ``procs`` client *processes*, each
running an asyncio closed loop of real TCP connections speaking either
JSON-lines or binary frames, and merges the per-process latency
histograms exactly.  One Python client event loop saturates around the
throughput an 8-worker server can sustain, so without the fan-out the
bench would measure the client; with it, the server is the bottleneck
again.

:mod:`repro.service.bench` drives all three against the serving stack
(``python -m repro bench serve``).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import ServiceOverloadedError
from repro.service import frames as frames_mod
from repro.service.metrics import LatencyHistogram
from repro.service.protocol import raise_structured

__all__ = [
    "run_closed_loop",
    "run_open_loop",
    "run_tcp_load",
    "run_tcp_mutate_load",
]


async def run_closed_loop(
    scheduler,
    wheel_id: str,
    *,
    clients: int,
    requests_per_client: int,
    n_draws: int,
) -> float:
    """Closed-loop load: each client awaits its response before the next.

    Returns elapsed wall seconds for the whole run.  Request seeds are
    assigned by the scheduler's monotonic counter, so reruns against the
    same seed replay the same draws.
    """

    async def client(_: int) -> None:
        for _ in range(requests_per_client):
            await scheduler.draw(wheel_id, n_draws)

    start = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(clients)))
    return time.perf_counter() - start


async def run_open_loop(
    scheduler,
    wheel_id: str,
    *,
    requests: int,
    n_draws: int,
    timeout_s: float = 30.0,
) -> Dict[str, int]:
    """Open-loop burst: submit everything at once, count the outcomes.

    Every request completes one way or another inside ``timeout_s`` —
    the no-hang guarantee the overload acceptance drill asserts.
    """

    async def one() -> str:
        try:
            await scheduler.draw(wheel_id, n_draws)
            return "ok"
        except ServiceOverloadedError:
            return "shed"

    results = await asyncio.wait_for(
        asyncio.gather(*(one() for _ in range(requests))), timeout=timeout_s
    )
    return {
        "submitted": requests,
        "ok": sum(1 for r in results if r == "ok"),
        "shed": sum(1 for r in results if r == "shed"),
    }


# ----------------------------------------------------------------------
# Multi-process TCP load generation
# ----------------------------------------------------------------------


async def _tcp_client(
    kind: str,
    host: str,
    port: int,
    wheel_id: str,
    requests_per_client: int,
    n_draws: int,
    seed_base: int,
    hist: LatencyHistogram,
) -> int:
    """One closed-loop TCP connection; returns requests completed."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for i in range(requests_per_client):
            request = {
                "op": "draw",
                "wheel": wheel_id,
                "n": n_draws,
                "seed": seed_base + i,
            }
            start = time.perf_counter()
            if kind == "frames":
                writer.write(frames_mod.request_to_frame(request))
                await writer.drain()
                frame = await frames_mod.read_frame(
                    reader, max_body_bytes=64 << 20
                )
                if frame is None:
                    raise ConnectionError("server closed mid-run")
                response = frames_mod.frame_to_response(*frame)
            else:
                writer.write(
                    (json.dumps(request, separators=(",", ":")) + "\n").encode()
                )
                await writer.drain()
                line = await reader.readline()
                if not line:
                    raise ConnectionError("server closed mid-run")
                response = json.loads(line)
            raise_structured(response)
            hist.observe(time.perf_counter() - start)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    return requests_per_client


def _loadgen_proc(args: Tuple) -> Dict[str, Any]:
    """One load-generator process: drive its client share, report stats.

    Top-level (not a closure) so it survives every multiprocessing start
    method.  Latencies are recorded into a local histogram whose full
    state ships back for exact merging.
    """
    kind, host, port, wheel_id, clients, requests_per_client, n_draws, seed0 = args
    hist = LatencyHistogram()

    async def go() -> float:
        start = time.perf_counter()
        await asyncio.gather(
            *(
                _tcp_client(
                    kind,
                    host,
                    port,
                    wheel_id,
                    requests_per_client,
                    n_draws,
                    seed0 + c * requests_per_client,
                    hist,
                )
                for c in range(clients)
            )
        )
        return time.perf_counter() - start

    elapsed = asyncio.run(go())
    return {
        "clients": clients,
        "requests": clients * requests_per_client,
        "elapsed_s": elapsed,
        "latency_state": hist.state(),
    }


def _split_clients(clients: int, procs: int) -> List[int]:
    base, extra = divmod(clients, procs)
    return [base + (1 if p < extra else 0) for p in range(procs)]


async def run_tcp_load(
    host: str,
    port: int,
    wheel_id: str,
    *,
    kind: str = "frames",
    clients: int = 64,
    requests_per_client: int = 16,
    n_draws: int = 8,
    procs: int = 1,
    seed_base: int = 0,
) -> Dict[str, Any]:
    """Drive a listening server from ``procs`` client processes.

    Runs inside the server's event loop: the process pool is awaited via
    an executor thread so the server keeps serving while the clients
    hammer it.  Per-process latency histograms merge exactly
    (:meth:`LatencyHistogram.merge_state`); throughput uses the
    conservative convention ``total requests / slowest process elapsed``.
    """
    if kind not in ("frames", "jsonl"):
        raise ValueError(f"kind must be 'frames' or 'jsonl', got {kind!r}")
    if procs <= 0:
        raise ValueError(f"procs must be positive, got {procs}")
    procs = min(procs, clients)
    shares = _split_clients(clients, procs)
    args = []
    offset = seed_base
    for share in shares:
        args.append(
            (kind, host, port, wheel_id, share, requests_per_client, n_draws, offset)
        )
        offset += share * requests_per_client
    loop = asyncio.get_running_loop()
    if procs == 1:
        # Single generator: no fork needed, run it on a thread so the
        # server loop stays responsive.
        results = [await loop.run_in_executor(None, _loadgen_proc, args[0])]
    else:
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        with ctx.Pool(procs) as pool:
            results = await loop.run_in_executor(
                None, pool.map, _loadgen_proc, args
            )
    merged = LatencyHistogram()
    for result in results:
        merged.merge_state(result["latency_state"])
    total_requests = sum(r["requests"] for r in results)
    elapsed = max(r["elapsed_s"] for r in results)
    return {
        "kind": kind,
        "procs": procs,
        "clients": clients,
        "requests": total_requests,
        "draws": total_requests * n_draws,
        "elapsed_s": elapsed,
        "requests_per_s": total_requests / elapsed if elapsed > 0 else 0.0,
        "draws_per_s": total_requests * n_draws / elapsed if elapsed > 0 else 0.0,
        "latency": merged.snapshot(),
        "per_proc": [
            {"requests": r["requests"], "elapsed_s": r["elapsed_s"]} for r in results
        ],
    }


# ----------------------------------------------------------------------
# Mutating TCP workload (--mutate): interleaved draws and UPDATEs
# ----------------------------------------------------------------------


async def _send_request(kind, reader, writer, request) -> Dict[str, Any]:
    """One request/response round trip on an open connection."""
    if kind == "frames":
        writer.write(frames_mod.request_to_frame(request))
        await writer.drain()
        frame = await frames_mod.read_frame(reader, max_body_bytes=64 << 20)
        if frame is None:
            raise ConnectionError("server closed mid-run")
        return frames_mod.frame_to_response(*frame)
    writer.write((json.dumps(request, separators=(",", ":")) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed mid-run")
    return json.loads(line)


async def _mutate_tcp_client(
    kind: str,
    host: str,
    port: int,
    wheel_id: str,
    wheel_size: int,
    requests_per_client: int,
    n_draws: int,
    update_every: int,
    update_k: int,
    seed_base: int,
    draw_hists: Dict[int, LatencyHistogram],
    update_hist: LatencyHistogram,
) -> Tuple[int, int, int]:
    """One closed-loop client mixing draws with chained UPDATEs.

    Every ``update_every``-th request is an UPDATE against the client's
    current wheel id; the response's new id becomes the target of every
    subsequent draw, so each client walks its own delta chain from the
    shared root.  Draw latencies are recorded *per version depth* —
    ``draw_hists[v]`` holds the draws served by version ``v`` wheels —
    and update latencies separately; both merge exactly across
    processes.  Returns ``(draws, updates, final_version)``.
    """
    delta_rng = np.random.default_rng(1_000_003 * (seed_base + 1))
    reader, writer = await asyncio.open_connection(host, port)
    draws = updates = version = 0
    current = wheel_id
    try:
        for i in range(requests_per_client):
            if update_every > 0 and (i + 1) % update_every == 0:
                idx = delta_rng.choice(wheel_size, size=update_k, replace=False)
                vals = delta_rng.random(update_k) + 0.5
                request: Dict[str, Any] = {
                    "op": "update",
                    "wheel": current,
                    "indices": idx if kind == "frames" else idx.tolist(),
                    "values": vals if kind == "frames" else vals.tolist(),
                }
                start = time.perf_counter()
                response = await _send_request(kind, reader, writer, request)
                raise_structured(response)
                update_hist.observe(time.perf_counter() - start)
                current = response["wheel"]
                version = int(response["version"])
                updates += 1
            else:
                request = {
                    "op": "draw",
                    "wheel": current,
                    "n": n_draws,
                    "seed": seed_base + i,
                }
                start = time.perf_counter()
                response = await _send_request(kind, reader, writer, request)
                raise_structured(response)
                hist = draw_hists.get(version)
                if hist is None:
                    hist = draw_hists[version] = LatencyHistogram()
                hist.observe(time.perf_counter() - start)
                draws += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    return draws, updates, version


def _mutate_proc(args: Tuple) -> Dict[str, Any]:
    """One mutate load-generator process (top-level for spawn safety)."""
    (
        kind, host, port, wheel_id, wheel_size, clients,
        requests_per_client, n_draws, update_every, update_k, seed0,
    ) = args
    draw_hists: Dict[int, LatencyHistogram] = {}
    update_hist = LatencyHistogram()

    async def go() -> Tuple[float, List[Tuple[int, int, int]]]:
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(
                _mutate_tcp_client(
                    kind, host, port, wheel_id, wheel_size,
                    requests_per_client, n_draws, update_every, update_k,
                    seed0 + c * requests_per_client, draw_hists, update_hist,
                )
                for c in range(clients)
            )
        )
        return time.perf_counter() - start, list(outcomes)

    elapsed, outcomes = asyncio.run(go())
    return {
        "clients": clients,
        "draws": sum(o[0] for o in outcomes),
        "updates": sum(o[1] for o in outcomes),
        "max_version": max((o[2] for o in outcomes), default=0),
        "elapsed_s": elapsed,
        "draw_latency_states": {
            str(v): h.state() for v, h in draw_hists.items()
        },
        "update_latency_state": update_hist.state(),
    }


async def run_tcp_mutate_load(
    host: str,
    port: int,
    wheel_id: str,
    wheel_size: int,
    *,
    kind: str = "frames",
    clients: int = 16,
    requests_per_client: int = 32,
    n_draws: int = 8,
    update_every: int = 4,
    update_k: int = 8,
    procs: int = 1,
    seed_base: int = 0,
) -> Dict[str, Any]:
    """The ``--mutate`` workload: interleaved draw/UPDATE traffic.

    ``update_every`` sets the update:draw ratio (one UPDATE per
    ``update_every`` requests; ``0`` disables mutation entirely) and
    ``update_k`` the delta size.  As in :func:`run_tcp_load` the clients
    are fanned out over ``procs`` processes; the per-version draw
    histograms and the update histogram ship home as full bucket state
    and merge exactly (:meth:`LatencyHistogram.merge_state`), so the
    reported per-version distributions are identical to a single-process
    run's.
    """
    if kind not in ("frames", "jsonl"):
        raise ValueError(f"kind must be 'frames' or 'jsonl', got {kind!r}")
    if procs <= 0:
        raise ValueError(f"procs must be positive, got {procs}")
    if update_every < 0 or update_k <= 0:
        raise ValueError("update_every must be >= 0 and update_k positive")
    if update_k > wheel_size:
        raise ValueError(
            f"update_k {update_k} exceeds wheel_size {wheel_size}"
        )
    procs = min(procs, clients)
    shares = _split_clients(clients, procs)
    args = []
    offset = seed_base
    for share in shares:
        args.append(
            (
                kind, host, port, wheel_id, wheel_size, share,
                requests_per_client, n_draws, update_every, update_k, offset,
            )
        )
        offset += share * requests_per_client
    loop = asyncio.get_running_loop()
    if procs == 1:
        results = [await loop.run_in_executor(None, _mutate_proc, args[0])]
    else:
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        with ctx.Pool(procs) as pool:
            results = await loop.run_in_executor(
                None, pool.map, _mutate_proc, args
            )
    per_version: Dict[str, LatencyHistogram] = {}
    update_hist = LatencyHistogram()
    all_draws = LatencyHistogram()
    for result in results:
        for v, state in result["draw_latency_states"].items():
            hist = per_version.get(v)
            if hist is None:
                hist = per_version[v] = LatencyHistogram()
            hist.merge_state(state)
            all_draws.merge_state(state)
        update_hist.merge_state(result["update_latency_state"])
    draws = sum(r["draws"] for r in results)
    updates = sum(r["updates"] for r in results)
    elapsed = max(r["elapsed_s"] for r in results)
    requests = draws + updates
    return {
        "kind": kind,
        "procs": procs,
        "clients": clients,
        "update_every": update_every,
        "update_k": update_k,
        "requests": requests,
        "draws": draws,
        "updates": updates,
        "max_version": max((r["max_version"] for r in results), default=0),
        "elapsed_s": elapsed,
        "requests_per_s": requests / elapsed if elapsed > 0 else 0.0,
        "updates_per_s": updates / elapsed if elapsed > 0 else 0.0,
        "latency": all_draws.snapshot(),
        "update_latency": update_hist.snapshot(),
        "per_version_latency": {
            v: per_version[v].snapshot()
            for v in sorted(per_version, key=int)
        },
    }

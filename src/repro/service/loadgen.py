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
JSON-lines or binary frames.  The clients are spread over the wheel ids
the caller names (one wheel for a protocol leg, eight for a cluster
sweep), and ``update_every > 0`` mixes chained UPDATEs into the draws —
the ``--mutate`` traffic — with draw latencies kept per version depth.
Every histogram ships home as full bucket state and merges exactly, so
the report is identical to a single-process run's.  One Python client
event loop saturates around the throughput an 8-worker server can
sustain, so without the fan-out the bench would measure the client;
with it, the server is the bottleneck again.

:mod:`repro.service.bench` drives all three against the serving stack
(``python -m repro bench serve``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing as mp
import time
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ServiceOverloadedError
from repro.service import frames as frames_mod
from repro.service.metrics import LatencyHistogram
from repro.service.protocol import raise_structured

__all__ = [
    "run_closed_loop",
    "run_open_loop",
    "run_tcp_load",
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


@contextlib.asynccontextmanager
async def _connect(host: str, port: int):
    """One TCP connection as ``(reader, writer)``, closed on exit."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        yield reader, writer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


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


async def _client(
    spec: Dict[str, Any],
    c: int,
    draw_hists: Dict[int, LatencyHistogram],
    update_hist: LatencyHistogram,
) -> Tuple[int, int, int]:
    """Client ``c``: one closed-loop connection to wheel ``c mod #wheels``.

    With ``update_every > 0`` every ``update_every``-th request is an
    UPDATE against the client's current wheel id; the response's new id
    becomes the target of every subsequent draw, so each client walks
    its own delta chain from its root.  Draw latencies are recorded *per
    version depth* — ``draw_hists[v]`` holds the draws served by version
    ``v`` wheels — and update latencies separately.  Returns
    ``(draw_requests, updates, final_version)``.
    """
    kind, every, k = spec["kind"], spec["update_every"], spec["update_k"]
    rpc = spec["requests_per_client"]
    seed_base = spec["seed_base"] + c * rpc
    delta_rng = np.random.default_rng(1_000_003 * (seed_base + 1)) if every else None
    current = spec["wheel_ids"][c % len(spec["wheel_ids"])]
    draws = updates = version = 0
    async with _connect(spec["host"], spec["port"]) as (reader, writer):
        for i in range(rpc):
            update = every > 0 and (i + 1) % every == 0
            if update:
                idx = delta_rng.choice(spec["wheel_size"], size=k, replace=False)
                vals = delta_rng.random(k) + 0.5
                if kind == "jsonl":
                    idx, vals = idx.tolist(), vals.tolist()
                request = {"op": "update", "wheel": current, "indices": idx, "values": vals}
            else:
                request = {
                    "op": "draw",
                    "wheel": current,
                    "n": spec["n_draws"],
                    "seed": seed_base + i,
                }
            start = time.perf_counter()
            response = await _send_request(kind, reader, writer, request)
            raise_structured(response)
            elapsed = time.perf_counter() - start
            if update:
                update_hist.observe(elapsed)
                current, version = response["wheel"], int(response["version"])
                updates += 1
            else:
                hist = draw_hists.get(version)
                if hist is None:
                    hist = draw_hists[version] = LatencyHistogram()
                hist.observe(elapsed)
                draws += 1
    return draws, updates, version


def _proc(args: Tuple[Dict[str, Any], int, int]) -> Dict[str, Any]:
    """One load-generator process: clients ``first .. first+clients-1``.

    Top-level (not a closure) so it survives every multiprocessing start
    method.  Latencies are recorded into local histograms whose full
    state ships back for exact merging.
    """
    spec, first, clients = args
    draw_hists: Dict[int, LatencyHistogram] = {}
    update_hist = LatencyHistogram()

    async def go() -> Tuple[float, List[Tuple[int, int, int]]]:
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(_client(spec, first + c, draw_hists, update_hist) for c in range(clients))
        )
        return time.perf_counter() - start, list(outcomes)

    elapsed, outcomes = asyncio.run(go())
    return {
        "draw_requests": sum(o[0] for o in outcomes),
        "updates": sum(o[1] for o in outcomes),
        "max_version": max((o[2] for o in outcomes), default=0),
        "elapsed_s": elapsed,
        "draw_latency_states": {v: h.state() for v, h in draw_hists.items()},
        "update_latency_state": update_hist.state(),
    }


def _split_clients(clients: int, procs: int) -> List[int]:
    base, extra = divmod(clients, procs)
    return [base + (1 if p < extra else 0) for p in range(procs)]


async def run_tcp_load(
    host: str,
    port: int,
    wheel_ids: Union[str, Sequence[str]],
    *,
    kind: str = "frames",
    clients: int = 64,
    requests_per_client: int = 16,
    n_draws: int = 8,
    procs: int = 1,
    seed_base: int = 0,
    update_every: int = 0,
    update_k: int = 8,
    wheel_size: int = 0,
) -> Dict[str, Any]:
    """Drive a listening server from ``procs`` client processes.

    Client ``c`` targets ``wheel_ids[c % len(wheel_ids)]`` and sends
    draw ``i`` with request seed ``seed_base + c * requests_per_client +
    i``.  ``update_every`` sets the update:draw ratio (one UPDATE of
    ``update_k`` indices below ``wheel_size`` per ``update_every``
    requests); the default ``0`` is draw-only traffic.

    Runs inside the server's event loop: the process pool is awaited via
    an executor thread so the server keeps serving while the clients
    hammer it.  The overall and per-version draw histograms and the
    update histogram merge exactly (:meth:`LatencyHistogram.merge_state`)
    however the clients are split; throughput uses the conservative
    convention ``total requests / slowest process elapsed``.
    """
    if isinstance(wheel_ids, str):
        wheel_ids = [wheel_ids]
    if kind not in ("frames", "jsonl"):
        raise ValueError(f"kind must be 'frames' or 'jsonl', got {kind!r}")
    if procs <= 0:
        raise ValueError(f"procs must be positive, got {procs}")
    if not wheel_ids:
        raise ValueError("wheel_ids must name at least one wheel")
    if update_every < 0:
        raise ValueError(f"update_every must be >= 0, got {update_every}")
    if update_every > 0 and not 0 < update_k <= wheel_size:
        raise ValueError(
            f"update_k must be in 1..wheel_size={wheel_size}, got {update_k}"
        )
    spec = {
        "kind": kind,
        "host": host,
        "port": port,
        "wheel_ids": list(wheel_ids),
        "requests_per_client": requests_per_client,
        "n_draws": n_draws,
        "seed_base": seed_base,
        "update_every": update_every,
        "update_k": update_k,
        "wheel_size": wheel_size,
    }
    procs = min(procs, clients)
    args, first = [], 0
    for share in _split_clients(clients, procs):
        args.append((spec, first, share))
        first += share
    loop = asyncio.get_running_loop()
    if procs == 1:
        # Single generator: no fork needed, run it on a thread so the
        # server loop stays responsive.
        results = [await loop.run_in_executor(None, _proc, args[0])]
    else:
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        with ctx.Pool(procs) as pool:
            results = await loop.run_in_executor(None, pool.map, _proc, args)
    latency, update_latency = LatencyHistogram(), LatencyHistogram()
    per_version: Dict[int, LatencyHistogram] = {}
    for result in results:
        for v, state in result["draw_latency_states"].items():
            per_version.setdefault(v, LatencyHistogram()).merge_state(state)
            latency.merge_state(state)
        update_latency.merge_state(result["update_latency_state"])
    draw_requests = sum(r["draw_requests"] for r in results)
    updates = sum(r["updates"] for r in results)
    requests = draw_requests + updates
    elapsed = max(r["elapsed_s"] for r in results)

    def rate(count: int) -> float:
        return count / elapsed if elapsed > 0 else 0.0

    return {
        "kind": kind,
        "procs": procs,
        "clients": clients,
        "wheels": len(wheel_ids),
        "update_every": update_every,
        "update_k": update_k,
        "requests": requests,
        "draw_requests": draw_requests,
        "draws": draw_requests * n_draws,
        "updates": updates,
        "max_version": max(r["max_version"] for r in results),
        "elapsed_s": elapsed,
        "requests_per_s": rate(requests),
        "draws_per_s": rate(draw_requests * n_draws),
        "updates_per_s": rate(updates),
        "latency": latency.snapshot(),
        "update_latency": update_latency.snapshot(),
        "per_version_latency": {
            str(v): per_version[v].snapshot() for v in sorted(per_version)
        },
        "per_proc": [
            {"requests": r["draw_requests"] + r["updates"], "elapsed_s": r["elapsed_s"]}
            for r in results
        ],
    }

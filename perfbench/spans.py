"""Span recording around the program's public callables, and span analysis.

A traced process installs wrappers that time calls into each layer
(``install_serve``, ``install_colony``, ``install_race``) and keeps the
spans in memory.  They are written to ``<dir>/spans-<pid>.json`` when the
process finishes: explicitly by the main process, and through a
``multiprocessing`` finalizer in forked shard and pool processes, which
inherit the wrappers.  Timestamps are ``time.perf_counter_ns`` (the
system-wide monotonic clock on Linux), so spans from different processes
of one host share a time base.

A span is ``[start_ns, end_ns, *attrs]``, grouped by span name.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import time
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

_now = time.perf_counter_ns


class Recorder:
    """In-memory span store for one process (and, after fork, its children)."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.spans: Dict[str, list] = defaultdict(list)
        self.meta: Dict[str, object] = {}
        self._flush_on_exit = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked shard or pool worker starts with an empty store and
        # writes its own file when its multiprocessing bootstrap exits.
        self.spans = defaultdict(list)
        self.meta = {}
        self._flush_on_exit = True

    def add(self, name: str, start: int, end: int, *attrs) -> None:
        if self._flush_on_exit:
            self._flush_on_exit = False
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)
        self.spans[name].append((start, end) + attrs)

    def flush(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "meta": self.meta, "spans": self.spans}, fh)


def _wrap(owner, attr: str, rec: Recorder, name: str, attrs: Optional[Callable] = None):
    """Replace ``owner.attr`` with a timing wrapper (sync or async).

    ``attrs(args, kwargs, result)`` returns the extra span fields.
    """
    fn = getattr(owner, attr)
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = _now()
            result = await fn(*args, **kwargs)
            extra = attrs(args, kwargs, result) if attrs else ()
            rec.add(name, start, _now(), *extra)
            return result

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            extra = attrs(args, kwargs, result) if attrs else ()
            rec.add(name, start, _now(), *extra)
            return result

    setattr(owner, attr, wrapper)


def _request_attrs(args, kwargs, result):
    request = args[1]
    seed = request.get("seed")
    return (request.get("op"), request.get("wheel"), seed, result.get("status"))


def install_serve(rec: Recorder) -> None:
    """Wrap the wire, server, cluster, scheduler, registry and kernel layers."""
    from repro.engine.compiled import CompiledWheel
    from repro.service import frames
    from repro.service.cluster import ClusterService
    from repro.service.registry import WheelRegistry
    from repro.service.scheduler import MicroBatchScheduler
    from repro.service.server import SelectionService

    # Kernel spans name their wheel; the registry lookup that hands the
    # scheduler a wheel object records which id it answered for.
    wheel_ids: Dict[int, str] = {}
    get = WheelRegistry.get

    @functools.wraps(get)
    def traced_get(self, wheel_id):
        wheel = get(self, wheel_id)
        wheel_ids[id(wheel)] = wheel_id
        return wheel

    WheelRegistry.get = traced_get
    _wrap(frames, "frame_to_request", rec, "frames.decode")
    _wrap(frames, "response_to_frame", rec, "frames.encode")
    _wrap(SelectionService, "handle_request", rec, "server.handle", _request_attrs)
    _wrap(ClusterService, "handle_request", rec, "cluster.handle", _request_attrs)
    _wrap(
        MicroBatchScheduler, "draw", rec, "scheduler.draw",
        lambda a, k, r: (a[1], k.get("seed"), int(a[2])),
    )
    _wrap(WheelRegistry, "register", rec, "registry.register")
    _wrap(WheelRegistry, "update", rec, "registry.update", lambda a, k, r: (r[1]["cached"],))
    _wrap(
        CompiledWheel, "select_segments", rec, "compiled.segments",
        lambda a, k, r: (wheel_ids.get(id(a[0])), int(r.size), a[0].kernel),
    )


def install_colony(rec: Recorder) -> None:
    """Wrap the colony iteration and its lockstep construction kernel."""
    from repro.aco.tsp.colony import AntSystem
    from repro.engine import colony

    _wrap(AntSystem, "step", rec, "aco.step")
    _wrap(
        colony, "tsp_lockstep_orders", rec, "colony.construct",
        lambda a, k, r: (int(r.shape[0] * (r.shape[1] - 1)),),
    )


def install_race(rec: Recorder) -> None:
    """Wrap the process fan-out and the race kernel its workers run.

    Kernel spans also carry the worker's CPU nanoseconds: the two pool
    workers share one CPU, so their wall-clock spans overlap.
    """
    from repro.engine import parallel
    from repro.engine.compiled import CompiledWheel

    _wrap(parallel, "parallel_counts", rec, "parallel.counts", lambda a, k, r: (int(a[1]),))
    counts = CompiledWheel.counts

    @functools.wraps(counts)
    def traced_counts(self, size, rng=None):
        start, cpu = _now(), time.process_time_ns()
        result = counts(self, size, rng=rng)
        rec.add("compiled.counts", start, _now(), int(size), time.process_time_ns() - cpu)
        return result

    CompiledWheel.counts = traced_counts


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def load(directory) -> List[dict]:
    """Every per-process span file in ``directory``."""
    out = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def merged(dumps: Iterable[dict], name: str) -> List[list]:
    """All spans called ``name`` across processes, sorted by start."""
    spans = [s for d in dumps for s in d["spans"].get(name, ())]
    spans.sort(key=lambda s: s[0])
    return spans


def covered(start: int, end: int, children: Sequence[Sequence[int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``children``.

    ``children`` must be sorted by start.  A layer's self time is its
    span minus this.
    """
    total = 0
    cursor = start
    for c_start, c_end, *_ in children:
        if c_start >= end:
            break
        lo, hi = max(c_start, cursor), min(c_end, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(parents: Sequence[Sequence[int]], children: Sequence[Sequence[int]]) -> List[int]:
    """Each parent's duration minus the part its (sorted) children cover."""
    starts = [c[0] for c in children]
    out = []
    for p in parents:
        lo = bisect_left(starts, p[0])
        out.append(p[1] - p[0] - covered(p[0], p[1], children[lo:]))
    return out


class StartIndex:
    """Sorted spans grouped by one attribute, searchable by start time."""

    def __init__(self, spans: Iterable[list], key_index: int) -> None:
        groups: Dict[object, List[list]] = defaultdict(list)
        for s in spans:
            groups[s[key_index]].append(s)
        self._groups = {k: (v, [s[0] for s in v]) for k, v in groups.items()}

    def first_after(self, key, start: int) -> Optional[list]:
        """The first span under ``key`` starting at or after ``start``."""
        group = self._groups.get(key)
        if group is None:
            return None
        spans, starts = group
        i = bisect_left(starts, start)
        return spans[i] if i < len(spans) else None


def durations_us(spans: Iterable[Sequence[int]]) -> List[float]:
    return [(s[1] - s[0]) / 1e3 for s in spans]


def flush_of(draw_span: list, flushes: StartIndex) -> Optional[list]:
    """The kernel flush that served a ``scheduler.draw`` span.

    A flush takes every request pending on its wheel, so the request's
    flush is the first one on the same wheel that starts after the
    request was enqueued (its span start) and ends before it returned.
    ``flushes`` indexes ``compiled.segments`` spans by wheel id.
    """
    flush = flushes.first_after(draw_span[2], draw_span[0])
    if flush is None or flush[1] > draw_span[1]:
        return None
    return flush

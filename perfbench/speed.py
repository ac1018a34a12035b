"""Host-speed index: how much slower than nominal a CPU runs right now.

On a shared host a vCPU runs up to ~1.9x slower for seconds or minutes
at a time (other tenants), and a whole run can fall into a slow stretch.
Timing metrics are therefore divided by a slowdown factor measured on
the same CPU beside the timed work, while the program is idle there, by
a fixed reference kernel: ``py`` (interpreter work: dicts, ``struct``,
bytes, calls) or ``np`` (small-array NumPy calls).  Each workload uses
the kind that tracked it best.  In a standalone test on one vCPU over
five minutes, Python-heavy program work divided by the ``py`` factor
spread 0.05 (5th-95th percentile over median, 20-sample windows) against
0.80 raw, and NumPy-heavy work divided by the ``np`` factor 0.10 against
0.36; a bare spin loop tracked either kind only to ~0.2.

The kernels belong to the benchmark, not the program, so a change to
the program moves a normalized metric exactly as it moves the raw one.
"""

from __future__ import annotations

import gc
import os
import struct
import time
from typing import Dict, Iterable, List, Optional

_HEADER = struct.Struct("!BBBBIQ")
#: Median seconds per reference kernel on the host the benchmark was
#: built on, in its fast state: a factor of 1.0 reads as that host.
NOMINAL_S = {"py": 3.6e-4, "np": 4.1e-4}
REPS = 9


def _py_kernel() -> None:
    for i in range(200):
        d = {"op": "draw", "wheel": "w1:abc", "n": i, "seed": i * 7}
        frame = _HEADER.pack(0xA5, 1, 0x10, 0, len(d), i) + repr(d).encode()
        _HEADER.unpack_from(frame, 0)
        sorted(d.items())


class _NpKernel:
    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.rng = np.random.default_rng(0)
        self.weights = np.arange(4096, dtype=np.float64)

    def __call__(self) -> None:
        np = self.np
        for _ in range(2):
            u = self.rng.random(2048)
            np.searchsorted(np.cumsum(self.weights), u * 8e6)


def slowdown(kinds) -> Dict[str, float]:
    """This CPU's current time per reference kernel over the nominal time.

    The median of a few ~0.4 ms repetitions per kind, interleaved so all
    kinds sample the same few milliseconds, with the garbage collector
    off: a collection of the caller's heap or a single preemption does
    not count as a slow stretch.
    """
    kernels = [(kind, _py_kernel if kind == "py" else _NpKernel()) for kind in kinds]
    times: Dict[str, List[float]] = {kind: [] for kind in kinds}
    clock = time.perf_counter
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            for kind, kernel in kernels:
                start = clock()
                kernel()
                times[kind].append(clock() - start)
    finally:
        if collecting:
            gc.enable()
    return {kind: sorted(t)[REPS // 2] / NOMINAL_S[kind] for kind, t in times.items()}


def slowdown_on(cpus: Optional[Iterable[int]], kinds=("py", "np")) -> Dict[str, float]:
    """Mean slowdown of ``cpus`` (``None``: wherever this process runs).

    Moves this process onto each CPU in turn, so call it only while the
    program under test is idle there.
    """
    own = os.sched_getaffinity(0)
    cpus = sorted(cpus) if cpus else [None]
    sums = dict.fromkeys(kinds, 0.0)
    try:
        for cpu in cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            for kind, value in slowdown(kinds).items():
                sums[kind] += value
    finally:
        os.sched_setaffinity(0, own)
    return {kind: total / len(cpus) for kind, total in sums.items()}


def between(probes: List[Dict[str, float]], kind: str) -> List[float]:
    """Slowdown over each interval between consecutive probes (their mean)."""
    return [(a[kind] + b[kind]) / 2 for a, b in zip(probes, probes[1:])]


def run_slowdown(probes: List[Dict[str, float]], kind: str) -> float:
    """One slowdown for a whole run: the mean of its probes.

    Over five sets of ten serving runs, open-loop p50 latency divided by
    the mean spread 0.03-0.14, against 0.05-0.16 divided by the median.
    """
    return sum(p[kind] for p in probes) / len(probes)


def cpus_by_speed(cpus) -> List[int]:
    """``cpus``, fastest first right now, by the ``py`` reference kernel.

    The benchmark puts the program on the fastest CPU at hand.
    """
    speed = {cpu: slowdown_on([cpu], ("py",))["py"] for cpu in cpus}
    return sorted(speed, key=speed.get)

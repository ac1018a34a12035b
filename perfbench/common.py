"""Paths, statistics, process helpers and the run record shared by workloads.

Imports nothing from ``repro``: the load generator's hot loop builds on
this module.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for span dumps and logs (ignored by git).
WORK = ROOT / ".perfbench-work"
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("serve-hot", "serve-live", "colony-tsp", "paper-race")


def require_source() -> None:
    """Exit non-zero unless the program's source is in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {SRC / 'repro'} is missing; run from a full checkout"
        )


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The checkout's source comes first on the path, and temporary files
    stay inside the checkout.
    """
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1); NaN when empty."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def quartiles(values: Sequence[float]) -> List[float]:
    """``statistics.quantiles(values, n=4)`` (the exclusive method)."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [math.nan] * 3
    return statistics.quantiles(values, n=4)


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has consumed."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (scans ``/proc``)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            out.append(int(entry))
    return sorted(out)


def pin(pids: Sequence[int], cpus) -> None:
    """Move every thread of each process onto ``cpus``."""
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:  # the thread just exited
                pass


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


class LineReader:
    """Lines from a child's pipe, read without blocking past a deadline."""

    def __init__(self, proc: subprocess.Popen, stream) -> None:
        self.proc = proc
        self.fd = stream.fileno()
        self.pending = b""

    def wait_for(self, prefix: str, timeout: float) -> str:
        """Skip lines until one starts with ``prefix``; return it.

        Raises ``RuntimeError`` when the process closes the pipe or
        ``timeout`` passes first, quoting what it printed.
        """
        deadline = time.monotonic() + timeout
        seen: List[str] = []
        with selectors.DefaultSelector() as sel:
            sel.register(self.fd, selectors.EVENT_READ)
            while True:
                while b"\n" in self.pending:
                    raw, self.pending = self.pending.split(b"\n", 1)
                    line = raw.decode("utf-8", "replace")
                    if line.startswith(prefix):
                        return line.strip()
                    seen.append(line)
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    break
                data = os.read(self.fd, 1 << 16)
                if not data:
                    break
                self.pending += data
        tail = "\n".join(seen[-20:])
        raise RuntimeError(
            f"process {self.proc.args!r} did not print {prefix!r} "
            f"(exit code {self.proc.poll()}):\n{tail}"
        )


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGTERM, wait, SIGKILL if needed; always reaps the process.

    ``proc`` must lead its own session (``start_new_session=True``):
    whatever it leaves behind in its process group, such as the pool
    workers of a child stopped mid-call, is killed afterwards.
    """
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # nothing left in the group
        pass
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


# ----------------------------------------------------------------------
# the run record
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    """Everything one measured pass of one workload produced."""

    workload: str
    seed: int
    traced: bool
    #: End-to-end metrics by name (units in BENCHMARK.json).
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Correctness checks by name.
    checks: Dict[str, bool]
    #: Workload-specific metrics: name -> [value, unit].
    detail: Dict[str, list] = field(default_factory=dict)
    #: Per-layer metrics from spans (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Raw samples behind the metrics (per op, per window, per cold
    #: start), kept in ``--out`` records for studying run-to-run spread.
    series: Dict[str, list] = field(default_factory=dict)
    #: False when the load generator could not keep its schedule.
    valid: bool = True
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "correct": self.correct,
            "valid": self.valid,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "checks": self.checks,
            "detail": self.detail,
            "layers": self.layers,
            "notes": self.notes,
            "series": self.series,
        }


def log(msg: str) -> None:
    """Progress goes to stderr; stdout carries the metrics."""
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def spans_dir(tag: str) -> Path:
    """An empty directory for one traced process tree's span files."""
    path = WORK / "spans" / tag
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path

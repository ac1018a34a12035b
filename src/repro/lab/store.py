"""On-disk per-cell result cache with an append-only execution log.

Layout under one experiment's workdir::

    <workdir>/cells/<sha256>.json    one finished cell (atomic rename)
    <workdir>/cells/<sha256>.claim   liveness-checked in-flight marker
    <workdir>/log.jsonl              start/done/error events, append-only

A cell is *done* iff its result file exists — results are written to a
temp file and published by ``os.rename``, so a SIGKILL at any instant
leaves either a complete record or nothing, never a torn file.  That
single invariant is the whole resume story: ``lab run --resume`` skips
exactly the cells with a result file.

Claims let several ``lab run`` processes cooperate on one matrix: a
claim is an ``O_EXCL`` file holding the claimant's pid, and a claim
whose pid is dead is stale and silently reclaimed (a killed run never
wedges the matrix).

The execution log exists for *auditing* exactly-once behaviour — the
kill-and-resume gate (``bench lab``) and the property tests count
``start``/``done`` events per key to prove a resume re-executes only
cells that never finished.
"""

from __future__ import annotations

import errno
import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Set

__all__ = ["CellStore"]


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by other user
        return True
    return True


def _key_stem(key: str) -> str:
    """Filesystem stem for a cell key (strip the ``c1:`` prefix)."""
    return key.rsplit(":", 1)[-1]


class CellStore:
    """One experiment's cell cache rooted at ``workdir``."""

    def __init__(self, workdir: str) -> None:
        self.workdir = str(workdir)
        self.cells_dir = os.path.join(self.workdir, "cells")
        self.log_path = os.path.join(self.workdir, "log.jsonl")
        os.makedirs(self.cells_dir, exist_ok=True)

    # -- results -------------------------------------------------------
    def result_path(self, key: str) -> str:
        """Where ``key``'s finished record lives (exists iff done)."""
        return os.path.join(self.cells_dir, f"{_key_stem(key)}.json")

    def has(self, key: str) -> bool:
        """True iff the cell finished (result file published)."""
        return os.path.exists(self.result_path(key))

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key``, or None if missing/unreadable.

        A record that fails to parse is treated as missing (and removed)
        rather than poisoning the run — it can only arise from manual
        tampering, since publication is atomic.
        """
        path = self.result_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
            return None

    def store(self, key: str, record: Dict[str, Any]) -> str:
        """Atomically publish a finished cell record; returns its path."""
        path = self.result_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, path)
        return path

    def done_keys(self, keys: Iterable[str]) -> Set[str]:
        """Subset of ``keys`` whose cells are done."""
        return {k for k in keys if self.has(k)}

    # -- claims --------------------------------------------------------
    def claim_path(self, key: str) -> str:
        """Where ``key``'s in-flight claim marker lives."""
        return os.path.join(self.cells_dir, f"{_key_stem(key)}.claim")

    def claim(self, key: str) -> bool:
        """Try to claim ``key`` for this process; False if held elsewhere.

        A claim held by a dead pid is stale: it is removed and the claim
        retried, so a SIGKILLed run never blocks a resume.
        """
        path = self.claim_path(key)
        payload = f"{os.getpid()}\n".encode("ascii")
        for _ in range(2):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except OSError as exc:
                if exc.errno != errno.EEXIST:  # pragma: no cover - fs error
                    raise
                try:
                    with open(path, "r", encoding="ascii") as fh:
                        holder = int(fh.read().strip() or "0")
                except (OSError, ValueError):
                    holder = 0
                if _pid_alive(holder) and holder != os.getpid():
                    return False
                try:  # stale (or our own leftover): clear and retry once
                    os.unlink(path)
                except FileNotFoundError:  # pragma: no cover - race
                    pass
                continue
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            return True
        return False

    def release(self, key: str) -> None:
        """Drop our claim on ``key`` (idempotent)."""
        try:
            os.unlink(self.claim_path(key))
        except FileNotFoundError:
            pass

    # -- execution log -------------------------------------------------
    def log_event(self, event: str, key: str, **extra: Any) -> None:
        """Append one event line; flushed so a kill loses at most one."""
        record = {"event": event, "key": key, "pid": os.getpid(), "t": time.time()}
        record.update(extra)
        with open(self.log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

    def read_log(self) -> List[Dict[str, Any]]:
        """Every parseable event, in append order (torn tail tolerated)."""
        events: List[Dict[str, Any]] = []
        try:
            with open(self.log_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        events.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue  # torn final line from a kill
        except FileNotFoundError:
            pass
        return events

    # -- maintenance ---------------------------------------------------
    def clean(self) -> int:
        """Remove every cached cell, claim, and the log; returns count."""
        removed = 0
        try:
            names = os.listdir(self.cells_dir)
        except FileNotFoundError:  # pragma: no cover - already gone
            names = []
        for name in names:
            try:
                os.unlink(os.path.join(self.cells_dir, name))
                removed += 1
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        try:
            os.unlink(self.log_path)
        except FileNotFoundError:
            pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CellStore({self.workdir!r})"

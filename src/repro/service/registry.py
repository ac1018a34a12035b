"""Content-addressed wheel registry with LRU-bounded compiled artifacts.

A wheel's identity is the SHA-256 of its *canonicalized* fitness vector
(contiguous little-endian float64 bytes) together with the selection
method and kernel policy.  Identity therefore survives the client's
container type (list, tuple, ndarray of any compatible dtype), process
restarts, and LRU eviction: re-registering the same wheel always yields
the same id, which is why eviction is safe to expose to clients.

Registration compiles at most once per distinct wheel; subsequent
registrations are cache hits that only touch the LRU order.  Compiled
artifacts (alias tables, prefix sums, key constants) can be shipped to
worker processes via :meth:`WheelRegistry.export` /
:meth:`WheelRegistry.import_blob` without recompiling, riding on
:meth:`repro.engine.CompiledWheel.to_bytes`.

With a :class:`repro.service.shm.SharedWheelStore` attached, the
compile-once guarantee extends *across processes*: before compiling, a
registry first consults the store (adopting a blob another worker
published), then races for the store's exclusive claim — so N cluster
replicas registering the same fitness vector concurrently still compile
it exactly once, with ``store_hits`` / ``compiles`` counters proving it.

Live mutation rides on **versioned wheels**: :meth:`WheelRegistry.update`
applies an ``(indices, values)`` delta to a registered wheel and mints a
*new* id — ``<root>@<verhex>``, where ``verhex`` hashes the parent id and
the canonical delta, so the same update history derives the same id on
every replica while the embedded root keeps every version of a wheel on
its owning cluster shard.  Versions are copy-on-write: the parent entry
is never touched, so in-flight draws against the old id stay bitwise
deterministic.  The new version is built by *incremental recompilation*
(:meth:`repro.engine.CompiledWheel.apply_updates` scatters the delta into
a copy of the parent's values and patches the kernel artifacts) instead
of the full hash+validate+compile registration path.
``backend="stochastic_acceptance"`` skips compilation entirely: the
entry serves Lipowski & Lipowska rejection sampling and its only derived
state is the running max weight.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.fitness import FitnessVector
from repro.engine.compiled import (
    AcceptanceWheel,
    CompiledWheel,
    _canonical_delta,
    wheel_from_bytes,
)
from repro.errors import UnknownWheelError

__all__ = [
    "wheel_digest",
    "digest_key",
    "base_id",
    "version_id",
    "wheel_tokens",
    "WheelRegistry",
    "DEFAULT_MAX_WHEELS",
    "BACKENDS",
]

#: Serving backends a wheel can be registered under.
BACKENDS = ("compiled", "stochastic_acceptance")

#: Default LRU capacity: compiled wheels are O(n) memory each, so a few
#: hundred thousand-item wheels stay well under typical service budgets.
DEFAULT_MAX_WHEELS = 256

#: Digest prefix; versioned so a canonicalization change can never alias
#: ids minted under the old scheme.
_DIGEST_PREFIX = "w1"


def wheel_digest(fitness, method: str, policy: str) -> str:
    """Content address of ``(fitness, method, policy)``.

    The fitness vector is canonicalized to contiguous little-endian
    ``float64`` before hashing, so every representation of the same
    numbers maps to the same id.  The id embeds nothing positional — two
    services (or two runs) independently derive identical ids.
    """
    values = np.ascontiguousarray(np.asarray(fitness, dtype=np.float64))
    if values.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        values = values.astype("<f8")
    h = hashlib.sha256()
    h.update(b"repro-wheel-v1\x00")
    h.update(str(method).encode("utf-8") + b"\x00")
    h.update(str(policy).encode("utf-8") + b"\x00")
    h.update(np.int64(values.size).tobytes())
    h.update(values.tobytes())
    return f"{_DIGEST_PREFIX}:{h.hexdigest()}"


def digest_key(wheel_id: str) -> int:
    """A 64-bit integer derived from a wheel id (substream key material).

    For a versioned id (``<root>@<verhex>``) the version digest is folded
    in, so draws against different versions of the same wheel consume
    distinct substreams; root ids keep their historical key bit-for-bit.
    """
    tail = wheel_id.rsplit(":", 1)[-1]
    if "@" in tail:
        root, _, ver = tail.partition("@")
        return int(root[:16], 16) ^ int(ver[:16], 16)
    return int(tail[:16], 16)


def base_id(wheel_id: str) -> str:
    """The root (shard-routing) id of a possibly-versioned wheel id.

    Every version of a wheel shares its root's hash-ring placement, so
    updates and subsequent draws against any version coalesce on the
    owning shard.
    """
    return wheel_id.split("@", 1)[0]


def version_id(parent_id: str, indices: np.ndarray, values: np.ndarray) -> str:
    """Derive the child id for applying a canonical delta to ``parent_id``.

    The version digest chains over the full parent id (itself possibly
    versioned) and the delta's canonical bytes, so the same update
    history mints the same id on every replica — *history*-addressed,
    where root ids are content-addressed.  The root prefix is preserved
    for shard routing (see :func:`base_id`).
    """
    idx = np.ascontiguousarray(np.asarray(indices, dtype=np.int64))
    vals = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if idx.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        idx = idx.astype("<i8")
    if vals.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        vals = vals.astype("<f8")
    h = hashlib.sha256()
    h.update(b"repro-wheel-update-v1\x00")
    h.update(parent_id.encode("ascii") + b"\x00")
    h.update(np.int64(idx.size).tobytes())
    h.update(idx.tobytes())
    h.update(vals.tobytes())
    return f"{base_id(parent_id)}@{h.hexdigest()[:16]}"


def wheel_tokens(
    method: str, policy: str, backend: Optional[str] = None
) -> Tuple[str, str, str]:
    """The ``(method, policy, backend)`` a registration is addressed under.

    Pins the acceptance backend to method ``stochastic_acceptance`` and
    digest token ``"sa"`` (no kernel), so its wheels never alias compiled
    ones.  Cluster routing and :meth:`WheelRegistry.register` share it.
    """
    backend = "compiled" if backend is None else str(backend)
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend == "stochastic_acceptance":
        if method == "independent":
            raise ValueError(
                "the stochastic_acceptance backend serves the exact "
                "distribution; the independent baseline's bias cannot "
                "ride on it"
            )
        return "stochastic_acceptance", "sa", backend
    return method, str(policy), backend


class _Entry:
    """One cached wheel: the serving artifact plus accounting.

    ``parent``/``version`` place the entry in its delta chain (roots are
    version 0 with no parent).
    """

    __slots__ = ("wheel", "method", "policy", "hits", "parent", "version")

    def __init__(
        self,
        wheel: Union[CompiledWheel, AcceptanceWheel],
        method: str,
        policy: str,
        parent: Optional[str] = None,
        version: int = 0,
    ) -> None:
        self.wheel = wheel
        self.method = method
        self.policy = policy
        self.hits = 0
        self.parent = parent
        self.version = version


class WheelRegistry:
    """LRU cache of compiled wheels keyed by content address.

    Thread-safe: the service runs single-threaded under asyncio, but the
    registry is also the hand-off point for shipping wheels to worker
    processes, so every public method takes the internal lock.

    Parameters
    ----------
    max_wheels:
        LRU capacity; the least recently used compiled wheel is evicted
        beyond this.  Content addressing makes eviction recoverable —
        re-registering reproduces the identical id.
    policy:
        Default kernel policy for registrations (``"auto"`` serves the
        fastest distribution-preserving kernel; ``"faithful"`` pins the
        bit-exact simulation of the registry method).
    store:
        Optional :class:`repro.service.shm.SharedWheelStore` for
        cross-process compile dedupe; local behaviour is unchanged
        without one.
    """

    def __init__(
        self,
        max_wheels: int = DEFAULT_MAX_WHEELS,
        policy: str = "auto",
        store=None,
    ) -> None:
        if max_wheels <= 0:
            raise ValueError(f"max_wheels must be positive, got {max_wheels}")
        self.max_wheels = int(max_wheels)
        self.policy = str(policy)
        self.store = store
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        # root id -> number of lineage records under it, insertion/touch
        # ordered.  A pinned root (any lineage) is exempt from LRU
        # eviction: clients may still hold any version id ever minted
        # under it, and chain replay bottoms out at the root.
        self._pinned: "OrderedDict[str, int]" = OrderedDict()
        # version id -> (parent id, canonical delta).  Deltas are tiny
        # (k indices + values) and survive entry eviction, so an evicted
        # version is re-derived by replaying its chain from the nearest
        # live ancestor instead of erroring.  Bounded by max_lineage:
        # past it, the least-recently-updated root's whole cohort is
        # forgotten at once (never a partial chain) and that root
        # becomes evictable again.
        self._lineage: Dict[str, Tuple[str, np.ndarray, np.ndarray]] = {}
        self.max_lineage = max(1024, 64 * self.max_wheels)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0
        self.compiles = 0
        self.updates = 0
        self.update_hits = 0
        self.delta_recompiles = 0
        self.max_chain_len = 0
        self.rederives = 0

    # ------------------------------------------------------------------
    def register(
        self,
        fitness,
        method: str = "log_bidding",
        policy: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> Tuple[str, bool]:
        """Register (or re-hit) a wheel; returns ``(wheel_id, cached)``.

        Validation and compilation run outside the lock at most once per
        distinct wheel.  Raises the usual fitness contract errors
        (``FitnessError`` / ``DegenerateFitnessError``) for invalid
        vectors and ``UnknownMethodError`` for unknown methods — the
        service maps these to structured error responses.

        ``backend="stochastic_acceptance"`` serves the wheel through the
        update-free rejection sampler instead of a compiled kernel: no
        tables are built, the only derived state is the running max
        weight, and the method is pinned to ``stochastic_acceptance``
        (the bit-contract is the Lipowski & Lipowska propose/accept
        loop; every exact method's distribution is the same ``F_i``).
        """
        method, policy, backend = wheel_tokens(
            method, self.policy if policy is None else policy, backend
        )
        fitness = fitness if isinstance(fitness, FitnessVector) else FitnessVector(fitness)
        wheel_id = wheel_digest(fitness.values, method, policy)
        with self._lock:
            entry = self._entries.get(wheel_id)
            if entry is not None:
                entry.hits += 1
                self.hits += 1
                self._entries.move_to_end(wheel_id)
                return wheel_id, True
        # Compile outside the lock: O(n) table builds must not serialize
        # unrelated lookups.  A racing duplicate registration compiles
        # twice and the second insert wins; ids are identical either way.
        wheel = self._materialize(fitness, method, policy, wheel_id, backend)
        with self._lock:
            cached = wheel_id in self._entries
            if not cached:
                self.misses += 1
                self._entries[wheel_id] = _Entry(wheel, str(method), policy)
                self._evict_locked()
            else:
                self.hits += 1
            self._entries.move_to_end(wheel_id)
            return wheel_id, cached

    def _materialize(
        self,
        fitness: FitnessVector,
        method: str,
        policy: str,
        wheel_id: str,
        backend: str = "compiled",
    ) -> Union[CompiledWheel, AcceptanceWheel]:
        """Obtain the compiled wheel — from the shared store if possible.

        Store order of preference: adopt a published blob (store hit,
        zero compilation); else win the claim and compile + publish;
        else wait out the claimant and adopt its publication.  A dead
        claimant degrades to a local compile after the wait times out —
        the store only ever dedupes work, never gates correctness.
        """
        store = self.store
        claimed = False
        if store is not None:
            blob = store.get(wheel_id)
            if blob is None:
                claimed = store.claim(wheel_id)
                if not claimed:
                    blob = store.wait(wheel_id)
            if blob is not None:
                self.store_hits += 1
                return wheel_from_bytes(blob)
        try:
            if backend == "stochastic_acceptance":
                wheel = AcceptanceWheel(fitness, policy=policy)
            else:
                wheel = CompiledWheel(fitness, method, kernel=policy)
        except BaseException:
            if claimed:
                store._release_claim(wheel_id)
            raise
        self.compiles += 1
        if store is not None:
            store.publish(wheel_id, wheel.to_bytes())
        return wheel

    def update(
        self, wheel_id: str, indices, values
    ) -> Tuple[str, Dict[str, Any]]:
        """Apply a delta to a registered wheel; returns ``(new_id, info)``.

        Copy-on-write: the parent entry is untouched, so draws already
        in flight against ``wheel_id`` replay bitwise.  The child id is
        derived from the parent id and the canonical delta
        (:func:`version_id`), so re-sending the same update is an
        idempotent cache hit (``info["cached"]``) — and never counts as
        an LRU miss, because nothing is looked up by content.

        Incremental recompilation instead of re-registration: the
        parent's kernel artifacts are patched via
        :meth:`repro.engine.CompiledWheel.apply_updates` — no content
        hash and, under the ``auto`` policy, no Vose table build.  A
        delta that would zero every value raises
        ``DegenerateFitnessError``.  Acceptance
        (``stochastic_acceptance`` backend) entries skip even that and
        only advance the running max weight.

        ``info`` carries ``version`` (chain depth), ``parent``, and
        ``cached``.
        """
        entry = self._touch_or_rederive(wheel_id)
        uniq, vals_u = _canonical_delta(indices, values, entry.wheel.n)
        new_id = version_id(wheel_id, uniq, vals_u)
        with self._lock:
            cached = self._entries.get(new_id)
            if cached is not None:
                cached.hits += 1
                self.update_hits += 1
                self._entries.move_to_end(new_id)
                info = {"cached": True, "version": cached.version, "parent": wheel_id}
                return new_id, info
        # Build outside the lock, same rationale as register().
        version = entry.version + 1
        new_wheel = entry.wheel.apply_updates(uniq, vals_u)
        with self._lock:
            existing = self._entries.get(new_id)
            if existing is not None:
                existing.hits += 1
                self.update_hits += 1
                info = {"cached": True, "version": existing.version, "parent": wheel_id}
            else:
                self.updates += 1
                if not isinstance(new_wheel, AcceptanceWheel):
                    self.delta_recompiles += 1
                child = _Entry(
                    new_wheel, entry.method, entry.policy,
                    parent=wheel_id, version=version,
                )
                self._entries[new_id] = child
                if version > self.max_chain_len:
                    self.max_chain_len = version
                info = {"cached": False, "version": version, "parent": wheel_id}
            # The delta outlives the entry: re-derivation replays it if
            # the child (or an intermediate ancestor) gets evicted.  The
            # root is (re)pinned against eviction while lineage exists.
            root = base_id(new_id)
            if new_id not in self._lineage:
                self._pinned[root] = self._pinned.get(root, 0) + 1
            self._lineage[new_id] = (wheel_id, uniq, vals_u)
            self._pinned.move_to_end(root)
            self._prune_lineage_locked(keep=root)
            self._evict_locked()
            self._entries.move_to_end(new_id)
            return new_id, info

    # ------------------------------------------------------------------
    def _prune_lineage_locked(self, keep: Optional[str] = None) -> None:
        """Bound lineage memory: forget whole cohorts, oldest root first.

        Dropping a root's cohort atomically (never a partial chain)
        preserves the invariant that any lineage record reaches a live
        root; the dropped root unpins and ages out of the LRU normally.
        ``keep`` protects the root being updated right now.
        """
        while len(self._lineage) > self.max_lineage and len(self._pinned) > 1:
            oldest = next(iter(self._pinned))
            if oldest == keep:
                self._pinned.move_to_end(oldest)
                oldest = next(iter(self._pinned))
                if oldest == keep:  # pragma: no cover - single pinned root
                    break
            self._pinned.pop(oldest)
            dead = [k for k in self._lineage if base_id(k) == oldest]
            for k in dead:
                del self._lineage[k]

    def _touch_or_rederive(self, wheel_id: str) -> _Entry:
        """Look up an update/draw target, rebuilding evicted versions.

        Refreshes the entry's LRU slot without counting a content hit or
        miss (update traffic keeps the cache counters draw-oriented).
        A missing *versioned* id is re-derived by replaying its recorded
        delta chain from the nearest live ancestor — the recovery that
        makes LRU eviction safe for live version chains.
        """
        for attempt in (0, 1):
            with self._lock:
                entry = self._entries.get(wheel_id)
                if entry is not None:
                    entry.hits += 1
                    self._entries.move_to_end(wheel_id)
                    return entry
            if attempt == 0 and not self._replay_chain(wheel_id):
                break
        raise UnknownWheelError(
            f"wheel {wheel_id!r} is not registered (or was evicted); "
            f"re-register (and replay updates) to restore it"
        )

    def _replay_chain(self, wheel_id: str) -> bool:
        """Rebuild an evicted version from its lineage; True on success.

        Walks parent links until a live ancestor, then replays each
        recorded delta oldest-first through :meth:`update` (which mints
        bit-identical ids — version ids are history-addressed).  Returns
        False when the chain is broken (root evicted with no live
        descendants: its lineage died with it).
        """
        if "@" not in wheel_id:
            return False
        with self._lock:
            chain = []
            cur = wheel_id
            while cur not in self._entries:
                rec = self._lineage.get(cur)
                if rec is None:
                    return False
                chain.append((cur, rec))
                cur = rec[0]
        for expected_id, (parent, idx, vals) in reversed(chain):
            minted, _info = self.update(parent, idx, vals)
            if minted != expected_id:  # pragma: no cover - corrupt lineage
                return False
        with self._lock:
            self.rederives += 1
        return True

    def get(self, wheel_id: str) -> CompiledWheel:
        """Look up a compiled wheel, refreshing its LRU position.

        An evicted *versioned* wheel is transparently re-derived from
        its lineage (delta chain replay from the nearest live ancestor),
        so UPDATE-then-evict-then-DRAW serves rather than erroring.

        Raises
        ------
        UnknownWheelError
            If the id was never registered or has been evicted beyond
            recovery; the caller can re-register the same fitness to
            mint the same root id (and replay updates for versions).
        """
        for attempt in (0, 1):
            with self._lock:
                entry = self._entries.get(wheel_id)
                if entry is not None:
                    entry.hits += 1
                    self.hits += 1
                    self._entries.move_to_end(wheel_id)
                    return entry.wheel
            if attempt == 0 and not self._replay_chain(wheel_id):
                break
        raise UnknownWheelError(
            f"wheel {wheel_id!r} is not registered (or was evicted); "
            f"re-register the fitness vector to restore it"
        )

    def __contains__(self, wheel_id: str) -> bool:
        with self._lock:
            return wheel_id in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def export(self, wheel_id: str) -> bytes:
        """Serialize a cached wheel for shipping to a worker process."""
        return self.get(wheel_id).to_bytes()

    def import_blob(self, blob: bytes) -> str:
        """Adopt a wheel serialized by :meth:`export`; returns its id.

        The id is recomputed from the imported content, so a corrupted
        or mismatched blob can never be addressed as the original.
        """
        wheel = wheel_from_bytes(blob)
        wheel_id = wheel_digest(wheel.fitness.values, wheel.method, wheel.policy)
        with self._lock:
            if wheel_id not in self._entries:
                self._entries[wheel_id] = _Entry(wheel, wheel.method, wheel.kernel)
                self._evict_locked()
            self._entries.move_to_end(wheel_id)
        return wheel_id

    # ------------------------------------------------------------------
    def _evict_locked(self) -> None:
        """LRU eviction that never strands a live version chain.

        Roots with lineage (any version ever minted and not yet pruned)
        are *pinned*: evicting one would make every version a client may
        still hold unrecoverable — chain replay bottoms out at the root,
        and only roots are re-registerable by content.  The scan skips
        pinned roots and the MRU entry (the insert that triggered
        eviction); if that leaves no victim the cache tolerates a
        bounded overflow — at most one entry per pinned root — rather
        than break the chain-replay guarantee.  Versioned entries evict
        freely; their lineage records stay behind for re-derivation.
        """
        while len(self._entries) > self.max_wheels:
            victim = None
            mru = next(reversed(self._entries))
            for wid in self._entries:  # LRU -> MRU
                if wid == mru:
                    break
                if "@" not in wid and wid in self._pinned:
                    continue
                victim = wid
                break
            if victim is None:
                break
            self._entries.pop(victim)
            self.evictions += 1

    def stats(self) -> Dict[str, Any]:
        """JSON-able cache accounting (merged into metrics snapshots)."""
        with self._lock:
            lookups = self.hits + self.misses
            out = {
                "wheels": len(self._entries),
                "max_wheels": self.max_wheels,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "compiles": self.compiles,
                "store_hits": self.store_hits,
                "updates": self.updates,
                "update_hits": self.update_hits,
                "delta_recompiles": self.delta_recompiles,
                "max_chain_len": self.max_chain_len,
                "rederives": self.rederives,
                "pinned_roots": len(self._pinned),
                "versions": sum(
                    1 for e in self._entries.values() if e.version > 0
                ),
            }
            if self.store is not None:
                out["store"] = self.store.stats()
            return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WheelRegistry(wheels={len(self)}, max_wheels={self.max_wheels}, "
            f"policy={self.policy!r})"
        )

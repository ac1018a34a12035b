"""Content-addressed wheel registry: a recipe for every id, compiled wheels in an LRU.

A wheel's identity is the SHA-256 of its *canonicalized* fitness vector
(contiguous little-endian float64 bytes) together with the selection
method and kernel policy.  Identity therefore survives the client's
container type (list, tuple, ndarray of any compatible dtype) and
process restarts: re-registering the same wheel always yields the same
id.

One rule keeps the registry's capacity out of every response: it keeps
a *recipe* for every id it mints.  A root's recipe is its canonical
fitness values with ``(method, policy, backend)`` — the resident wheel's
own values array, so a live root costs no extra bytes.  A version's
recipe is its ``(parent, delta)``.  ``max_wheels`` bounds only the
compiled artifacts, with plain LRU eviction, and a miss on any known id
rebuilds it from its recipe: the root through the shared store or a
compile, then the recorded deltas replayed oldest first.  Content and
history addressing make the rebuilt wheel bitwise the evicted one, so no
draw depends on what the cache held.  Recipes are bounded by
``max_lineage`` (roots and versions together); past it the
least-recently-touched root is forgotten with its whole cohort, and only
then does one of its ids raise :class:`~repro.errors.UnknownWheelError`.

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
its owning cluster shard.  Versions are copy-on-write: the parent wheel
is never touched, so in-flight draws against the old id stay bitwise
deterministic.  The new version is built by *incremental recompilation*
(:meth:`repro.engine.CompiledWheel.apply_updates` scatters the delta into
a copy of the parent's values and patches the kernel artifacts) instead
of the full hash+validate+compile registration path.
``backend="stochastic_acceptance"`` skips compilation entirely: the
wheel serves Lipowski & Lipowska rejection sampling and its only derived
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


class WheelRegistry:
    """A recipe for every minted wheel id, with an LRU of compiled wheels.

    Thread-safe: the service runs single-threaded under asyncio, but
    every public method takes the internal lock, and compilation runs
    outside it.

    Parameters
    ----------
    max_wheels:
        LRU capacity of compiled wheels; the least recently used one is
        evicted beyond this.  Eviction is invisible to clients: a miss on
        a known id rebuilds the bitwise-identical wheel from its recipe.
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
        self._wheels: "OrderedDict[str, Union[CompiledWheel, AcceptanceWheel]]" = OrderedDict()
        # root id -> [values, method, policy, backend, version ids], in
        # touch order (any lookup, registration or update in the cohort).
        self._roots: "OrderedDict[str, list]" = OrderedDict()
        # version id -> (parent id, canonical indices, values, depth).
        self._lineage: Dict[str, Tuple[str, np.ndarray, np.ndarray, int]] = {}
        # Recipe bound, roots and versions together: past it the
        # least-recently-touched root's whole cohort is forgotten.
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

        ``cached`` is true iff the registry already knew the id, whether
        or not its compiled wheel is resident.  Validation and
        compilation run outside the lock.  Raises the usual fitness
        contract errors (``FitnessError`` / ``DegenerateFitnessError``)
        for invalid vectors and ``UnknownMethodError`` for unknown
        methods — the service maps these to structured error responses.

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
            if wheel_id in self._wheels:
                self.hits += 1
                self._insert_locked(wheel_id, self._wheels[wheel_id])
                return wheel_id, True
        # Compile outside the lock: O(n) table builds must not serialize
        # unrelated lookups.  A racing duplicate registration compiles
        # twice and the second insert wins; ids are identical either way.
        wheel = self._materialize(fitness, method, policy, wheel_id, backend)
        with self._lock:
            self.misses += 1
            cached = wheel_id in self._roots
            if not cached:
                self._roots[wheel_id] = [None, method, policy, backend, []]
            self._insert_locked(wheel_id, wheel)
            self._prune_locked()
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

        Copy-on-write: the parent is untouched, so draws already in
        flight against ``wheel_id`` replay bitwise.  The child id is
        derived from the parent id and the canonical delta
        (:func:`version_id`), so re-sending the same update is an
        idempotent hit (``info["cached"]``: the registry already knew
        the id) — and never counts as an LRU miss, because nothing is
        looked up by content.

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
        parent = self._lookup(wheel_id, count_hit=False)
        uniq, vals_u = _canonical_delta(indices, values, parent.n)
        new_id = version_id(wheel_id, uniq, vals_u)
        with self._lock:
            record = self._lineage.get(new_id)
            if record is not None:
                self.update_hits += 1
                self._roots.move_to_end(base_id(new_id))
                return new_id, {"cached": True, "version": record[3], "parent": wheel_id}
        # Build outside the lock, same rationale as register().
        wheel = parent.apply_updates(uniq, vals_u)
        with self._lock:
            parent_record = self._recipe_locked(wheel_id)
            if parent_record is None:  # pragma: no cover - forgotten mid-build
                raise self._unknown(wheel_id)
            record = self._lineage.get(new_id)
            cached = record is not None
            if cached:
                self.update_hits += 1
            else:
                depth = parent_record[3] + 1 if "@" in wheel_id else 1
                record = self._lineage[new_id] = (wheel_id, uniq, vals_u, depth)
                self._roots[base_id(new_id)][4].append(new_id)
                self.updates += 1
                self.max_chain_len = max(self.max_chain_len, depth)
            if not isinstance(wheel, AcceptanceWheel):
                self.delta_recompiles += 1
            self._insert_locked(new_id, wheel)
            self._prune_locked()
            return new_id, {"cached": cached, "version": record[3], "parent": wheel_id}

    def get(self, wheel_id: str) -> Union[CompiledWheel, AcceptanceWheel]:
        """The serving wheel for any minted id, refreshing its LRU position.

        An evicted wheel is rebuilt from its recipe, bitwise identical.

        Raises
        ------
        UnknownWheelError
            If the id was never minted here, or its root was forgotten
            past the recipe bound; re-registering the same fitness mints
            the same root id (and replaying updates the same versions).
        """
        return self._lookup(wheel_id, count_hit=True)

    def __contains__(self, wheel_id: str) -> bool:
        """Whether ``wheel_id``'s compiled wheel is resident."""
        with self._lock:
            return wheel_id in self._wheels

    def __len__(self) -> int:
        with self._lock:
            return len(self._wheels)

    # ------------------------------------------------------------------
    def _lookup(
        self, wheel_id: str, count_hit: bool
    ) -> Union[CompiledWheel, AcceptanceWheel]:
        """The wheel for a known id, rebuilt from its recipe on a miss.

        The rebuild walks parent links to the nearest resident ancestor
        (or the root, rebuilt through :meth:`_materialize`: a store hit
        in a cluster, a compile in one process), then replays each
        recorded delta oldest-first.  ``count_hit`` counts the lookup in
        ``hits``/``misses``; update traffic passes False so those
        counters stay draw-oriented.
        """
        with self._lock:
            wheel = self._wheels.get(wheel_id)
            if wheel is not None:
                if count_hit:
                    self.hits += 1
                self._wheels.move_to_end(wheel_id)
                self._roots.move_to_end(base_id(wheel_id))
                return wheel
            chain = []
            cur = wheel_id
            while wheel is None:
                recipe = self._recipe_locked(cur)
                if recipe is None:
                    raise self._unknown(wheel_id)
                chain.append((cur, recipe))
                if "@" not in cur:
                    break
                cur = recipe[0]
                wheel = self._wheels.get(cur)
            if count_hit:
                self.misses += 1
        for wid, recipe in reversed(chain):
            if wheel is None:
                values, method, policy, backend, _ = recipe
                wheel = self._materialize(
                    FitnessVector(values), method, policy, wid, backend
                )
            else:
                wheel = wheel.apply_updates(recipe[1], recipe[2])
            with self._lock:
                if "@" in wid and not isinstance(wheel, AcceptanceWheel):
                    self.delta_recompiles += 1
                if self._recipe_locked(wid) is not None:
                    self._insert_locked(wid, wheel)
        with self._lock:
            self.rederives += 1
        return wheel

    def _recipe_locked(self, wheel_id: str):
        if "@" in wheel_id:
            return self._lineage.get(wheel_id)
        return self._roots.get(wheel_id)

    @staticmethod
    def _unknown(wheel_id: str) -> UnknownWheelError:
        return UnknownWheelError(
            f"wheel {wheel_id!r} was never minted here, or forgotten past "
            f"the recipe bound; re-register the fitness vector (and replay "
            f"updates) to restore it"
        )

    def _insert_locked(self, wheel_id: str, wheel) -> None:
        """Make ``wheel`` the MRU compiled wheel, touch its root, evict LRU.

        A root's recipe adopts the resident wheel's values array, so a
        live root costs no bytes beyond its compiled wheel.
        """
        self._wheels[wheel_id] = wheel
        self._wheels.move_to_end(wheel_id)
        root = base_id(wheel_id)
        self._roots.move_to_end(root)
        if root == wheel_id:
            self._roots[root][0] = wheel.fitness.values
        while len(self._wheels) > self.max_wheels:
            self._wheels.popitem(last=False)
            self.evictions += 1

    def _prune_locked(self) -> None:
        """Bound recipes: forget whole cohorts, least-recently-touched first.

        Dropping a root with every version under it (never a partial
        chain) keeps every remaining version's replay rooted; the
        cohort's compiled wheels go with it.  The most recently touched
        root — the one just registered or updated — is never dropped.
        """
        while len(self._roots) + len(self._lineage) > self.max_lineage and len(self._roots) > 1:
            root, recipe = self._roots.popitem(last=False)
            self._wheels.pop(root, None)
            for vid in recipe[4]:
                del self._lineage[vid]
                self._wheels.pop(vid, None)

    def stats(self) -> Dict[str, Any]:
        """JSON-able cache accounting (merged into metrics snapshots)."""
        with self._lock:
            lookups = self.hits + self.misses
            out = {
                "wheels": len(self._wheels),
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
                "recipes": len(self._roots) + len(self._lineage),
                "versions": sum(1 for wid in self._wheels if "@" in wid),
            }
            if self.store is not None:
                out["store"] = self.store.stats()
            return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WheelRegistry(wheels={len(self)}, max_wheels={self.max_wheels}, "
            f"policy={self.policy!r})"
        )

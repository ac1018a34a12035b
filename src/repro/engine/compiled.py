"""Compiled selection kernels: validate once, stream draws forever.

The method registry in :mod:`repro.core.methods` optimises for clarity:
every ``select_many`` call re-validates nothing but *recomputes* all
per-wheel constants (``1/f``, ``log f``, cumulative sums, alias tables)
and materialises intermediate key matrices chunk by chunk.  That is the
right trade-off for single draws on a changing wheel — the paper's
regime — but the wrong one for the paper's *evidence*: Tables I and II
need ~10⁹ draws from a **static** wheel per configuration.

:class:`CompiledWheel` moves all method-specific preprocessing to
construction time and exposes two streaming entry points:

* :meth:`CompiledWheel.select_many` — draws into a caller-visible array,
* :meth:`CompiledWheel.counts` — accumulates ``np.bincount`` per chunk,
  so a 10⁹-draw histogram runs in O(n + chunk) memory.

Three concrete kernels cover every registered method:

``race``
    The paper's key race (one key per item per draw), fused and
    buffer-reusing: uniforms are generated directly into a pinned
    ``(rows, n)`` chunk buffer, transformed in place, and arg-maxed.
    Bit-compatible with the registry methods — same RNG consumption,
    same keys, same winners — at a bounded memory footprint.
``searchsorted``
    Inverse-CDF lookup over precomputed prefix sums, O(log n) per draw.
    Bit-compatible with ``binary_search`` / ``prefix_sum``.
``alias``
    Walker/Vose table built once, O(1) per draw.  Bit-compatible with
    the ``alias`` registry method.

Kernel selection policies:

``"faithful"``
    Reproduce the bound method's registry output bit-for-bit (the
    Monte-Carlo harness uses this, so compiled table replications are
    byte-identical to the uncompiled ones).
``"auto"``
    Fastest kernel *with the method's exact selection distribution*.
    The three monotone-equivalent race formulations (``log_bidding``,
    ``gumbel``, ``efraimidis_spirakis``) and every other exact method
    compile to the precomputed samplers; the ``independent`` baseline's
    *bias* is part of its contract, so it always keeps its faithful
    race.  ``auto`` never changes a method's distribution — only its
    implementation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fitness import FitnessVector
from repro.core.methods.alias import AliasTable
from repro.core.methods.base import SelectionMethod
from repro.core.methods.binary_search import BinarySearchSelection
from repro.errors import FitnessError, UnknownMethodError
from repro.rng.adapters import resolve_rng
from repro.rng.base import MASK64
from repro.rng.splitmix import GOLDEN_GAMMA, _mix64
from repro.rng.streams import _INV53, SplitMixStream, segment_uniforms, stream_uniforms
from repro.typing import FitnessLike

__all__ = [
    "CompiledWheel",
    "AcceptanceWheel",
    "compile_wheel",
    "stream_counts",
    "DEFAULT_CHUNK_BYTES",
    "KERNELS",
    "WHEEL_FORMAT",
]

#: Default per-chunk buffer budget.  Small enough to stay cache-friendly
#: (the race kernel is measurably faster with chunks that fit in L2/L3),
#: large enough to amortise per-chunk Python overhead.
DEFAULT_CHUNK_BYTES = 2 << 20

#: Concrete kernel names (policies ``auto`` / ``faithful`` resolve to one).
KERNELS = ("race", "searchsorted", "alias")

#: Methods realised as a fused key race (key transform per method).
_RACE_METHODS = ("log_bidding", "gumbel", "efraimidis_spirakis", "independent")

#: Fastest distribution-preserving kernel per method.
_AUTO_KERNEL: Dict[str, str] = {
    "log_bidding": "alias",
    "gumbel": "alias",
    "efraimidis_spirakis": "alias",
    "stochastic_acceptance": "alias",
    "linear_scan": "searchsorted",
    "fenwick": "searchsorted",
    "prefix_sum": "searchsorted",
    "binary_search": "searchsorted",
    "alias": "alias",
    "independent": "race",  # the bias is the point; never resample it
}

#: Kernel that reproduces the registry method's draws bit-for-bit.
_FAITHFUL_KERNEL: Dict[str, str] = {
    "log_bidding": "race",
    "gumbel": "race",
    "efraimidis_spirakis": "race",
    "independent": "race",
    "prefix_sum": "searchsorted",
    "binary_search": "searchsorted",
    "alias": "alias",
}

#: Positive fitness below this can overflow ``log(u)/f`` to -inf
#: (|log u| <= log 2^53 ~ 36.75, overflow at f < ~2e-307).
_CLAMP_THRESHOLD = 1e-306

#: Pickle state format tag of ``CompiledWheel.__getstate__`` (bump on
#: layout changes).
WHEEL_FORMAT = "repro/compiled-wheel/v1"

#: Spin count from which ``searchsorted`` sorts its spins first.  On a
#: 2-vCPU x86 host with fresh spins per call (NumPy 2.4), sorting, one
#: search of the sorted spins and a scatter beat the unsorted search by
#: 1.1-1.3x at 128 spins and 1.6-2x from 1024, for 10^3-10^5 items;
#: below 64 spins the sort costs more than it saves.
_SORTED_SPINS = 128

#: Uniform count below which a fused batch of fresh streams builds its
#: uniforms on Python ints (``_mix64`` per uniform) instead of NumPy.
#: On a 2-vCPU x86 host (NumPy 2.4, CPython 3.11), ``select_segments``
#: of t draws in one segment on a 2e4-item alias wheel took ~9.4 +
#: 0.5t us on the Python path against ~15.5 us through NumPy: they
#: cross at about 12.  (Over three segments NumPy costs ~26 us and the
#: crossover is about 27; one constant keeps the one-segment figure.)
_PY_UNIFORMS = 12


def _canonical_delta(
    indices, values, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalise an ``(indices, values)`` delta.

    Duplicate indices resolve last-wins (matching a sequential update
    loop and :meth:`repro.core.dynamic.FenwickSampler.update_many`).
    Validation is atomic and O(k): a bad index or value raises before
    any caller state changes.
    """
    idx = np.asarray(indices, dtype=np.int64).ravel()
    vals = np.asarray(values, dtype=np.float64).ravel()
    if idx.shape != vals.shape:
        raise ValueError(
            f"indices and values must match, got {idx.shape} vs {vals.shape}"
        )
    if idx.size == 0:
        raise ValueError("update delta is empty")
    if int(idx.min()) < 0 or int(idx.max()) >= n:
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise IndexError(f"index {int(bad)} out of range for n={n}")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
        raise FitnessError("fitness values must be finite and >= 0")
    uniq, first = np.unique(idx[::-1], return_index=True)
    return uniq, vals[::-1][first]


def _fill_uniform(rng, buf: np.ndarray) -> None:
    """Fill ``buf`` with uniforms on [0, 1) without allocating when possible."""
    if isinstance(rng, np.random.Generator):
        rng.random(out=buf)
    else:
        buf[...] = rng.random(buf.shape)


class CompiledWheel:
    """A fitness vector compiled to a streaming selection kernel.

    Parameters
    ----------
    fitness:
        The wheel (anything :class:`repro.core.fitness.FitnessVector`
        accepts); validated exactly once.
    method:
        Registry name or :class:`SelectionMethod` instance whose
        selection distribution (and, under ``faithful``, exact draws)
        this wheel reproduces.  Default: the paper's ``log_bidding``.
    kernel:
        ``"auto"`` (default), ``"faithful"``, or a concrete kernel name
        from :data:`KERNELS`.
    chunk_bytes:
        Memory budget for the per-chunk work buffer.  The race kernel
        never allocates more than ``chunk_bytes`` for its key chunk
        (``rows = chunk_bytes // (8 n)`` draws at a time); the lookup
        kernels bound their per-chunk temporaries the same way.  No
        ``(size, n)`` allocation ever happens.
    """

    def __init__(
        self,
        fitness: Union[FitnessLike, FitnessVector],
        method: Union[str, SelectionMethod, None] = None,
        *,
        kernel: str = "auto",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        self.fitness = fitness if isinstance(fitness, FitnessVector) else FitnessVector(fitness)
        if method is None:
            self.method = "log_bidding"
        elif isinstance(method, SelectionMethod):
            self.method = method.name
        else:
            self.method = str(method)
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.chunk_bytes = int(chunk_bytes)
        #: The caller's kernel request ("auto"/"faithful"/concrete); part
        #: of the wheel's content address in repro.service.registry.
        self.policy = str(kernel)
        self.kernel = self._resolve_kernel(kernel)
        self._precompute()

    # ------------------------------------------------------------------
    def _resolve_kernel(self, kernel: str) -> str:
        if kernel == "auto":
            try:
                return _AUTO_KERNEL[self.method]
            except KeyError:
                raise UnknownMethodError(
                    f"no compiled kernel for method {self.method!r}; "
                    f"compilable: {sorted(_AUTO_KERNEL)}"
                ) from None
        if kernel == "faithful":
            try:
                return _FAITHFUL_KERNEL[self.method]
            except KeyError:
                raise UnknownMethodError(
                    f"method {self.method!r} has no bit-faithful compiled kernel; "
                    f"faithful-compilable: {sorted(_FAITHFUL_KERNEL)}"
                ) from None
        if kernel not in KERNELS:
            choices = ("auto", "faithful") + KERNELS
            raise ValueError(f"unknown kernel {kernel!r}; choose from {choices}")
        if kernel == "race" and self.method not in _RACE_METHODS:
            raise ValueError(
                f"the race kernel simulates a key race; method {self.method!r} "
                f"has none (race methods: {_RACE_METHODS})"
            )
        if kernel in ("searchsorted", "alias") and self.method == "independent":
            raise ValueError(
                "the independent baseline's bias must be simulated, not resampled; "
                "only its faithful race kernel is available"
            )
        return kernel

    def _precompute(self) -> None:
        f = self.fitness.values
        self.n = self.fitness.n
        self._set_masks()
        if self.kernel == "race":
            if self.method == "gumbel":
                with np.errstate(divide="ignore"):
                    self._log_f = np.log(f)
            elif self.method == "efraimidis_spirakis":
                with np.errstate(divide="ignore", over="ignore"):
                    self._inv_f = 1.0 / f
        elif self.kernel == "searchsorted":
            self._prefix = self.fitness.prefix_sums
        elif self.kernel == "alias":
            self._table = AliasTable(f)

    def _set_masks(self) -> None:
        """Derive the zero bookkeeping from the fitness values.

        Every kernel keeps ``_has_zeros``; only the race kernel keeps the
        O(n) masks its key transforms read.  The lookup kernels test
        ``f[idx] == 0.0`` on their draws instead.
        """
        f = self.fitness.values
        zero = f == 0.0
        self._has_zeros = bool(zero.any())
        if self.kernel == "race":
            self._zero_mask = zero
            self._positive_mask = ~zero
            positive = f[self._positive_mask]
            self._clamp_low = bool(positive.size and positive.min() < _CLAMP_THRESHOLD)

    # ------------------------------------------------------------------
    @property
    def chunk_rows(self) -> int:
        """Draws processed per chunk under the memory budget."""
        if self.kernel == "race":
            return max(1, self.chunk_bytes // (8 * self.n))
        # 1-D kernels hold a handful of chunk-length temporaries.
        return max(1, self.chunk_bytes // (8 * 4))

    def select(self, rng=None) -> int:
        """Draw one index."""
        return int(self.select_many(1, rng=rng)[0])

    def select_many(self, size: int, rng=None) -> np.ndarray:
        """Draw ``size`` indices into a fresh ``(size,)`` int64 array.

        Peak *additional* memory is O(chunk): the output array is the
        only size-proportional allocation.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        out = np.empty(size, dtype=np.int64)
        self._stream(size, resolve_rng(rng), out=out, counts=None)
        return out

    def counts(self, size: int, rng=None) -> np.ndarray:
        """Histogram of ``size`` draws in O(n + chunk) memory.

        Equivalent to ``np.bincount(self.select_many(size), minlength=n)``
        (identical for the same RNG state) without materialising draws.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        counts = np.zeros(self.n, dtype=np.int64)
        self._stream(size, resolve_rng(rng), out=None, counts=counts)
        return counts

    # ------------------------------------------------------------------
    def _stream(
        self, size: int, rng, out: Optional[np.ndarray], counts: Optional[np.ndarray]
    ) -> None:
        if size == 0:
            return
        if self.kernel == "race":
            self._stream_race(size, rng, out, counts)
        elif self.kernel == "searchsorted":
            self._stream_searchsorted(size, rng, out, counts)
        else:
            self._stream_alias(size, rng, out, counts)

    def _emit(self, winners: np.ndarray, start: int, stop: int, out, counts) -> None:
        if out is not None:
            out[start:stop] = winners
        else:
            counts += np.bincount(winners, minlength=self.n)

    def _stream_race(self, size, rng, out, counts) -> None:
        rows = min(self.chunk_rows, size)
        buf = np.empty((rows, self.n))
        for start in range(0, size, rows):
            stop = min(start + rows, size)
            chunk = buf[: stop - start]
            _fill_uniform(rng, chunk)
            self._emit(self._race_chunk(chunk), start, stop, out, counts)

    def _race_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """Transform a uniform chunk into keys in place and arg-max each row.

        Row-independent by construction, so any row partitioning of the
        draw stream (solo requests, coalesced batches, chunk boundaries)
        yields identical winners — the property :meth:`select_segments`
        is built on.
        """
        getattr(self, f"_transform_{self.method}")(chunk)
        return np.argmax(chunk, axis=1)

    # -- race key transforms (uniforms -> keys, in place; each
    # bit-compatible with its registry method) --------------------------
    def _transform_log_bidding(self, b: np.ndarray) -> None:
        f = self.fitness.values
        np.subtract(1.0, b, out=b)  # uniforms on (0, 1], safe under log
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.log(b, out=b)
            np.divide(b, f, out=b)
        if self._clamp_low:
            # Subnormal-but-positive fitness overflowed to -inf; clamp to
            # the largest finite loser so it still beats true zeros.
            overflowed = np.isneginf(b) & self._positive_mask
            if overflowed.any():
                b[overflowed] = np.finfo(np.float64).min
        if self._has_zeros:
            b[:, self._zero_mask] = -np.inf

    def _transform_gumbel(self, b: np.ndarray) -> None:
        np.subtract(1.0, b, out=b)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(b, out=b)
            np.negative(b, out=b)
            np.log(b, out=b)
            np.negative(b, out=b)
            np.add(b, self._log_f, out=b)
        if self._has_zeros:
            b[:, self._zero_mask] = -np.inf

    def _transform_efraimidis_spirakis(self, b: np.ndarray) -> None:
        np.subtract(1.0, b, out=b)
        with np.errstate(divide="ignore", over="ignore"):
            np.power(b, self._inv_f, out=b)
        # Tiny positive fitness underflows u**(1/f) to 0; lift above the
        # zero-fitness losers (mirrors es_keys).
        underflowed = (b == 0.0) & self._positive_mask
        if underflowed.any():
            b[underflowed] = np.nextafter(0.0, 1.0)
        if self._has_zeros:
            b[:, self._zero_mask] = 0.0

    def _transform_independent(self, b: np.ndarray) -> None:
        np.subtract(1.0, b, out=b)
        np.multiply(self.fitness.values, b, out=b)
        if self._has_zeros:
            # Mirror independent_keys: a zero-fitness entry must never tie
            # an underflowed positive key at 0.0 and steal the arg-max.
            b[:, self._zero_mask] = -np.inf

    # -- lookup kernels -------------------------------------------------
    def _lookup_searchsorted(self, spins: np.ndarray) -> np.ndarray:
        """Scale spins in place to wheel coordinates and binary-search.

        Element-independent, so spin-stream partitioning never changes
        the draws (see :meth:`select_segments`).  From
        :data:`_SORTED_SPINS` spins on, the search runs over the sorted
        spins (consecutive keys then share most of their search path)
        and the indices are scattered back: the same integers, faster.
        """
        f = self.fitness.values
        prefix = self._prefix
        np.multiply(spins, prefix[-1], out=spins)
        if spins.size >= _SORTED_SPINS:
            order = np.argsort(spins)
            idx = np.empty(spins.size, dtype=np.int64)
            idx[order] = np.searchsorted(prefix, spins[order], side="right")
        else:
            idx = np.searchsorted(prefix, spins, side="right").astype(np.int64)
        np.minimum(idx, self.n - 1, out=idx)
        if self._has_zeros:
            # FP boundary collisions can land on zero-width intervals;
            # repair the (measure-zero) stragglers one by one.
            for bad in np.flatnonzero(f[idx] == 0.0):
                idx[bad] = BinarySearchSelection._skip_zeros(
                    f, prefix, int(idx[bad]), float(spins[bad])
                )
        return idx

    def _stream_searchsorted(self, size, rng, out, counts) -> None:
        rows = min(self.chunk_rows, size)
        buf = np.empty(rows)
        for start in range(0, size, rows):
            stop = min(start + rows, size)
            spins = buf[: stop - start]
            _fill_uniform(rng, spins)
            self._emit(self._lookup_searchsorted(spins), start, stop, out, counts)

    def _stream_alias(self, size, rng, out, counts) -> None:
        rows = min(self.chunk_rows, size)
        for start in range(0, size, rows):
            stop = min(start + rows, size)
            self._emit(self._table.draw_many(rng, stop - start), start, stop, out, counts)

    # ------------------------------------------------------------------
    # batched multi-request entry point
    # ------------------------------------------------------------------
    def select_segments(
        self, segments: Sequence[Tuple[int, object]]
    ) -> np.ndarray:
        """Draw every ``(size, rng)`` segment in one fused kernel pass.

        Returns the concatenation of the per-segment draws in segment
        order, **bitwise identical** to calling ``select_many(size,
        rng=rng)`` once per segment: each segment's uniforms come from
        its own source in the same order, and every kernel transform is
        element- (or row-) independent.  This is the coalescing
        primitive behind :mod:`repro.service` — concurrent requests with
        per-request substreams are served by one kernel invocation
        without changing any response.

        Peak additional memory is O(chunk) exactly as in
        :meth:`select_many`; segment boundaries and chunk boundaries are
        independent.
        """
        sizes = []
        for size, _rng in segments:
            size = int(size)
            if size < 0:
                raise ValueError(f"segment sizes must be non-negative, got {size}")
            sizes.append(size)
        total = int(sum(sizes))
        if total and total <= self.chunk_rows:
            fused = self._fused_segments(segments, sizes, total)
            if fused is not None:
                return fused
        out = np.empty(total, dtype=np.int64)
        if total == 0:
            return out
        if self.kernel == "race":
            rows = min(self.chunk_rows, total)
            buf = np.empty((rows, self.n))
            self._stream_segments(segments, out, buf, self._race_chunk)
        elif self.kernel == "searchsorted":
            buf = np.empty(min(self.chunk_rows, total))
            self._stream_segments(segments, out, buf, self._lookup_searchsorted)
        else:
            buf = np.empty(min(self.chunk_rows, total))
            self._stream_segments(segments, out, buf, self._table.draw_many_from)
        return out

    def _fused_segments(self, segments, sizes, total) -> Optional[np.ndarray]:
        """Single-pass fast path for batches of fresh counter streams.

        When every segment source is an unused
        :class:`repro.rng.streams.SplitMixStream`, the whole batch's
        uniforms come from one pass — no per-segment fill loop: below
        :data:`_PY_UNIFORMS` uniforms a Python-int SplitMix64 loop,
        otherwise one vectorized pass (without the multi-segment
        bookkeeping when there is one segment).  Bit-identical to the
        generic path (the counters are pure functions of position) and
        within the chunk memory budget (the caller checks ``total <=
        chunk_rows``).  Returns None to fall back to the generic
        streaming loop.
        """
        rngs = [rng for _, rng in segments]
        if not all(type(rng) is SplitMixStream and rng.count == 0 for rng in rngs):
            return None
        per_draw = self.n if self.kernel == "race" else 1
        counts = [size * per_draw for size in sizes]
        if total * per_draw < _PY_UNIFORMS:
            uniforms = np.array(
                [
                    (_mix64((rng.seed + j * GOLDEN_GAMMA) & MASK64) >> 11) * _INV53
                    for rng, count in zip(rngs, counts)
                    for j in range(1, count + 1)
                ]
            )
        elif len(rngs) == 1:
            uniforms = stream_uniforms(rngs[0].seed, 1, counts[0])
        else:
            uniforms = segment_uniforms([rng.seed for rng in rngs], counts)
        if self.kernel == "race":
            out = self._race_chunk(uniforms.reshape(total, self.n))
        elif self.kernel == "searchsorted":
            out = self._lookup_searchsorted(uniforms)
        else:
            out = self._table.draw_many_from(uniforms)
        for rng, count in zip(rngs, counts):
            rng.advance(count)
        return out

    @staticmethod
    def _stream_segments(segments, out, buf, finish) -> None:
        """Fill ``buf`` across segment boundaries; flush full chunks.

        ``finish(chunk)`` maps a filled prefix of the work buffer to
        int64 draws (keys -> argmax for the race kernel, uniforms ->
        indices for the lookup kernels).
        """
        rows = buf.shape[0]
        filled = 0
        emitted = 0
        for size, rng in segments:
            done = 0
            while done < size:
                take = min(int(size) - done, rows - filled)
                _fill_uniform(rng, buf[filled : filled + take])
                filled += take
                done += take
                if filled == rows:
                    out[emitted : emitted + filled] = finish(buf[:filled])
                    emitted += filled
                    filled = 0
        if filled:
            out[emitted : emitted + filled] = finish(buf[:filled])

    # ------------------------------------------------------------------
    # incremental recompilation (the delta path behind versioned wheels
    # in repro.service.registry)
    # ------------------------------------------------------------------
    def apply_updates(self, indices, values) -> "CompiledWheel":
        """Copy-on-write clone with ``values[indices]`` replaced.

        Instead of the full registration path (content hashing plus
        ``_precompute`` — an O(n) *Python-loop* Vose build for the alias
        kernel), the clone patches the per-method key constants at the
        touched indices and recomputes only the vectorised O(n)
        artifacts (masks, prefix sums).  A wheel on the ``alias`` kernel
        under the ``auto`` policy recompiles to ``searchsorted`` — the
        cheapest kernel to rebuild, with the method's exact
        distribution; ``faithful`` and explicitly-requested alias wheels
        keep their table (full rebuild) so the bit-contract survives
        updates.

        The result serves draws bitwise identically to a freshly
        compiled wheel on the same values with the same resolved kernel.

        Parameters
        ----------
        indices, values:
            The delta; duplicates resolve last-wins, validation is
            atomic (bounds, finite, non-negative).  A result with every
            value zero raises ``DegenerateFitnessError``.
        """
        uniq, vals_u = _canonical_delta(indices, values, self.n)
        f = np.array(self.fitness.values)  # writable copy
        f[uniq] = vals_u
        new = CompiledWheel.__new__(CompiledWheel)
        new.fitness = FitnessVector(f)  # re-validates; raises on all-zero
        new.method = self.method
        new.policy = self.policy
        new.chunk_bytes = self.chunk_bytes
        new.n = self.n
        if self.kernel == "alias" and self.policy == "auto":
            new.kernel = "searchsorted"
        else:
            new.kernel = self.kernel
        new._set_masks()
        if new.kernel == "race":
            # Patch the key constants at the touched indices only; the
            # elementwise transforms make the patch bitwise identical
            # to a full recompute.
            if self.method == "gumbel":
                log_f = self._log_f.copy()
                with np.errstate(divide="ignore"):
                    log_f[uniq] = np.log(vals_u)
                new._log_f = log_f
            elif self.method == "efraimidis_spirakis":
                inv_f = self._inv_f.copy()
                with np.errstate(divide="ignore", over="ignore"):
                    inv_f[uniq] = 1.0 / vals_u
                new._inv_f = inv_f
        elif new.kernel == "searchsorted":
            new._prefix = new.fitness.prefix_sums
        else:
            new._table = AliasTable(new.fitness.values)
        return new

    # ------------------------------------------------------------------
    # pickling (ships compiled artifacts to worker processes without
    # re-running _precompute; see repro.select.rs.run_rs)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle support: fitness + precomputed tables, no lazy caches."""
        state: Dict[str, object] = {
            "format": WHEEL_FORMAT,
            "values": np.asarray(self.fitness.values),
            "method": self.method,
            "kernel": self.kernel,
            "policy": self.policy,
            "chunk_bytes": self.chunk_bytes,
        }
        if self.kernel == "race":
            if self.method == "gumbel":
                state["log_f"] = self._log_f
            elif self.method == "efraimidis_spirakis":
                state["inv_f"] = self._inv_f
        elif self.kernel == "searchsorted":
            state["prefix"] = np.asarray(self._prefix)
        else:
            state["prob"] = self._table._prob
            state["alias"] = self._table._alias
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore without recomputing any table (``_precompute`` is not run).

        Only the zero bookkeeping (:meth:`_set_masks`) is rederived from
        the fitness values; the expensive artifacts — the Vose alias
        table, prefix sums, per-method key constants — come straight
        from ``state``.
        """
        if state.get("format") != WHEEL_FORMAT:
            raise ValueError(
                f"unsupported compiled-wheel state {state.get('format')!r}; "
                f"expected {WHEEL_FORMAT!r}"
            )
        self.fitness = FitnessVector(np.asarray(state["values"], dtype=np.float64))
        self.method = str(state["method"])
        self.kernel = str(state["kernel"])
        self.policy = str(state.get("policy", state["kernel"]))
        self.chunk_bytes = int(state["chunk_bytes"])  # type: ignore[arg-type]
        self.n = self.fitness.n
        self._set_masks()
        if self.kernel == "race":
            if "log_f" in state:
                self._log_f = np.asarray(state["log_f"], dtype=np.float64)
            if "inv_f" in state:
                self._inv_f = np.asarray(state["inv_f"], dtype=np.float64)
        elif self.kernel == "searchsorted":
            self._prefix = np.asarray(state["prefix"], dtype=np.float64)
        else:
            table = AliasTable.__new__(AliasTable)
            table.n = self.n
            table._prob = np.asarray(state["prob"], dtype=np.float64)
            table._alias = np.asarray(state["alias"], dtype=np.int64)
            self._table = table

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledWheel(n={self.n}, method={self.method!r}, "
            f"kernel={self.kernel!r}, chunk_rows={self.chunk_rows})"
        )


class AcceptanceWheel:
    """Update-free serving backend: stochastic acceptance over raw values.

    Lipowski & Lipowska's rejection sampler needs **no precomputation**
    — the only derived state is the running maximum weight — which makes
    it the natural backend for wheels that churn faster than they are
    drawn from (``backend="stochastic_acceptance"`` in the serving
    registry).  :meth:`apply_updates` is O(k) plus the copy-on-write
    value copy; the only O(n) scan happens when an update lowers the
    current maximum itself.

    Draws are bitwise identical to the registry method
    :class:`repro.core.methods.stochastic_acceptance.StochasticAcceptanceSelection`
    on the same uniform stream (same propose/accept loop, same batch
    size), so direct replay against the uncompiled method is the
    determinism oracle.
    """

    #: Mirrors ``StochasticAcceptanceSelection._BATCH`` — part of the
    #: bit-contract with the registry method.
    _BATCH = 4096

    method = "stochastic_acceptance"
    kernel = "acceptance"

    def __init__(
        self,
        fitness: Union[FitnessLike, FitnessVector],
        *,
        policy: str = "auto",
        fmax: Optional[float] = None,
    ) -> None:
        self.fitness = (
            fitness if isinstance(fitness, FitnessVector) else FitnessVector(fitness)
        )
        self.n = self.fitness.n
        self.policy = str(policy)
        # FitnessVector rejects the all-zero wheel, so fmax > 0 here.
        self._fmax = float(self.fitness.values.max()) if fmax is None else float(fmax)

    @property
    def fmax(self) -> float:
        """The running maximum weight — the backend's entire derived state."""
        return self._fmax

    def select(self, rng=None) -> int:
        """Draw one index."""
        return int(self.select_many(1, rng=rng)[0])

    def select_many(self, size: int, rng=None) -> np.ndarray:
        """``size`` draws via the batched propose/accept loop.

        Identical uniform consumption and outputs as
        ``StochasticAcceptanceSelection.select_many`` with a fresh
        ``max(f)`` — except the max comes from the running value, so no
        O(n) pass happens per call.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        f = self.fitness.values
        n = self.n
        fmax = self._fmax
        rng = resolve_rng(rng)
        out = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            m = max(self._BATCH, size - filled)
            idx = np.minimum(
                (np.asarray(rng.random(m)) * n).astype(np.int64), n - 1
            )
            accept = np.asarray(rng.random(m)) * fmax < f[idx]
            won = idx[accept]
            take = min(len(won), size - filled)
            out[filled : filled + take] = won[:take]
            filled += take
        return out

    def select_segments(
        self, segments: Sequence[Tuple[int, object]]
    ) -> np.ndarray:
        """Per-segment draws, concatenated in segment order.

        Rejection sampling consumes a data-dependent number of uniforms,
        so there is no fused multi-segment pass — but each segment's
        stream is independent, so coalescing still never changes a
        response.
        """
        outs = [self.select_many(int(size), rng=rng) for size, rng in segments]
        if not outs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(outs)

    def apply_updates(self, indices, values) -> "AcceptanceWheel":
        """Copy-on-write clone with ``values[indices]`` replaced.

        Tracks the running max: O(k) when no patched position lowers the
        current maximum, one vectorised O(n) re-scan when it does.  The
        resulting ``fmax`` is exactly ``float(new.values.max())``, so
        draws stay bit-identical to a fresh backend on the same values.
        """
        uniq, vals_u = _canonical_delta(indices, values, self.n)
        old = self.fitness.values
        f = np.array(old)
        f[uniq] = vals_u
        lowered = bool(np.any((old[uniq] == self._fmax) & (vals_u < self._fmax)))
        if lowered:
            fmax = None  # the maximum may have moved; re-scan in __init__
        else:
            fmax = max(self._fmax, float(vals_u.max()))
        return AcceptanceWheel(f, policy=self.policy, fmax=fmax)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AcceptanceWheel(n={self.n}, fmax={self._fmax:g})"


def compile_wheel(
    wheel,
    *,
    kernel: str = "auto",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> CompiledWheel:
    """Compile a :class:`repro.core.RouletteWheel` (or raw fitness).

    Preserves the wheel's bound method; raw arrays compile the default
    ``log_bidding``.
    """
    from repro.core.selector import RouletteWheel

    if isinstance(wheel, RouletteWheel):
        return CompiledWheel(
            wheel.fitness, wheel.method, kernel=kernel, chunk_bytes=chunk_bytes
        )
    return CompiledWheel(wheel, kernel=kernel, chunk_bytes=chunk_bytes)


def stream_counts(
    wheel,
    size: int,
    *,
    rng=None,
    kernel: str = "faithful",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """Constant-memory selection histogram — the Table I/II driver.

    Accumulates ``np.bincount`` chunk by chunk, so 10⁹-draw replications
    run in O(n + chunk) memory regardless of ``size``.

    Parameters
    ----------
    wheel:
        A :class:`repro.core.RouletteWheel` (its method and RNG are
        honoured), a :class:`CompiledWheel` (used as-is), or a raw
        fitness vector (compiled with the default method).
    size:
        Number of draws.
    rng:
        Override the uniform source (defaults to the wheel's RNG, or a
        fresh NumPy generator for raw fitness).
    kernel:
        Kernel policy; ``"faithful"`` (default) keeps the replication an
        honest simulation of the bound method, ``"auto"`` switches to
        the fastest distribution-preserving sampler.
    chunk_bytes:
        Memory budget per chunk (ignored for an existing CompiledWheel).
    """
    from repro.core.selector import RouletteWheel

    if isinstance(wheel, CompiledWheel):
        return wheel.counts(size, rng=rng)
    if isinstance(wheel, RouletteWheel):
        compiled = compile_wheel(wheel, kernel=kernel, chunk_bytes=chunk_bytes)
        return compiled.counts(size, rng=wheel.rng if rng is None else rng)
    compiled = CompiledWheel(wheel, kernel=kernel, chunk_bytes=chunk_bytes)
    return compiled.counts(size, rng=rng)

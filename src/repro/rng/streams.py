"""Independent per-processor random streams.

The paper's processors each call ``rand()`` privately; in a simulation the
corresponding requirement is one statistically independent stream per
processor.  :func:`spawn_streams` provides that for every registered engine:

* counter-based engines (:class:`Philox4x32`, :class:`PCG32`) get distinct
  stream/key parameters — guaranteed disjoint by construction;
* :class:`Xoshiro256StarStar` children are produced by 2**128-step jumps —
  guaranteed non-overlapping;
* other engines (incl. MT19937) get SplitMix64-derived seeds, the standard
  practical construction (collision probability ~ m² / 2**64 for m streams).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.errors import RNGError
from repro.rng.base import MASK64, BitGenerator
from repro.rng.pcg import PCG32
from repro.rng.philox import Philox4x32
from repro.rng.splitmix import GOLDEN_GAMMA, SplitMix64, _mix64
from repro.rng.xoshiro import Xoshiro256StarStar

__all__ = [
    "stream_seeds",
    "spawn_streams",
    "machine_substreams",
    "derive_seed",
    "derive_seeds",
    "request_stream",
    "segment_uniforms",
    "stream_uniforms",
    "SplitMixStream",
]

_U_GAMMA = np.uint64(GOLDEN_GAMMA)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def _vmix64(z: np.ndarray) -> np.ndarray:
    """Stafford variant-13 finaliser on a ``uint64`` array, in place.

    The vectorized twin of :func:`repro.rng.splitmix._mix64` — asserted
    bit-identical by the unit tests.
    """
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
    return z


def stream_seeds(root_seed: int, count: int) -> List[int]:
    """Derive ``count`` 64-bit child seeds from ``root_seed`` via SplitMix64."""
    if count < 0:
        raise RNGError(f"count must be non-negative, got {count}")
    sm = SplitMix64(root_seed)
    return [sm.next_uint64() for _ in range(count)]


def machine_substreams(seed: int) -> Tuple[int, SplitMix64]:
    """Split a machine's master seed into its two canonical sub-sources.

    Every simulated machine (PRAM, SIMT, and the vectorized race lab)
    derives from one master seed a *worker seed* — expanded further into
    one private Philox stream per processor/thread — and an *arbitration
    generator* that resolves write conflicts.  Returns
    ``(worker_seed, arbiter)`` where ``arbiter`` is a ready-to-use
    :class:`SplitMix64`.  The two children come from distinct SplitMix64
    outputs, so the sources never correlate, and the derivation is shared
    so a re-implementation of a machine (e.g. the batched race kernel)
    can reproduce another's arbitration stream bit-for-bit.
    """
    worker_seed, arbiter_seed = stream_seeds(seed, 2)
    return worker_seed, SplitMix64(arbiter_seed)


def derive_seed(root_seed: int, *keys: int) -> int:
    """Deterministically fold ``keys`` into a 64-bit child seed.

    Each key advances a fresh SplitMix64 chain seeded by the running
    digest XOR the key's Weyl increment, so ``derive_seed(s, a, b)`` and
    ``derive_seed(s, b, a)`` differ and no key ordering collides with a
    longer prefix.  Used by the selection service to key one independent
    substream per (server seed, wheel, request) without coordination.
    """
    x = int(root_seed) & MASK64
    for key in keys:
        # One SplitMix64 step from state x ^ key*gamma, on Python ints.
        x = _mix64(((x ^ (int(key) * GOLDEN_GAMMA & MASK64)) + GOLDEN_GAMMA) & MASK64)
    return x


def derive_seeds(root_seed: int, keys: Sequence[int], *prefix: int) -> np.ndarray:
    """Vectorised :func:`derive_seed` over the *last* key.

    ``derive_seeds(s, ks, a, b)[i] == derive_seed(s, a, b, ks[i])`` for
    every ``i``, computed with a handful of ``uint64`` array ops — the
    batched-flush path of the selection service derives one substream
    seed per coalesced request this way.
    """
    x = np.uint64(derive_seed(root_seed, *prefix))
    with np.errstate(over="ignore"):
        z = np.asarray(keys, dtype=np.uint64) * _U_GAMMA
        z ^= x
        z += _U_GAMMA
        return _vmix64(z)


def segment_uniforms(seeds, counts) -> np.ndarray:
    """The first ``counts[i]`` uniforms of fresh streams ``seeds[i]``, flat.

    Bit-identical to concatenating ``SplitMixStream(seeds[i]).random(
    counts[i])`` — the per-stream counter is a pure function of position,
    so an entire coalesced batch's uniforms fall out of one vectorized
    pass regardless of how requests were partitioned.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    if seeds.shape != counts.shape or seeds.ndim != 1:
        raise RNGError("seeds and counts must be 1-D arrays of equal length")
    if counts.size and int(counts.min()) < 0:
        raise RNGError("counts must be non-negative")
    total = int(counts.sum())
    ends = np.cumsum(counts)
    with np.errstate(over="ignore"):
        # Draw index within each segment, 1-based: j = global - start + 1.
        j = np.arange(1, total + 1, dtype=np.uint64)
        j -= np.repeat((ends - counts).astype(np.uint64), counts)
        j *= _U_GAMMA
        j += np.repeat(seeds, counts)
        z = _vmix64(j)
    z >>= _U11
    return z * _INV53


def stream_uniforms(seed: int, first: int, count: int) -> np.ndarray:
    """Uniforms ``first .. first + count - 1`` (1-based) of stream ``seed``.

    ``SplitMixStream(seed).random`` in one call, without the stream: the
    single-segment case of :func:`segment_uniforms`.
    """
    z = np.arange(first, first + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= _U_GAMMA
        z += np.uint64(seed)
        z = _vmix64(z)
    z >>= _U11
    return z * _INV53


class SplitMixStream:
    """Counter-based vectorised uniform source over the SplitMix64 sequence.

    Draw ``j`` (0-based) is exactly ``SplitMix64(seed).random()``'s
    ``j``-th output — ``mix64(seed + (j + 1) * GOLDEN_GAMMA) >> 11``
    scaled to ``[0, 1)`` — but whole blocks are produced with a handful
    of NumPy ``uint64`` ops instead of a Python loop.  Because the state
    is a pure counter, any partitioning of a draw budget into ``random``
    calls yields the same stream: the foundation of the service's
    "bit-identical whether served solo or coalesced" contract.  Verified
    bit-for-bit against the scalar :class:`repro.rng.SplitMix64` engine
    by the unit tests.
    """

    __slots__ = ("seed", "_count")

    _INV53 = _INV53

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)) or int(seed) < 0:
            raise RNGError(f"seed must be a non-negative int, got {seed!r}")
        self.seed = int(seed) & MASK64
        self._count = 0

    def random(self, size: Optional[Union[int, Tuple[int, ...]]] = None):
        """Uniform float64 variates on ``[0, 1)``; scalar if ``size`` is None."""
        if size is None:
            return float(self.random(1)[0])
        if isinstance(size, tuple):
            shape: Optional[Tuple[int, ...]] = size
            total = 1
            for dim in size:
                total *= int(dim)
        else:
            shape = None
            total = int(size)
        if total < 0:
            raise RNGError(f"size must be non-negative, got {size}")
        out = stream_uniforms(self.seed, self._count + 1, total)
        self._count += total
        return out.reshape(shape) if shape is not None else out

    def advance(self, count: int) -> None:
        """Skip ``count`` draws (used after an externally vectorized fill)."""
        self._count += int(count)

    @property
    def count(self) -> int:
        """Uniforms drawn so far (the counter state)."""
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SplitMixStream(seed={self.seed:#x}, count={self._count})"


def request_stream(root_seed: int, *keys: int) -> SplitMixStream:
    """The service's per-request substream: seeded, independent, replayable.

    ``request_stream(s, *k)`` is a pure function of its arguments — two
    calls give identical streams — so a draw request can be replayed (or
    verified) anywhere without transporting generator state.
    """
    return SplitMixStream(derive_seed(root_seed, *keys))


def spawn_streams(
    engine: Type[BitGenerator], root_seed: int, count: int
) -> List[BitGenerator]:
    """Create ``count`` independent generators of type ``engine``.

    The construction is engine-aware (keys for Philox, sequence selectors
    for PCG32, jumps for xoshiro, derived seeds otherwise) so that every
    engine gets its strongest available independence guarantee.
    """
    if count < 0:
        raise RNGError(f"count must be non-negative, got {count}")
    if engine is Philox4x32:
        return [Philox4x32(root_seed, stream=i) for i in range(count)]
    if engine is PCG32:
        # stream selector must differ per child; stream=0 maps to the
        # default sequence so offset by 1.
        return [PCG32(root_seed, stream=i + 1) for i in range(count)]
    if engine is Xoshiro256StarStar:
        base = Xoshiro256StarStar(root_seed)
        return [base.jumped(i + 1) for i in range(count)]
    seeds = stream_seeds(root_seed, count)
    return [engine(s) for s in seeds]


def spawn_uniforms(engine: Type[BitGenerator], root_seed: int, count: int) -> List:
    """Like :func:`spawn_streams` but wrapped as ``UniformSource`` adapters."""
    from repro.rng.adapters import UniformAdapter

    return [UniformAdapter(g) for g in spawn_streams(engine, root_seed, count)]

"""The Python-int paths of a small flush give the NumPy paths' bits.

Below :data:`repro.service.scheduler._PY_SEEDS` requests a flush derives
its substream seeds one by one on Python ints, and below
:data:`repro.engine.compiled._PY_UNIFORMS` uniforms a fused batch builds
them with the scalar SplitMix64 mix.  Both sides of each crossover must
give the same bits: the seeds and uniforms themselves, and the draws of
the alias, searchsorted and race kernels, for one segment and several,
with seeds next to 2**64 so that the Weyl counter wraps.
"""

import asyncio

import numpy as np
import pytest

from repro.core.methods.alias import AliasTable
from repro.engine.compiled import _PY_UNIFORMS, CompiledWheel
from repro.rng.base import MASK64
from repro.rng.splitmix import GOLDEN_GAMMA, SplitMix64
from repro.rng.streams import SplitMixStream, derive_seed, derive_seeds, segment_uniforms
from repro.service.registry import WheelRegistry, digest_key
from repro.service.scheduler import _PY_SEEDS, BatchConfig, MicroBatchScheduler

AROUND = [-1, 0, 1]


def _chain(root, *keys):
    """``derive_seed`` as its docstring defines it: one SplitMix64 per key."""
    x = root & MASK64
    for key in keys:
        x = SplitMix64(x ^ ((key * GOLDEN_GAMMA) & MASK64)).next_uint64()
    return x


def _seeds(count, top):
    return [2**64 - 1 - i for i in range(count)] if top else list(range(count))


class TestSeeds:
    @pytest.mark.parametrize("top", [False, True], ids=["small", "near-2^64"])
    @pytest.mark.parametrize("delta", AROUND)
    def test_python_and_numpy_derivations_agree(self, delta, top):
        root, key = (2**64 - 2, 2**64 - 3) if top else (7, 11)
        seeds = _seeds(_PY_SEEDS + delta, top)
        prefix = derive_seed(root, key)
        python = [derive_seed(prefix, s) for s in seeds]
        assert python == derive_seeds(root, seeds, key).tolist()
        assert python == [_chain(root, key, s) for s in seeds]

    @pytest.mark.parametrize("delta", AROUND)
    def test_a_flush_either_side_answers_like_solo_draws(self, delta):
        count = _PY_SEEDS + delta
        reg = WheelRegistry()
        wid, _ = reg.register(np.arange(1.0, 101.0))
        root = 2**64 - 5
        sched = MicroBatchScheduler(reg, BatchConfig(max_batch=count), seed=root)
        seeds = _seeds(count, top=True)

        async def burst():
            return await asyncio.gather(*(sched.draw(wid, 3, seed=s) for s in seeds))

        draws = asyncio.run(burst())
        assert sched.metrics.batch_sizes.snapshot()["sizes"] == {str(count): 1}
        wheel = reg.get(wid)
        for seed, got in zip(seeds, draws):
            stream = SplitMixStream(_chain(root, digest_key(wid), seed))
            np.testing.assert_array_equal(got, wheel.select_many(3, rng=stream))


def _recording(monkeypatch, owner, name, seen):
    """Wrap ``owner.name`` so that a copy of its first argument is kept."""
    original = getattr(owner, name)

    def wrapper(self, values):
        seen.append(np.array(values))
        return original(self, values)

    monkeypatch.setattr(owner, name, wrapper)


#: (method, kernel, items, where the kernel receives its uniforms).
KERNELS = {
    "alias": ("log_bidding", "alias", 100, (AliasTable, "draw_many_from")),
    "searchsorted": ("prefix_sum", "searchsorted", 100, (CompiledWheel, "_lookup_searchsorted")),
    "race": ("log_bidding", "race", None, (CompiledWheel, "_race_chunk")),
}


class TestUniforms:
    @pytest.mark.parametrize("segments", [1, 3])
    @pytest.mark.parametrize("delta", AROUND)
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_fused_batch_either_side_matches_numpy(self, monkeypatch, kernel, delta, segments):
        method, name, items, (owner, entry) = KERNELS[kernel]
        uniforms = _PY_UNIFORMS + delta
        if kernel == "race":
            # A race takes one uniform per item and draw: pick a wheel
            # size that whole draws fill to exactly ``uniforms``.
            items = next(d for d in range(3, uniforms + 1) if uniforms % d == 0)
        f = np.linspace(1.0, 2.0, items)
        wheel = CompiledWheel(f, method, kernel=name)
        draws = uniforms // items if kernel == "race" else uniforms
        sizes = [draws // segments + (i < draws % segments) for i in range(segments)]
        seeds = _seeds(segments, top=True)
        seen = []
        _recording(monkeypatch, owner, entry, seen)
        got = wheel.select_segments([(n, SplitMixStream(s)) for n, s in zip(sizes, seeds)])
        counts = [n * (items if kernel == "race" else 1) for n in sizes]
        (fused,) = seen
        assert fused.ravel().tobytes() == segment_uniforms(seeds, counts).tobytes()
        per_stream = np.concatenate([SplitMixStream(s).random(c) for s, c in zip(seeds, counts)])
        assert fused.ravel().tobytes() == per_stream.tobytes()
        solo = [wheel.select_many(n, rng=SplitMixStream(s)) for n, s in zip(sizes, seeds)]
        np.testing.assert_array_equal(got, np.concatenate(solo))

"""Hypothesis property tests over the selection core."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.audit.oracle import decisive_winner
from repro.core import exact_probabilities, get_method, validate_fitness
from repro.core.bidding import es_keys, gumbel_keys, log_bid_keys
from repro.core.methods.alias import AliasTable

# Fitness vectors: finite, non-negative, not all zero.
fitness_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 40),
    elements=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
).filter(lambda f: np.any(f > 0.0))

uniforms_for = lambda n: hnp.arrays(  # noqa: E731 - local strategy helper
    dtype=np.float64,
    shape=n,
    elements=st.floats(1e-12, 1.0, exclude_max=False),
)


@st.composite
def distinct_uniforms(draw, n):
    """``n`` distinct uniforms on ``(0, 1]``, one in each of the ``n``
    equal-width buckets, in a drawn order.  Distinct by construction:
    ``hnp.arrays(unique=True)`` rejects a drawn float that is already in
    the array, and Hypothesis repeats floats often enough that those
    rejections invalidate many examples."""
    bucket = np.asarray(draw(st.permutations(range(n))), dtype=np.float64)
    frac = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0, exclude_max=True)))
    return (bucket + (1.0 - frac)) / n


@st.composite
def positive_fitness_vectors(draw):
    """Fitness vectors with at least one positive entry by construction
    (no filter, so no example is thrown away for being all zero)."""
    f = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 40),
            elements=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        )
    )
    f[draw(st.integers(0, f.size - 1))] = draw(st.floats(1e-3, 1e6))
    return f


class TestProbabilityAlgebra:
    @given(fitness_vectors)
    def test_exact_probabilities_sum_to_one(self, f):
        p = exact_probabilities(f)
        assert math.isclose(p.sum(), 1.0, rel_tol=1e-9)
        assert np.all(p >= 0.0)

    @given(fitness_vectors, st.floats(1e-6, 1e6))
    def test_scale_invariance(self, f, scale):
        assume(np.all(f * scale < 1e300))
        # Scaling must not change the support (under/overflow would turn
        # a positive fitness into zero, a different wheel entirely).
        assume(np.array_equal(f > 0, f * scale > 0))
        a = exact_probabilities(f)
        b = exact_probabilities(f * scale)
        assert np.allclose(a, b, atol=1e-9)

    @given(fitness_vectors)
    def test_zero_entries_get_zero_probability(self, f):
        p = exact_probabilities(f)
        assert np.all(p[f == 0.0] == 0.0)


class TestKeyTransformEquivalence:
    @given(st.data())
    @settings(max_examples=200)
    def test_same_winner_across_transforms(self, data):
        # A positive entry and distinct uniforms by construction, so the
        # guards below reject almost nothing.
        f = data.draw(positive_fitness_vectors())
        u = data.draw(distinct_uniforms(len(f)))
        keys_log = log_bid_keys(f, None, uniforms=u)
        keys_gum = gumbel_keys(f, None, uniforms=u)
        assume(not np.all(np.isneginf(keys_log)))
        # With ties (prob 0 for random data but hypothesis can construct
        # them) argmax may differ; require a strict winner.  Near-ties
        # within FP rounding noise can also legitimately flip between
        # monotone-equivalent transforms, so require the decisive margin
        # the audit oracle uses (audit finding: keys equal to ~1 ulp
        # rounded in opposite directions across the two transforms).
        finite = keys_log[~np.isneginf(keys_log)]
        assume(len(np.unique(finite)) == len(finite))
        assume(bool(decisive_winner(keys_log)))
        assert int(np.argmax(keys_log)) == int(np.argmax(keys_gum))

    @given(st.data())
    @settings(max_examples=200)
    def test_es_keys_are_exp_of_log_keys(self, data):
        f = data.draw(fitness_vectors)
        u = data.draw(uniforms_for(len(f)))
        keys_log = log_bid_keys(f, None, uniforms=u)
        keys_es = es_keys(f, None, uniforms=u)
        with np.errstate(over="ignore"):
            assert np.allclose(np.exp(keys_log), keys_es, rtol=1e-9, atol=1e-300)

    @given(st.data())
    def test_keys_nonpositive_and_zero_masked(self, data):
        f = data.draw(fitness_vectors)
        u = data.draw(uniforms_for(len(f)))
        keys = log_bid_keys(f, None, uniforms=u)
        assert np.all(keys <= 0.0)
        assert np.all(np.isneginf(keys[f == 0.0]))


class TestMethodInvariants:
    @given(fitness_vectors, st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_exact_methods_never_pick_zero_fitness(self, f, seed):
        rng = np.random.default_rng(seed)
        fv = validate_fitness(f)
        for name in ("log_bidding", "prefix_sum", "alias", "binary_search"):
            idx = get_method(name).select(fv, rng)
            assert fv[idx] > 0.0, name

    @given(fitness_vectors, st.integers(0, 2**31 - 1), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_batch_indices_in_range(self, f, seed, size):
        rng = np.random.default_rng(seed)
        fv = validate_fitness(f)
        draws = get_method("log_bidding").select_many(fv, rng, size)
        assert draws.shape == (size,)
        assert np.all((draws >= 0) & (draws < len(fv)))

    @given(fitness_vectors)
    @settings(max_examples=100, deadline=None)
    def test_alias_table_encodes_target(self, f):
        fv = validate_fitness(f)
        assume(float(fv.sum()) > 0)
        table = AliasTable(fv)
        assert np.allclose(
            table.implied_probabilities(), exact_probabilities(fv), atol=1e-9
        )

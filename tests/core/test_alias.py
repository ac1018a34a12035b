"""Vose alias-table construction invariants."""

import numpy as np
import pytest

from repro.core.fitness import exact_probabilities, validate_fitness
from repro.core.methods.alias import AliasTable


class TestConstruction:
    @pytest.mark.parametrize(
        "fitness",
        [
            [1.0],
            [1.0, 1.0],
            [1.0, 2.0, 3.0],
            [5.0, 0.0, 5.0],
            list(range(1, 20)),
            [1e-9, 1.0, 1e9],
        ],
    )
    def test_implied_probabilities_match_target(self, fitness):
        f = validate_fitness(fitness)
        table = AliasTable(f)
        assert np.allclose(table.implied_probabilities(), exact_probabilities(f), atol=1e-12)

    def test_acceptance_in_unit_interval(self, table1_fitness):
        table = AliasTable(validate_fitness(table1_fitness))
        acc = table.acceptance
        assert np.all(acc >= 0.0) and np.all(acc <= 1.0 + 1e-12)

    def test_aliases_in_range(self, table1_fitness):
        table = AliasTable(validate_fitness(table1_fitness))
        assert np.all((table.aliases >= 0) & (table.aliases < 10))

    def test_zero_column_never_accepted(self, sparse_wheel):
        f = validate_fitness(sparse_wheel)
        table = AliasTable(f)
        zero_cols = np.flatnonzero(f == 0.0)
        assert np.all(table.acceptance[zero_cols] == 0.0)
        # Their aliases must point at positive outcomes.
        assert np.all(f[table.aliases[zero_cols]] > 0.0)

    def test_random_fuzz_many_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            f = rng.random(n)
            f[rng.random(n) < 0.3] = 0.0
            if not np.any(f > 0):
                f[0] = 1.0
            table = AliasTable(validate_fitness(f))
            assert np.allclose(
                table.implied_probabilities(), exact_probabilities(f), atol=1e-10
            )


class TestDraws:
    def test_draw_many_matches_draw_distribution(self, rng):
        f = validate_fitness([1.0, 3.0, 6.0])
        table = AliasTable(f)
        batch = table.draw_many(np.random.default_rng(1), 30_000)
        loop = np.array([table.draw(np.random.default_rng(2)) for _ in range(1)])
        assert set(np.unique(batch)) <= {0, 1, 2}
        assert loop[0] in {0, 1, 2}
        emp = np.bincount(batch, minlength=3) / 30_000
        assert np.allclose(emp, [0.1, 0.3, 0.6], atol=0.02)


def _reference_vose(f):
    """The element-at-a-time NumPy-scalar Vose build the list-based
    :class:`AliasTable` replaced; kept here as the bitwise oracle."""
    f = np.asarray(f, dtype=np.float64)
    n = f.size
    scaled = (f / f.sum()) * n
    prob = np.empty(n, dtype=np.float64)
    alias = np.zeros(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        l = large.pop()  # noqa: E741 - Vose's own names
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        (small if scaled[l] < 1.0 else large).append(l)
    for i in large:
        prob[i] = 1.0
    for i in small:
        prob[i] = 1.0 if f[i] > 0.0 else 0.0
        if f[i] == 0.0 and n > 1:
            alias[i] = int(np.flatnonzero(f > 0.0)[0])
    return prob, alias


def _adversarial_vectors():
    rng = np.random.default_rng(7)
    cases = {}
    for n in (1, 2, 10, 100, 1000, 100_000):
        u = rng.random(n)
        cases[f"uniform-{n}"] = u
        cases[f"skew-u8-{n}"] = u**8
        cases[f"pareto-{n}"] = rng.pareto(1.1, n) + 1e-3
        cases[f"constant-{n}"] = np.full(n, 3.0)
        zeros = rng.random(n)
        zeros[rng.random(n) < 0.7] = 0.0
        zeros[n // 2] = 1.0
        cases[f"zeros-{n}"] = zeros
    cases["single"] = np.array([5.0])
    cases["subnormal"] = np.array([5e-324, 1e-320, 2.5e-310, 0.0, 1e-322])
    cases["subnormal-vs-huge"] = np.array([5e-324, 1e300, 0.0, 1e-310])
    cases["table1"] = np.arange(10, dtype=np.float64)
    return cases


class TestBitwiseAgainstReference:
    _CASES = _adversarial_vectors()

    @pytest.mark.parametrize("f", list(_CASES.values()), ids=list(_CASES))
    def test_tables_bitwise_equal_to_reference_loop(self, f):
        table = AliasTable(validate_fitness(f))
        prob, alias = _reference_vose(f)
        assert table._prob.dtype == np.float64 and table._alias.dtype == np.int64
        assert table._prob.tobytes() == prob.tobytes()
        assert table._alias.tobytes() == alias.tobytes()

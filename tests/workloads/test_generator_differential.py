"""Differential tests: the bulk dataset helpers vs their per-row oracles.

``repro.workloads`` builds string columns and ``l_linenumber`` in bulk;
``tests/workloads/_generator_reference.py`` keeps the loops they
replaced.  For every helper, seed and size, the two must leave the
generator in the same state (same draws, same order) and return equal
values of equal dtype and equal Python type, at 0, 1, 2 and 257 rows.
The four table generators are then compared whole, with the oracles
swapped in, at 1, 2 and 257 rows and at ``benchmarks/perf``'s
``ingest`` sizes, which run every helper at its generator's arguments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import recipe, taxi, text, tpch, ukpp
from tests.workloads import _generator_reference as oracle

SEEDS = (1, 2, 3, 4, 5)
SIZES = (0, 1, 2, 257)
#: Row counts of the ``ingest`` workload's tables, per generator.
INGEST_ROWS = {
    "lineitem": (8_000, 16_000, 32_000),
    "taxi": (8_000, 16_000, 32_000),
    "recipe": (1_000, 2_000, 4_000),
    "ukpp": (5_000, 10_000, 20_000),
}

#: name -> (bulk helper, its oracle), each called as ``f(rng, count)``.
HELPERS = {
    "random_sentences": (text.random_sentences, oracle.random_sentences),
    **{
        f"random_sentences {lo}-{hi}": (
            lambda rng, n, lo=lo, hi=hi: text.random_sentences(rng, n, lo, hi),
            lambda rng, n, lo=lo, hi=hi: oracle.random_sentences(rng, n, lo, hi),
        )
        for lo, hi in ((5, 14), (60, 160), (3, 3), (0, 2))
    },
    "random_codes": (
        lambda rng, n: text.random_codes(rng, n, "TX", 10**9),
        lambda rng, n: oracle.random_codes(rng, n, "TX", 10**9),
    ),
    "random_codes narrow span": (
        lambda rng, n: text.random_codes(rng, n, "A", 5),
        lambda rng, n: oracle.random_codes(rng, n, "A", 5),
    ),
    "pick": (
        lambda rng, n: text.pick(rng, n, ukpp._TOWNS),
        lambda rng, n: oracle.pick(rng, n, ukpp._TOWNS),
    ),
    "pick one choice": (
        lambda rng, n: text.pick(rng, n, ["A"]),
        lambda rng, n: oracle.pick(rng, n, ["A"]),
    ),
    "pick with p": (
        lambda rng, n: text.pick(rng, n, ["", "FLAT 1", "FLAT 2"], p=[0.8, 0.15, 0.05]),
        lambda rng, n: oracle.pick(rng, n, ["", "FLAT 1", "FLAT 2"], p=[0.8, 0.15, 0.05]),
    ),
    "ukpp._postcodes": (ukpp._postcodes, oracle.postcodes),
    "ukpp._streets": (ukpp._streets, oracle.streets),
    "recipe._links": (recipe._links, oracle.links),
}

#: generator module -> (table function, {helper name in the module: oracle}).
GENERATORS = {
    "lineitem": (
        tpch,
        tpch.lineitem_table,
        {
            "pick": oracle.pick,
            "random_sentences": oracle.random_sentences,
            "_linenumbers": oracle.linenumbers,
        },
    ),
    "taxi": (taxi, taxi.taxi_table, {"pick": oracle.pick}),
    "recipe": (
        recipe,
        recipe.recipe_table,
        {"pick": oracle.pick, "random_sentences": oracle.random_sentences, "_links": oracle.links},
    ),
    "ukpp": (
        ukpp,
        ukpp.ukpp_table,
        {
            "pick": oracle.pick,
            "random_codes": oracle.random_codes,
            "_postcodes": oracle.postcodes,
            "_streets": oracle.streets,
        },
    ),
}


def assert_identical(fast: np.ndarray, slow: np.ndarray) -> None:
    assert fast.dtype == slow.dtype
    assert fast.shape == slow.shape
    fast_values, slow_values = fast.tolist(), slow.tolist()
    assert fast_values == slow_values
    assert [type(v) for v in fast_values] == [type(v) for v in slow_values]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("helper", HELPERS)
def test_helper_matches_its_oracle(helper, seed, size):
    fast, slow = HELPERS[helper]
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_identical(fast(fast_rng, size), slow(slow_rng, size))
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


#: Sorted order keys, each ending in a run: of one, of two, of three.
ORDER_KEYS = ([], [7], [1, 1], [1, 2], [1, 1, 2, 2, 2], [1, 2, 2, 3], [4, 4, 4, 4], [1, 3, 3, 9])


@pytest.mark.parametrize("orderkey", ORDER_KEYS, ids=str)
def test_linenumbers_restart_at_each_order(orderkey):
    keys = np.array(orderkey, dtype=np.int64)
    assert_identical(tpch._linenumbers(keys), oracle.linenumbers(keys))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_linenumbers_match_on_drawn_orders(seed, size):
    keys = np.sort(np.random.default_rng(seed).integers(1, max(2, size // 4), size=size))
    assert_identical(tpch._linenumbers(keys), oracle.linenumbers(keys))


def _columns(table) -> dict[str, np.ndarray]:
    return {name: table[name] for name in table.schema.names()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "generator, rows",
    [(name, rows) for name, ingest in INGEST_ROWS.items() for rows in (1, 2, 257, *ingest)],
)
def test_table_matches_the_table_the_oracles_build(monkeypatch, generator, rows, seed):
    module, table_fn, oracles = GENERATORS[generator]
    fast = _columns(table_fn(rows, seed=seed))
    for name, slow_helper in oracles.items():
        monkeypatch.setattr(module, name, slow_helper)
    slow = _columns(table_fn(rows, seed=seed))
    assert list(fast) == list(slow)
    for name in fast:
        assert_identical(fast[name], slow[name])

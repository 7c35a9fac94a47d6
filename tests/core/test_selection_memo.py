"""The selection memo: a decoded chunk remembers what each filter leaf
selected in it, so a hot query does not evaluate the same leaf over the
same values again.

The memo lives in the decode-cache entry (``kernel.DecodedChunk``), so
it shares the entry's LRU bound, group and evictions.  What it must
never do: answer one literal with another's selection (``1``, ``1.0``
and ``True`` compare and hash alike), swallow a type error, hand out an
array a caller could write into, or answer a second run of a query
differently from the local oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig, kernel
from repro.core.kernel import SELECTIONS_PER_CHUNK, DecodedChunk, leaf_key
from repro.format import ColumnType, write_table
from repro.format.table import plain_size
from repro.sql import PlanError, execute_local
from repro.sql.ast_nodes import Between, CompareOp, Comparison, InList
from repro.sql.predicate import PredicateTypeError, eval_leaf
from tests.conftest import make_small_table
from tests.integration.test_randomized_queries import (
    _random_table,
    predicates,
    select_lists,
)

STORES = [FusionStore, BaselineStore]
CONFIG = dict(size_scale=100.0, storage_overhead_threshold=0.2, block_size=1_000_000)


def _store(store_cls, table, name="tbl"):
    cluster = Cluster(Simulator(), ClusterConfig(num_nodes=9))
    store = store_cls(cluster, StoreConfig(**CONFIG))
    store.put(name, write_table(table, row_group_rows=300))
    return store


def _selections(store):
    """Every remembered ``(bitmap, selected)`` pair in the decode cache."""
    cache = store._decode_cache
    return [s for key in list(cache) for s in cache.get(key)._selections.values()]


def _entries_of(store, column: str) -> list[DecodedChunk]:
    """The decode-cache entries of ``column`` of object ``tbl``, keyed
    ``(name, (rg, column index))`` whatever the layout."""
    index = store.objects["tbl"].metadata.schema.names().index(column)
    return [
        store._decode_cache.get(key)
        for key in list(store._decode_cache)
        if key[0] == "tbl" and key[1][1] == index
    ]


class TestLiteralTypes:
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: Comparison("x", CompareOp.EQ, v),
            lambda v: Between("x", v, 5),
            lambda v: InList("x", (0, v)),
        ],
    )
    def test_literals_that_compare_equal_get_distinct_keys(self, make):
        leaves = [make(v) for v in (1, 1.0, True)]
        assert leaves[0] == leaves[1] == leaves[2]  # what a plain dict would conflate
        assert len({leaf_key(leaf) for leaf in leaves}) == 3

    def test_int_and_float_literals_are_remembered_apart(self):
        chunk = DecodedChunk(np.array([0, 1, 2, 1], dtype=np.int64))
        as_int = chunk.bitmap(Comparison("x", CompareOp.EQ, 1), ColumnType.INT64)
        as_float = chunk.bitmap(Comparison("x", CompareOp.EQ, 1.0), ColumnType.INT64)
        assert as_int is not as_float
        assert as_int == as_float
        assert len(chunk._selections) == 2

    def test_a_type_error_still_raises_after_an_equal_literal_was_remembered(self):
        ints = DecodedChunk(np.array([0, 1, 2], dtype=np.int64))
        ints.bitmap(Comparison("x", CompareOp.EQ, 1), ColumnType.INT64)
        bools = DecodedChunk(np.array([True, False, True]))
        bools.bitmap(Comparison("x", CompareOp.EQ, True), ColumnType.BOOL)
        for chunk, literal, type_ in ((ints, True, ColumnType.INT64), (bools, 1, ColumnType.BOOL)):
            leaf = Comparison("x", CompareOp.EQ, literal)
            with pytest.raises(PredicateTypeError):
                eval_leaf(leaf, type_, chunk.values)
            for _ in range(2):  # a failed evaluation is not remembered
                with pytest.raises(PredicateTypeError):
                    chunk.bitmap(leaf, type_)
            assert len(chunk._selections) == 1

    @pytest.mark.parametrize("store_cls", STORES)
    def test_stores_keep_one_selection_per_literal_type(self, store_cls):
        table = make_small_table()
        store = _store(store_cls, table)
        for literal in ("1", "1.0", "1", "1.0"):
            sql = f"SELECT id FROM tbl WHERE qty = {literal}"
            assert store.query(sql)[0].equals(execute_local(sql, table))
        entries = _entries_of(store, "qty")
        assert entries and {len(entry._selections) for entry in entries} == {2}
        with pytest.raises(PlanError):
            store.query("SELECT id FROM tbl WHERE qty = true")


class TestReadOnly:
    def test_remembered_bits_indices_and_values_are_read_only(self):
        chunk = DecodedChunk(np.array(["a", "b", "a"], dtype=object))
        leaf = Comparison("x", CompareOp.EQ, "a")
        bitmap = chunk.bitmap(leaf, ColumnType.STRING)
        values, size = chunk.selected(leaf, ColumnType.STRING)
        assert values.tolist() == ["a", "a"]
        assert size == plain_size(ColumnType.STRING, values)
        for array in (bitmap.bits, bitmap.indices(), values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]

    @pytest.mark.parametrize("store_cls", STORES)
    def test_every_selection_a_store_remembers_is_read_only(self, store_cls):
        table = make_small_table()
        store = _store(store_cls, table)
        for sql in (
            "SELECT id, price FROM tbl WHERE qty < 5 AND tag = 'tag-3'",
            "SELECT note FROM tbl WHERE note LIKE '%7%'",
            "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
        ):
            store.query(sql)
        selections = _selections(store)
        assert selections
        for bitmap, selected in selections:
            assert not bitmap.bits.flags.writeable
            assert not bitmap.indices().flags.writeable
            if selected is not None:
                assert not selected[0].flags.writeable


class TestHotRuns:
    @pytest.mark.parametrize("store_cls", STORES)
    def test_a_second_run_evaluates_no_leaf(self, store_cls, monkeypatch):
        table = make_small_table()
        store = _store(store_cls, table)
        calls = []

        def counted(*args):
            calls.append(args[0])
            return eval_leaf(*args)

        monkeypatch.setattr(kernel, "eval_leaf", counted)
        sqls = [
            "SELECT id, price FROM tbl WHERE qty < 5 OR day >= '2014-01-01'",
            "SELECT note FROM tbl WHERE note LIKE '%7%'",
        ]
        for sql in sqls:
            store.query(sql)
        assert calls
        calls.clear()
        for sql in sqls:
            assert store.query(sql)[0].equals(execute_local(sql, table))
        assert calls == []

    def test_a_chunk_forgets_its_oldest_selection_past_the_bound(self):
        values = np.arange(100, dtype=np.int64)
        chunk = DecodedChunk(values)
        leaves = [Comparison("x", CompareOp.LT, n) for n in range(SELECTIONS_PER_CHUNK + 1)]
        for leaf in leaves:
            chunk.bitmap(leaf, ColumnType.INT64)
        assert len(chunk._selections) == SELECTIONS_PER_CHUNK
        assert leaf_key(leaves[0]) not in chunk._selections
        for leaf in leaves:
            assert chunk.bitmap(leaf, ColumnType.INT64).count() == leaf.value


@pytest.fixture(scope="module")
def random_systems():
    table = _random_table(seed=4321, num_rows=1500)
    return table, {cls.__name__: _store(cls, table) for cls in STORES}


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(select=select_lists(), where=predicates())
def test_a_memo_hit_run_equals_the_oracle(random_systems, select, where):
    table, stores = random_systems
    select_sql, kind = select
    sql = f"SELECT {select_sql} FROM tbl WHERE {where}"
    if kind == "grouped":
        sql += " GROUP BY c"
    expected = execute_local(sql, table)
    for name, store in stores.items():
        first, _ = store.query(sql)
        second, _ = store.query(sql)
        assert first.equals(expected), f"{name} diverged on: {sql}"
        assert second.equals(expected), f"{name} diverged on its memo-hit run of: {sql}"

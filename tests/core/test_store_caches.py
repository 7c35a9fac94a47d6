"""Store memoisation caches: bounded LRU, invalidated on put/delete.

The caches hold decoded *real* bytes; serving an entry from a deleted
object's previous incarnation would silently corrupt results, so a
reused name must always decode fresh bytes.  An object's entries are
evicted as one group, which must drop exactly what a scan of every key
for the object would.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.core.cache import LruDict
from repro.core.kernel import block_owner
from repro.format import ColumnType, Table, write_table

#: Object names with ``/`` in them, and names that prefix other names.
NAMES = ("t", "tb", "t/s0", "t/s0/d1", "t/b2", "a/b", "a", "ab/c")
#: Key shapes of the store caches, each with its true owner and the
#: group function the store gives that cache.
SHAPES = {
    "chunk": (lambda name, i: (name, (i, 0)), itemgetter(0)),
    "block": (
        lambda name, i: (f"{name}/b{i}", f"{name}/s{i}/d1", f"{name}/s{i}/p0")[i % 3],
        block_owner,
    ),
}
_key = st.tuples(st.sampled_from(NAMES), st.integers(0, 4))
_op = st.one_of(
    st.tuples(st.just("set"), _key, st.integers()),
    st.tuples(st.just("get"), _key),
    st.tuples(st.just("pop"), _key),
    st.tuples(st.just("evict"), st.sampled_from(NAMES)),
)


class TestLruDict:
    def test_bounded_with_lru_eviction(self):
        cache = LruDict(max_entries=2, group=str)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh "a": "b" becomes the LRU
        cache["c"] = 3
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_evict_where(self):
        cache = LruDict(max_entries=8, group=itemgetter(0))
        for i in range(4):
            cache[("x", i)] = i
            cache[("y", i)] = i
        assert cache.evict_where(lambda k: k[0] == "x") == 4
        assert len(cache) == 4 and all(k[0] == "y" for k in cache)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LruDict(max_entries=0, group=str)

    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_op, max_size=60), capacity=st.integers(1, 6))
    def test_group_eviction_matches_a_scan_of_every_key(self, shape, ops, capacity):
        make_key, group = SHAPES[shape]
        cache = LruDict(capacity, group=group)
        oracle = LruDict(capacity, group=group)  # evicts by scanning every key
        owner = {}
        for op, *args in ops:
            if op == "evict":
                (name,) = args
                want = oracle.evict_where(lambda key: owner[key] == name)
                assert cache.evict_group(name) == want
            else:
                (name, i), *value = args
                key = make_key(name, i)
                owner[key] = name
                if op == "set":
                    cache[key] = oracle[key] = value[0]
                elif op == "get":
                    assert cache.get(key) == oracle.get(key)
                else:
                    assert cache.pop(key) == oracle.pop(key)
            assert list(cache) == list(oracle)
            assert [cache.get(k) for k in list(oracle)] == [oracle.get(k) for k in list(oracle)]

    def test_block_owner_cuts_the_name_from_the_right(self):
        for name in NAMES:
            for i in range(3):
                assert block_owner(SHAPES["block"][0](name, i)) == name


def _table(fill: int, num_rows: int = 1200) -> bytes:
    table = Table.from_dict(
        {
            "id": (ColumnType.INT64, np.arange(num_rows)),
            "val": (ColumnType.INT64, np.full(num_rows, fill)),
        }
    )
    return write_table(table, row_group_rows=300)


def _store(kind: str):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    config = StoreConfig(
        size_scale=100.0, storage_overhead_threshold=0.1, block_size=500_000
    )
    return (FusionStore if kind == "fusion" else BaselineStore)(cluster, config)


@pytest.mark.parametrize("kind", ["fusion", "baseline"])
class TestStaleCacheInvalidation:
    def test_reused_name_serves_fresh_values(self, kind):
        store = _store(kind)
        store.put("tbl", _table(fill=7))
        result, _ = store.query("SELECT val FROM tbl WHERE id >= 0")
        assert set(result.rows.column("val").values.tolist()) == {7}

        store.delete("tbl")
        store.put("tbl", _table(fill=99))
        result, _ = store.query("SELECT val FROM tbl WHERE id >= 0")
        assert set(result.rows.column("val").values.tolist()) == {99}

    def test_reused_name_serves_fresh_degraded_values(self, kind):
        store = _store(kind)
        store.put("tbl", _table(fill=7))
        store.cluster.fail_node(0)
        store.query("SELECT val FROM tbl WHERE id >= 0")  # warm degraded caches
        store.cluster.restore_node(0)

        store.delete("tbl")
        store.put("tbl", _table(fill=99))
        store.cluster.fail_node(0)
        result, _ = store.query("SELECT val FROM tbl WHERE id >= 0")
        assert set(result.rows.column("val").values.tolist()) == {99}
        assert store.get("tbl") == _table(fill=99)

    def test_caches_stay_bounded(self, kind):
        store = _store(kind)
        store._decode_cache.max_entries = 4
        store.put("tbl", _table(fill=7))
        store.query("SELECT id, val FROM tbl WHERE id >= 0")
        assert len(store._decode_cache) <= 4

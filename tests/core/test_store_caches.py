"""Store memoisation caches: bounded LRU, invalidated on put/delete.

The caches hold decoded *real* bytes; serving an entry from a deleted
object's previous incarnation would silently corrupt results, so a
reused name must always decode fresh bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.core.cache import LruDict
from repro.format import ColumnType, Table, write_table


class TestLruDict:
    def test_bounded_with_lru_eviction(self):
        cache = LruDict(max_entries=2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh "a": "b" becomes the LRU
        cache["c"] = 3
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_evict_where(self):
        cache = LruDict(max_entries=8)
        for i in range(4):
            cache[("x", i)] = i
            cache[("y", i)] = i
        assert cache.evict_where(lambda k: k[0] == "x") == 4
        assert len(cache) == 4 and all(k[0] == "y" for k in cache)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LruDict(max_entries=0)


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

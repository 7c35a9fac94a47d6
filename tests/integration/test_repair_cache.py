"""Stale real-bytes caches across a repair: the twin of
``test_rebalance.py::TestCacheInvalidationAcrossMigration``.

A node rebuild relocates blocks and republishes the object's metadata
once per repaired stripe.  Each republish must evict every decoded
chunk, page index and degraded reconstruction of the object (its cache
groups), or a reader could keep serving values derived from the lost
node's copies.  Every entry is poisoned before the rebuild, so one that
survived would show in the next query's answer.  A decoded chunk also
remembers what each filter leaf selected in it (the selection memo); its
poisoned selections must leave with it, after a rebuild and after a
Delete or a Put that reuses the name.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, RepairManager, StoreConfig
from repro.format import write_table
from repro.sql import Bitmap
from repro.sql.local import execute_local
from tests.conftest import make_small_table

SQL = "SELECT id, price FROM tbl WHERE qty < 5"
TABLE = make_small_table()
DATA = write_table(TABLE, row_group_rows=500)


def _store(store_cls):
    cluster = Cluster(Simulator(), ClusterConfig(num_nodes=9))
    store = store_cls(
        cluster,
        StoreConfig(size_scale=100.0, storage_overhead_threshold=0.1, block_size=2_000_000),
    )
    store.put("tbl", DATA)
    return store


def _caches(store) -> dict:
    caches = {"decode": store._decode_cache, "degraded": store._degraded_bin_cache}
    if store.objects["tbl"].kind == "fac":
        caches["page index"] = store._page_index_cache
    return caches


def _keys_of_tbl(cache) -> list:
    return [k for k in cache if (k[0] if isinstance(k, tuple) else k.split("/")[0]) == "tbl"]


def _poison_selections(store) -> int:
    """Make every remembered selection select nothing, and every decoded
    value garbage; returns how many selections were poisoned."""
    poisoned = 0
    for key in _keys_of_tbl(store._decode_cache):
        chunk = store._decode_cache.get(key)
        chunk.values = np.full(len(chunk.values), -1.0)
        for selection in chunk._selections.values():
            selection[:] = [Bitmap.zeros(len(selection[0])), None]
            poisoned += 1
    return poisoned


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_node_rebuild_evicts_every_cached_entry_of_the_object(store_cls):
    store = _store(store_cls)
    cluster = store.cluster
    expected = execute_local(SQL, TABLE)
    obj = store.objects["tbl"]
    # The holder of row group 0's ``qty`` chunk (or, fixed, of its first
    # bytes), which the query filters on.
    victim = (
        obj.location_map.lookup((0, 1)).node_id if obj.kind == "fac"
        else obj.stripes[0].node_ids[0]
    )
    cluster.fail_node(victim, wipe=True)
    # A degraded query fills all three caches with entries of the object.
    assert store.query(SQL)[0].equals(expected)
    caches = _caches(store)
    for label, cache in caches.items():
        assert _keys_of_tbl(cache), f"the degraded query left the {label} cache empty"
    # Poison every entry: any that survives the rebuild shows up below.
    for cache in caches.values():
        for key in list(cache):
            cache[key] = [] if cache is caches.get("page index") else np.full(8, -1.0)
    for placement in obj.stripes:
        for bid in placement.data_block_ids:
            store._degraded_bin_cache[bid] = np.zeros(4, dtype=np.uint8)

    report = RepairManager(store).repair_node(victim)

    assert report.blocks_repaired > 0
    assert all(victim not in p.node_ids for p in obj.stripes)
    for label, cache in caches.items():
        assert not _keys_of_tbl(cache), f"the rebuild left {label} entries of the object"
    result, metrics = store.query(SQL)
    assert metrics.degraded_reads == 0
    assert result.equals(expected)


def _assert_replicas_match_without_aliasing(store, obj) -> None:
    live = [(p.stripe_id, list(p.node_ids), list(p.checksums)) for p in obj.stripes]
    current = [
        replica.payload["object"]
        for replica in (store.cluster.node(nid).get_meta(obj.name) for nid in obj.replica_nodes)
        if replica is not None and replica.epoch == obj.meta_epoch
    ]
    assert current
    for copy in current:
        assert [(p.stripe_id, list(p.node_ids), list(p.checksums)) for p in copy.stripes] == live
        assert not {id(p) for p in copy.stripes} & {id(p) for p in obj.stripes}
        if obj.kind == "fac":
            assert copy.location_map.entries == obj.location_map.entries
            assert copy.location_map.entries is not obj.location_map.entries


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_replicas_follow_every_rebuild_without_aliasing_live_records(store_cls):
    """A republish copies only the stripes relocated since the previous
    snapshot and shares the rest with it: after the Put and after each
    of two node rebuilds, every current replica equals the live stripe
    records, and none of its records is a live one."""
    store = _store(store_cls)
    obj = store.objects["tbl"]
    _assert_replicas_match_without_aliasing(store, obj)
    manager = RepairManager(store)
    for end in (0, -1):
        victim = obj.stripes[end].node_ids[end]  # a holder, chosen after the last rebuild
        store.cluster.fail_node(victim, wipe=True)
        assert manager.repair_node(victim).blocks_repaired > 0
        _assert_replicas_match_without_aliasing(store, obj)
    assert store.fsck().clean


OTHER = make_small_table(num_rows=1500, seed=31)


@pytest.mark.parametrize("event", ["repair", "reuse"])
@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_poisoned_selection_memo_leaves_with_the_object(store_cls, event):
    """Degraded and healthy queries fill the selection memo; it is
    poisoned; a rebuild, or a Delete (checked at once) followed by a Put
    of other rows under the same name, must leave none of it behind."""
    store = _store(store_cls)
    obj = store.objects["tbl"]
    victim = (
        obj.location_map.lookup((0, 1)).node_id if obj.kind == "fac"
        else obj.stripes[0].node_ids[0]
    )
    if event == "repair":
        store.cluster.fail_node(victim, wipe=True)
    for sql in (SQL, "SELECT qty FROM tbl WHERE qty < 5"):
        assert store.query(sql)[0].equals(execute_local(sql, TABLE))
    assert _poison_selections(store) > 0

    table = TABLE
    if event == "repair":
        assert RepairManager(store).repair_node(victim).blocks_repaired > 0
    else:
        store.delete("tbl")
        assert not _keys_of_tbl(store._decode_cache)
        table = OTHER
        store.put("tbl", write_table(table, row_group_rows=500))
    assert not _keys_of_tbl(store._decode_cache)
    for sql in (SQL, "SELECT qty FROM tbl WHERE qty < 5"):
        assert store.query(sql)[0].equals(execute_local(sql, table))

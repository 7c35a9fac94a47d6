"""What a per-stripe step costs: its own stripe, never the whole object.

FAC packs an object into many more stripes than fixed blocks do, and a
repair runs one stripe at a time: every step it takes per stripe, and
every block a degraded Get locates, must cost the same on an object of
2 stripes as on one of 40.  The steps are counted in executed Python
lines, with the caches holding what a query over the object itself
decoded: locating a block, following a moved block, dropping what was
decoded from it, dropping the object's cache entries, and one republish
of the object's metadata after one stripe moved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.format import ColumnType, Table, write_table
from tests.obs.test_storage_cost import _lines_executed

ROWS = 60
#: Row groups per object: 2 and 40 stripes in either layout.
SIZES = {"small": 4, "large": 80}
VAL = 1  # column index of ``val``, the filter column
STEPS = (
    "locate_block", "block_moved", "_invalidate_block", "_invalidate_object_caches",
    "_republish_meta",
)


def _file(groups: int) -> bytes:
    n = groups * ROWS
    table = Table.from_dict(
        {
            "id": (ColumnType.INT64, np.arange(n)),
            "val": (ColumnType.INT64, np.arange(n) % 7),
            "x": (ColumnType.DOUBLE, np.arange(n) * 0.5),
        }
    )
    return write_table(table, row_group_rows=ROWS)


def _store(store_cls):
    cluster = Cluster(Simulator(), ClusterConfig(num_nodes=9))
    store = store_cls(
        cluster,
        StoreConfig(size_scale=100.0, storage_overhead_threshold=0.5, block_size=33_000),
    )
    for name, groups in SIZES.items():
        store.put(name, _file(groups))
    return store


def _target(obj):
    """The read handle, stripe record and position of the data block
    furthest into the object that holds a filter-column chunk (so its
    decoded values and page index are both cached)."""
    if obj.kind == "fixed":
        placement = obj.stripes[-1]
        return placement.stripe_id * len(placement.data_block_ids), placement, 0
    located = [
        obj.locate_block(loc.block_id)
        for key, loc in obj.location_map.entries.items()
        if key[1] == VAL
    ]
    placement, i = max(located, key=lambda found: found[0].stripe_id)
    return placement.data_block_ids[i], placement, i


def _lines(store, name: str, step: str) -> int:
    obj = store.objects[name]
    handle, placement, i = _target(obj)
    block_id, node_id = placement.block_ids[i], placement.node_ids[i]
    for cache in (store._decode_cache, store._page_index_cache, store._degraded_bin_cache):
        cache.clear()
    store.query(f"SELECT id, val, x FROM {name} WHERE val < 3")
    obj.locate_block(handle)  # any index the layout builds lazily
    if step == "_republish_meta":
        store._relocate_block(obj, placement, i, node_id)
    calls = {
        "locate_block": lambda: obj.locate_block(handle),
        "block_moved": lambda: obj.block_moved(block_id, node_id),
        "_invalidate_block": lambda: store._invalidate_block(obj, placement, i),
        "_invalidate_object_caches": lambda: store._invalidate_object_caches(name),
        "_republish_meta": lambda: store._republish_meta(obj),
    }
    return _lines_executed(calls[step])


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_objects_have_the_sizes_the_guard_compares(store_cls):
    store = _store(store_cls)
    assert [len(store.objects[name].stripes) for name in SIZES] == [2, 40]
    for name in SIZES:
        assert store.objects[name].kind == ("fixed" if store_cls is BaselineStore else "fac")


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_a_stripe_step_costs_the_same_at_any_object_size(store_cls, step):
    store = _store(store_cls)
    small, large = (_lines(store, name, step) for name in SIZES)
    assert small == large > 0, (step, small, large)

"""Scrubbing (parity verification) and the ranged Get API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig, check_stripe
from repro.ec import RS_9_6
from repro.format import write_table
from tests.conftest import make_small_table


def _system(store_cls):
    table = make_small_table(num_rows=2000, seed=91)
    data = write_table(table, row_group_rows=400)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=10))
    store = store_cls(
        cluster,
        StoreConfig(size_scale=50.0, storage_overhead_threshold=0.1, block_size=500_000),
    )
    store.put("tbl", data)
    return store, cluster, data


def _corrupt_one_block(cluster) -> str:
    for node in cluster.nodes:
        if node._blocks:
            bid = next(iter(node._blocks))
            node._blocks[bid] = node._blocks[bid].copy()
            node._blocks[bid][len(node._blocks[bid]) // 2] ^= 0x5A
            return bid
    raise AssertionError("no blocks stored")


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestScrub:
    def test_fresh_object_is_clean(self, store_cls):
        store, _cluster, _data = _system(store_cls)
        report = store.verify_object("tbl")
        assert report.clean
        assert report.stripes_checked >= 1

    def test_detects_bit_rot(self, store_cls):
        store, cluster, _data = _system(store_cls)
        _corrupt_one_block(cluster)
        report = store.verify_object("tbl")
        assert not report.clean
        assert len(report.corrupt_stripes) == 1

    def test_missing_block_reported_incomplete(self, store_cls):
        store, cluster, _data = _system(store_cls)
        for node in cluster.nodes:
            if node._blocks:
                node.drop_block(next(iter(node._blocks)))
                break
        report = store.verify_object("tbl")
        assert report.incomplete_stripes
        assert not report.clean

    def test_dead_node_counts_as_incomplete(self, store_cls):
        store, cluster, _data = _system(store_cls)
        used = [n.node_id for n in cluster.nodes if n.stored_bytes]
        cluster.fail_node(used[0])
        report = store.verify_object("tbl")
        assert report.incomplete_stripes


class TestCheckStripe:
    def _stripe(self, sizes, seed=0):
        rng = np.random.default_rng(seed)
        blocks = [rng.integers(0, 256, size=s, dtype=np.uint8) for s in sizes]
        from repro.ec import encode_stripe

        shards = encode_stripe(RS_9_6, blocks)
        return shards[: RS_9_6.k], shards[RS_9_6.k :]

    def test_ok(self):
        data, parity = self._stripe([100, 50, 25, 10, 5, 1])
        assert check_stripe(RS_9_6, data, parity) == "ok"

    def test_corrupt_data(self):
        data, parity = self._stripe([100, 50, 25, 10, 5, 1])
        data[0] = data[0].copy()
        data[0][3] ^= 1
        assert check_stripe(RS_9_6, data, parity) == "corrupt"

    def test_corrupt_parity(self):
        data, parity = self._stripe([64] * 6)
        parity[2] = parity[2].copy()
        parity[2][0] ^= 1
        assert check_stripe(RS_9_6, data, parity) == "corrupt"

    def test_incomplete(self):
        data, parity = self._stripe([64] * 6)
        data[1] = None
        assert check_stripe(RS_9_6, data, parity) == "incomplete"

    def test_degraded_corrupt_needs_data_sizes(self):
        """With a block unreadable, a damaged readable block shows only
        when the Put-time sizes let the stripe be solved."""
        sizes = [100, 50, 25, 10, 5, 1]
        data, parity = self._stripe(sizes)
        data[1] = None
        parity[0] = parity[0].copy()
        parity[0][7] ^= 1
        assert check_stripe(RS_9_6, data, parity, sizes) == "corrupt"
        assert check_stripe(RS_9_6, data, parity) == "incomplete"


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestRangedGet:
    def test_full_get_default(self, store_cls):
        store, _cluster, data = _system(store_cls)
        assert store.get("tbl") == data

    def test_arbitrary_ranges(self, store_cls):
        store, _cluster, data = _system(store_cls)
        for offset, size in [(0, 1), (4, 100), (1000, 4096), (len(data) - 7, 7)]:
            assert store.get("tbl", offset, size) == data[offset : offset + size]

    def test_zero_size(self, store_cls):
        store, _cluster, _data = _system(store_cls)
        assert store.get("tbl", 10, 0) == b""

    def test_out_of_bounds_raises(self, store_cls):
        store, _cluster, data = _system(store_cls)
        proc = store.sim.process(store.get_process("tbl", offset=len(data), size=1))
        with pytest.raises(ValueError, match="outside"):
            store.sim.run()

    @settings(max_examples=15, deadline=None)
    @given(offset_frac=st.floats(0, 1), size_frac=st.floats(0, 1))
    def test_range_property(self, store_cls, offset_frac, size_frac):
        store, data = _get_cached_system(store_cls)
        offset = int(offset_frac * (len(data) - 1))
        size = int(size_frac * (len(data) - offset))
        assert store.get("tbl", offset, size) == data[offset : offset + size]


_SYSTEM_CACHE: dict = {}


def _get_cached_system(store_cls):
    if store_cls not in _SYSTEM_CACHE:
        store, _cluster, data = _system(store_cls)
        _SYSTEM_CACHE[store_cls] = (store, data)
    return _SYSTEM_CACHE[store_cls]

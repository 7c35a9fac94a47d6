"""fsck: every invariant leg detects its manufactured violation.

Each test plants exactly one inconsistency — a lost block, a planted
orphan, flipped bytes, dropped metadata replicas, a leftover replica, a
corrupted location-map entry — and asserts fsck reports it in the right
bucket and nothing else.  End-to-end checksum tests then show a single
corrupt chunk is detected on read, served correctly anyway (parity
reconstruction), and counted in the metrics.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

TABLE = make_small_table()
DATA = write_table(TABLE, row_group_rows=500)
SQL = "SELECT id, price FROM tbl WHERE qty < 5"


def _system(store_cls, **config):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=100.0,
            storage_overhead_threshold=0.1,
            block_size=2_000_000,
            **config,
        ),
    )
    store.put("tbl", DATA)
    return store


def _first_data_block(store):
    obj = store.objects["tbl"]
    if isinstance(store, FusionStore):
        placement = obj.stripes[0]
        i = next(j for j, s in enumerate(placement.data_sizes) if s > 0)
        return placement.node_ids[i], placement.data_block_ids[i]
    return obj.data_block_nodes[0], obj.data_block_id(0)


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestFsckOracle:
    def test_fresh_store_is_clean(self, store_cls):
        report = _system(store_cls).fsck()
        assert report.clean
        assert report.objects_checked == 1
        assert report.blocks_checked > 0

    def test_detects_missing_block(self, store_cls):
        store = _system(store_cls)
        nid, bid = _first_data_block(store)
        store.cluster.node(nid).drop_block(bid)
        report = store.fsck()
        assert ("tbl", bid) in report.missing_blocks
        assert not report.clean

    def test_detects_orphan_block(self, store_cls):
        store = _system(store_cls)
        node = store.cluster.node(0)
        import numpy as np

        node.put_block("ghost/s0/d0", np.zeros(64, dtype=np.uint8))
        report = store.fsck()
        assert (0, "ghost/s0/d0") in report.orphan_blocks
        assert report.orphan_bytes == 64
        assert not report.clean

    def test_detects_corrupt_block(self, store_cls):
        store = _system(store_cls)
        nid, bid = _first_data_block(store)
        store.cluster.node(nid).corrupt_block(bid, offset=3)
        report = store.fsck()
        assert ("tbl", bid) in report.checksum_mismatches
        assert not report.clean

    def test_detects_under_replication(self, store_cls):
        store = _system(store_cls)
        obj = store.objects["tbl"]
        replicas = (
            obj.location_map.replica_nodes
            if isinstance(store, FusionStore)
            else obj.replica_nodes
        )
        # Drop replicas down past the majority threshold.
        majority = len(replicas) // 2 + 1
        for nid in list(replicas)[: len(replicas) - majority + 1]:
            store.cluster.node(nid).drop_meta("tbl")
        report = store.fsck()
        assert "tbl" in report.under_replicated
        assert not report.clean

    def test_detects_dangling_meta(self, store_cls):
        store = _system(store_cls)
        node = store.cluster.node(0)
        node.put_meta("phantom", object())
        report = store.fsck()
        assert (0, "phantom") in report.dangling_meta
        assert not report.clean

    def test_dead_node_is_unreachable_not_missing(self, store_cls):
        """Blocks on a dead node are repair's problem, not fsck errors —
        a cluster degraded within the code's tolerance is consistent."""
        store = _system(store_cls)
        nid, _bid = _first_data_block(store)
        store.cluster.fail_node(nid)
        report = store.fsck()
        assert report.clean, report.summary()
        assert any(b[0] == "tbl" for b in report.unreachable_blocks)


class TestFsckLocationMap:
    def test_detects_entry_citing_unknown_block(self):
        store = _system(FusionStore)
        obj = store.objects["tbl"]
        key = next(iter(obj.location_map.entries))
        loc = obj.location_map.entries[key]
        obj.location_map.entries[key] = type(loc)(
            chunk_key=loc.chunk_key,
            node_id=loc.node_id,
            block_id="tbl/s99/d0",
            offset_in_block=loc.offset_in_block,
            size=loc.size,
            checksum=loc.checksum,
        )
        report = store.fsck()
        assert any("unknown block" in detail for _n, detail in report.dangling_locations)
        assert not report.clean

    def test_detects_entry_on_wrong_node(self):
        store = _system(FusionStore)
        obj = store.objects["tbl"]
        key = next(iter(obj.location_map.entries))
        loc = obj.location_map.entries[key]
        wrong = (loc.node_id + 1) % store.cluster.config.num_nodes
        obj.location_map.entries[key] = type(loc)(
            chunk_key=loc.chunk_key,
            node_id=wrong,
            block_id=loc.block_id,
            offset_in_block=loc.offset_in_block,
            size=loc.size,
            checksum=loc.checksum,
        )
        report = store.fsck()
        assert any("points at node" in detail for _n, detail in report.dangling_locations)
        assert not report.clean


def _corrupt_queried_chunk(store):
    """Corrupt a byte inside a chunk the test SQL actually reads (the
    row-group-0 "id" chunk for Fusion; block 0 for the baseline)."""
    if isinstance(store, FusionStore):
        obj = store.objects["tbl"]
        loc = obj.location_map.lookup((0, 0))  # (row group 0, column "id")
        store.cluster.node(loc.node_id).corrupt_block(
            loc.block_id, offset=loc.offset_in_block + 3
        )
        return loc.node_id, loc.block_id
    nid, bid = _first_data_block(store)
    store.cluster.node(nid).corrupt_block(bid, offset=3)
    return nid, bid


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestEndToEndChecksums:
    def test_corrupt_chunk_detected_and_read_repaired(self, store_cls):
        """One silently corrupted chunk: the query still returns correct
        rows (reconstruction from parity) and the failure is counted."""
        store = _system(store_cls)
        _corrupt_queried_chunk(store)
        result, metrics = store.query(SQL)
        assert result.equals(execute_local(SQL, TABLE))
        assert metrics.checksum_failures >= 1
        assert store.cluster.metrics.checksum_failures >= 1

    def test_scrub_reports_block_level_mismatch(self, store_cls):
        store = _system(store_cls)
        nid, bid = _first_data_block(store)
        store.cluster.node(nid).corrupt_block(bid, offset=3)
        scrub = store.verify_object("tbl")
        assert bid in scrub.checksum_mismatch_blocks
        assert not scrub.clean

"""Corrupt/crash → scrub → RepairManager → clean: the full repair loop.

After repair, scrubbing must come back clean, placements must point only
at live nodes, and subsequent Gets/queries must need zero degraded
reads — with repair traffic accounted separately from query traffic."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator
from repro.core import (
    BaselineStore,
    FusionStore,
    RepairManager,
    StoreConfig,
    StoredFusionObject,
)
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

SQL = "SELECT id, price FROM tbl WHERE qty < 5"


def _system(store_cls, num_nodes=12):
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=num_nodes))
    store = store_cls(
        cluster,
        StoreConfig(size_scale=50.0, storage_overhead_threshold=0.1, block_size=500_000),
    )
    store.put("tbl", data)
    return store, cluster, table, data


def _corrupt_one_data_block(store, cluster) -> tuple[int, str]:
    """Flip a byte in one stored data block; returns (node_id, block_id)."""
    obj = store.objects["tbl"]
    if obj.kind == "fac":
        placement = obj.stripes[0]
        i = next(j for j, s in enumerate(placement.data_sizes) if s > 0)
        bid = placement.data_block_ids[i]
        nid = placement.node_ids[i]
    else:
        bid = obj.data_block_id(0)
        nid = obj.data_block_nodes[0]
    cluster.node(nid).corrupt_block(bid, offset=11)
    return nid, bid


def _placement_nodes(store) -> set[int]:
    nodes: set[int] = set()
    for obj in store.objects.values():
        for placement in obj.stripes:
            nodes |= {nid for nid in placement.node_ids if nid is not None}
        if isinstance(obj, StoredFusionObject):
            nodes |= {loc.node_id for loc in obj.location_map.entries.values()}
    return nodes


def _stripe_nodes(store) -> list[list[int]]:
    """Per stripe of ``tbl``: the nodes holding its written blocks."""
    return [
        [nid for nid, _bid, _size, _crc in p.stored_blocks()]
        for p in store.objects["tbl"].stripes
    ]


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestCorruptionRepair:
    def test_corrupt_scrub_repair_rescrub_clean(self, store_cls):
        store, cluster, table, data = _system(store_cls)
        _corrupt_one_data_block(store, cluster)

        report = store.verify_object("tbl")
        assert report.corrupt_stripes and not report.incomplete_stripes

        query_bytes_before = cluster.metrics.network_bytes
        repair = RepairManager(store).repair_from_scrub(report)
        assert repair.blocks_repaired >= 1
        assert repair.repair_bytes > 0
        assert repair.time_to_repair > 0
        # Repair traffic lands in its own bucket, not in query totals.
        assert cluster.metrics.repair_bytes == repair.repair_bytes
        assert cluster.metrics.network_bytes == query_bytes_before

        assert store.verify_object("tbl").clean
        # The rewritten block serves correct bytes with no degraded reads.
        assert store.get("tbl") == data
        qm = QueryMetrics()
        proc = store.sim.process(store.query_process(SQL, qm))
        store.sim.run()
        assert proc.value.equals(execute_local(SQL, table))
        assert qm.degraded_reads == 0

    def test_repair_rewrites_in_place_on_live_node(self, store_cls):
        store, cluster, _table, _data = _system(store_cls)
        nid, bid = _corrupt_one_data_block(store, cluster)
        before = bytes(cluster.node(nid)._blocks[bid])
        RepairManager(store).repair_from_scrub(store.verify_object("tbl"))
        after = bytes(cluster.node(nid)._blocks[bid])
        assert after != before  # same node, same block id, healed bytes


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestCrashRepair:
    def test_unreadable_nodes_report_incomplete_not_corrupt(self, store_cls):
        store, cluster, _table, _data = _system(store_cls)
        victim = sorted(_placement_nodes(store))[0]
        cluster.fail_node(victim)
        report = store.verify_object("tbl")
        assert report.incomplete_stripes and not report.corrupt_stripes

    def test_crash_repair_moves_placements_to_live_nodes(self, store_cls):
        store, cluster, table, data = _system(store_cls)
        victim = sorted(_placement_nodes(store))[0]
        cluster.fail_node(victim)

        repair = RepairManager(store).repair_node(victim)
        assert repair.blocks_repaired >= 1

        # Placements and the location map reference only live nodes now.
        alive = set(cluster.alive_nodes())
        assert victim not in _placement_nodes(store)
        assert _placement_nodes(store) <= alive

        # The scrub is clean even though the victim is still dead.
        assert store.verify_object("tbl").clean

        # Subsequent traffic needs no degraded reads and stays correct.
        qm = QueryMetrics()
        proc = store.sim.process(store.query_process(SQL, qm))
        store.sim.run()
        assert proc.value.equals(execute_local(SQL, table))
        assert qm.degraded_reads == 0
        assert store.get("tbl") == data

    def test_two_lost_blocks_of_a_stripe_land_on_distinct_nodes(self, store_cls):
        """The rescue node for a stripe's second lost block must not be
        the one its first lost block just moved to."""
        store, cluster, _table, data = _system(store_cls)
        victims = _stripe_nodes(store)[0][:2]
        for victim in victims:
            cluster.fail_node(victim)
        repair = RepairManager(store).repair_object("tbl")
        assert repair.blocks_repaired >= 2
        for nodes in _stripe_nodes(store):
            assert len(set(nodes)) == len(nodes), "one block of a stripe per node"
        assert not set(victims) & _placement_nodes(store)
        assert store.get("tbl") == data

    def test_crash_while_corrupt_elsewhere_both_healed(self, store_cls):
        """Concurrent damage: one node dead and a *different* readable
        block corrupt — scrub sees corruption through the degradation,
        and one repair pass heals both."""
        store, cluster, _table, data = _system(store_cls)
        nid, _bid = _corrupt_one_data_block(store, cluster)
        victim = next(n for n in sorted(_placement_nodes(store)) if n != nid)
        cluster.fail_node(victim)

        report = store.verify_object("tbl")
        assert report.corrupt_stripes  # corruption not masked by the crash

        RepairManager(store).repair_node(victim)
        RepairManager(store).repair_from_scrub(report)
        assert store.verify_object("tbl").clean
        assert store.get("tbl") == data


class TestCacheInvalidation:
    def test_degraded_cache_cleared_on_liveness_change(self):
        store, cluster, table, _data = _system(FusionStore)
        victim = sorted(_placement_nodes(store))[0]
        cluster.fail_node(victim)
        _r, _m = store.query(SQL)  # primes degraded reconstruction caches
        assert len(store._degraded_bin_cache) > 0
        cluster.restore_node(victim)
        assert len(store._degraded_bin_cache) == 0
        result, qm = store.query(SQL)
        assert result.equals(execute_local(SQL, table))
        assert qm.degraded_reads == 0

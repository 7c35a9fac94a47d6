"""Degraded reads: queries and Gets keep working while nodes are down,
via on-the-fly erasure-code reconstruction (no prior recovery)."""

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, RepairManager, StoreConfig
from repro.ec import DecodeError
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT price FROM tbl WHERE price < 5.0",  # fused single-column path
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT tag, sum(qty) FROM tbl WHERE id < 800 GROUP BY tag",
]


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


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
class TestDegradedQueries:
    def test_queries_survive_single_node_failure(self, store_cls):
        store, cluster, table, _data = _system(store_cls)
        used = {nid for node in cluster.nodes for nid in [node.node_id] if node.stored_bytes}
        victim = sorted(used)[0]
        cluster.fail_node(victim)
        for sql in QUERIES:
            result, _ = store.query(sql)
            assert result.equals(execute_local(sql, table)), sql

    def test_queries_survive_parity_many_failures(self, store_cls):
        store, cluster, table, _data = _system(store_cls)
        # Fail n-k = 3 nodes; every stripe still has k readable blocks.
        for victim in (0, 1, 2):
            cluster.fail_node(victim)
        sql = QUERIES[0]
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, table))

    def test_get_survives_failure(self, store_cls):
        store, cluster, _table, data = _system(store_cls)
        cluster.fail_node(1)
        assert store.get("tbl") == data
        assert store.get("tbl", 100, 5000) == data[100:5100]

    def test_restore_returns_to_normal(self, store_cls):
        store, cluster, table, _data = _system(store_cls)
        cluster.fail_node(2)
        sql = QUERIES[0]
        _degraded, m_degraded = store.query(sql)
        cluster.restore_node(2)
        result, m_normal = store.query(sql)
        assert result.equals(execute_local(sql, table))
        assert cluster.alive_nodes() == list(range(12))


class TestDegradedCosts:
    def test_degraded_read_is_more_expensive(self):
        store, cluster, table, _data = _system(FusionStore)
        sql = "SELECT note FROM tbl WHERE id < 300"
        _r, healthy = store.query(sql)
        # Fail up to n-k of the nodes that hold chunks this query touches.
        obj = store.objects["tbl"]
        touched = sorted(
            {
                obj.location_map.lookup(meta.key).node_id
                for meta in obj.metadata.all_chunks()
                if meta.column in ("id", "note")
            }
        )
        for nid in touched[: store.config.code.parity]:
            cluster.fail_node(nid)
        result, degraded = store.query(sql)
        assert result.equals(execute_local(sql, table))
        assert degraded.network_bytes > healthy.network_bytes

    def test_beyond_tolerance_raises(self):
        store, cluster, _table, _data = _system(FusionStore, num_nodes=9)
        # With 9 nodes, every stripe touches all nodes: failing 4 breaks
        # at least one stripe's k-survivor requirement.
        for victim in (0, 1, 2, 3):
            cluster.fail_node(victim)
        with pytest.raises(DecodeError):
            store.query("SELECT id FROM tbl WHERE qty < 100")

    def test_recovery_while_degraded_then_clean(self):
        store, cluster, table, data = _system(FusionStore)
        victim = store.objects["tbl"].stripes[0].node_ids[0]
        cluster.fail_node(victim)
        # Rebuild the dead node's blocks onto live nodes, then drop it for
        # good: reads must no longer touch the victim.
        RepairManager(store).repair_node(victim)
        sql = "SELECT id FROM tbl WHERE qty < 5"
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, table))
        assert store.get("tbl") == data

"""Failure injection: lose nodes up to the code's tolerance, recover, and
verify both byte-level integrity and query correctness."""

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import FusionStore, RepairError, RepairManager, StoreConfig
from repro.ec import RS_9_6, CodeParams
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table


@pytest.fixture
def system():
    table = make_small_table(num_rows=3000, seed=31)
    data = write_table(table, row_group_rows=600)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = FusionStore(
        cluster, StoreConfig(size_scale=50.0, storage_overhead_threshold=0.1)
    )
    store.put("tbl", data)
    return store, cluster, table, data


def _kill(cluster, node_id):
    for bid in list(cluster.node(node_id)._blocks):
        cluster.node(node_id).drop_block(bid)


class TestProgressiveFailures:
    def test_recover_up_to_parity_nodes(self, system):
        store, cluster, table, data = system
        obj = store.objects["tbl"]
        victims = obj.stripes[0].node_ids[: RS_9_6.parity]
        for v in victims:
            _kill(cluster, v)
            RepairManager(store).repair_node(v)
        assert store.get("tbl") == data
        sql = "SELECT id FROM tbl WHERE qty < 5"
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, table))

    def test_sequential_failures_beyond_parity_with_recovery(self, system):
        """More total failures than n-k are fine when recovered one at a
        time (each recovery restores full redundancy)."""
        store, cluster, table, data = system
        obj = store.objects["tbl"]
        for round_ in range(4):
            victim = obj.stripes[0].node_ids[0]
            _kill(cluster, victim)
            RepairManager(store).repair_node(victim)
        assert store.get("tbl") == data

    def test_simultaneous_loss_beyond_tolerance_fails(self, system):
        store, cluster, _table, _data = system
        obj = store.objects["tbl"]
        victims = obj.stripes[0].node_ids[: RS_9_6.parity + 1]
        for v in victims:
            _kill(cluster, v)
        with pytest.raises(RepairError):
            RepairManager(store).repair_node(victims[0])

    def test_parity_only_loss(self, system):
        store, cluster, _table, data = system
        obj = store.objects["tbl"]
        parity_node = obj.stripes[0].node_ids[RS_9_6.k]
        _kill(cluster, parity_node)
        assert RepairManager(store).repair_node(parity_node).blocks_repaired > 0
        assert store.get("tbl") == data

    def test_recovery_restores_redundancy_level(self, system):
        """After recovery, losing n-k *different* nodes is survivable again."""
        store, cluster, _table, data = system
        obj = store.objects["tbl"]
        first = obj.stripes[0].node_ids[0]
        _kill(cluster, first)
        RepairManager(store).repair_node(first)
        fresh_victims = obj.stripes[0].node_ids[:2]
        for v in fresh_victims:
            _kill(cluster, v)
            RepairManager(store).repair_node(v)
        assert store.get("tbl") == data


class TestWideCode:
    def test_rs_14_10_store_and_recover(self):
        table = make_small_table(num_rows=2000, seed=32)
        data = write_table(table, row_group_rows=500)
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(num_nodes=16))
        store = FusionStore(
            cluster,
            StoreConfig(
                code=CodeParams(14, 10), size_scale=50.0, storage_overhead_threshold=0.2
            ),
        )
        store.put("tbl", data)
        obj = store.objects["tbl"]
        victims = obj.stripes[0].node_ids[:4]  # full parity budget
        for v in victims:
            _kill(cluster, v)
        for v in victims:
            RepairManager(store).repair_node(v)
        assert store.get("tbl") == data

"""Per-node scatter-gather exchanges: correctness and RPC accounting.

Every stage groups its per-chunk ops into one exchange per storage node.
Coalescing changes *when* messages travel, never *what* they carry:
query results must equal the in-memory reference executor on the same
table, Get must return the Put input bytes, and each exchange must save
the per-op messages it coalesced.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import BaselineStore, FusionStore, StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 25",
    "SELECT qty FROM tbl WHERE qty < 10",  # fused single-column path
    "SELECT tag, note FROM tbl WHERE price < 90 AND qty < 40",
    "SELECT sum(price), count(*) FROM tbl WHERE qty < 25",
]


def _build(kind: str, num_nodes: int = 9):
    # 20 row groups over 9 nodes guarantees multi-op node groups; the
    # small block size does the same for the baseline's fixed blocks.
    table = make_small_table(num_rows=4000)
    data = write_table(table, row_group_rows=200)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=num_nodes))
    config = StoreConfig(
        size_scale=100.0,
        storage_overhead_threshold=0.1,
        block_size=500_000,
    )
    store = (FusionStore if kind == "fusion" else BaselineStore)(cluster, config)
    store.put("tbl", data)
    return store, table, data


@pytest.mark.parametrize("kind", ["fusion", "baseline"])
class TestBatchingEquivalence:
    def test_results_match_oracle(self, kind):
        store, table, _ = _build(kind)
        for sql in QUERIES:
            result, m = store.query(sql)
            assert result.equals(execute_local(sql, table)), sql
            # Multi-op node groups: some per-op messages rode an exchange.
            assert m.rpcs_saved > 0, sql

    def test_get_identical_bytes(self, kind):
        store, _, data = _build(kind)
        assert store.get("tbl") == data
        assert store.get("tbl", 100, 5000) == data[100:5100]

    def test_deterministic_latencies(self, kind):
        """Two identical runs produce identical latency traces."""

        def trace():
            store, _, _ = _build(kind)
            out = []
            for sql in QUERIES:
                _result, m = store.query(sql)
                out.append((m.latency, m.network_bytes, m.rpcs_issued))
            return out

        assert trace() == trace()


class TestDegradedBatching:
    @pytest.mark.parametrize("kind", ["fusion", "baseline"])
    def test_degraded_matches_oracle(self, kind):
        sql = "SELECT id, price FROM tbl WHERE qty < 25"
        store, table, data = _build(kind)
        store.cluster.fail_node(0)
        result, m = store.query(sql)
        assert m.degraded_reads > 0
        assert result.equals(execute_local(sql, table))
        assert store.get("tbl") == data
        assert store.get("tbl", 100, 5000) == data[100:5100]


class TestRpcAccounting:
    def test_cluster_metrics_accumulate(self):
        store, _, _ = _build("fusion")
        store.query(QUERIES[0])
        cm = store.cluster.metrics
        assert cm.rpcs_issued > 0
        assert cm.rpcs_saved > 0
        assert store.cluster.network.rpcs_saved >= cm.rpcs_saved

    def test_fused_query_single_rpc_per_node(self):
        """The acceptance bound: ≤ one data-plane RPC per (node, stage)."""
        store, _, _ = _build("fusion")
        result, m = store.query("SELECT qty FROM tbl WHERE qty < 10")
        assert result.matched_rows > 0
        nodes_touched = len(
            {loc for loc in store.objects["tbl"].chunk_nodes.values()}
        )
        # Fused stage: one batched request per touched node (replies
        # stream over the open exchange), plus the final result transfer
        # to the client.
        assert m.rpcs_issued <= nodes_touched + 1

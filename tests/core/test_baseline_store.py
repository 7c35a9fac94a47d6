"""BaselineStore: Put/Get/Query semantics and recovery."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator, StorageNode
from repro.core import BaselineStore, ObjectNotFound, RepairManager, StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT tag FROM tbl WHERE id BETWEEN 100 AND 200",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT * FROM tbl WHERE day < '2013-12-01' AND qty > 25",
    "SELECT note FROM tbl WHERE tag = 'tag-3' OR id < 3",
    "SELECT id FROM tbl",
]


class TestPut:
    def test_put_report(self, loaded_baseline, small_file):
        obj = loaded_baseline.objects["tbl"]
        assert obj.total_bytes == len(small_file)
        assert len(obj.data_block_nodes) == len(obj.layout.blocks)

    def test_duplicate_put_raises(self, loaded_baseline, small_file):
        with pytest.raises(ValueError, match="exists"):
            loaded_baseline.put("tbl", small_file)

    def test_blocks_distributed_across_nodes(self, loaded_baseline):
        obj = loaded_baseline.objects["tbl"]
        nodes_used = set(obj.data_block_nodes.values())
        assert len(nodes_used) > 1

    def test_parity_blocks_stored(self, loaded_baseline):
        obj = loaded_baseline.objects["tbl"]
        for (stripe, pj), node_id in obj.parity_block_nodes.items():
            node = loaded_baseline.cluster.node(node_id)
            assert node.has_block(obj.parity_block_id(stripe, pj))

    def test_traced_put_charges_disk_writes(self, small_file):
        sim = Simulator()
        store = BaselineStore(
            Cluster(sim, ClusterConfig(num_nodes=9)),
            StoreConfig(size_scale=100.0, block_size=2_000_000, tracing_enabled=True),
        )
        store.put("tbl", small_file)
        devices = [s.name for s in sim.tracer.spans if s.name.startswith("disk.")]
        blocks = sum(
            1 for p in store.objects["tbl"].stripes for _block in p.stored_blocks()
        )
        assert devices == ["disk.write"] * blocks

    def test_stored_bytes_include_parity(self, loaded_baseline, small_file):
        total = loaded_baseline.cluster.stored_bytes
        assert total > len(small_file)

    def test_put_latency_simulated(self, small_file):
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig())
        store = BaselineStore(cl, StoreConfig(size_scale=100.0))
        report = store.put("tbl", small_file)
        assert report.simulated_put_seconds > 0
        assert report.strategy == "fixed"


class TestGet:
    def test_roundtrip(self, loaded_baseline, small_file):
        assert loaded_baseline.get("tbl") == small_file

    def test_unknown_object(self, loaded_baseline):
        with pytest.raises(ObjectNotFound):
            loaded_baseline.get("nope")


class TestQuery:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_reference(self, loaded_baseline, small_table, sql):
        result, metrics = loaded_baseline.query(sql)
        expected = execute_local(sql, small_table)
        assert result.equals(expected)
        assert metrics.latency > 0

    def test_unknown_object_raises(self, loaded_baseline):
        with pytest.raises(ObjectNotFound):
            loaded_baseline.query("SELECT x FROM missing")

    def test_reads_each_covering_block_once_and_whole(self, small_file, small_table, monkeypatch):
        # 5,000 B blocks: chunks straddle block boundaries and share blocks.
        store = BaselineStore(
            Cluster(Simulator(), ClusterConfig(num_nodes=9)),
            StoreConfig(size_scale=100.0, block_size=500_000),
        )
        store.put("tbl", small_file)
        obj = store.objects["tbl"]
        reads = []
        read_block_range = StorageNode.read_block_range

        def recording(node, block_id, offset, length, *args, **kw):
            reads.append((block_id, offset, length))
            return (yield from read_block_range(node, block_id, offset, length, *args, **kw))

        monkeypatch.setattr(StorageNode, "read_block_range", recording)
        # ids are sorted: the filter keeps row groups 1 and 2 of four.
        sql = "SELECT price FROM tbl WHERE id BETWEEN 600 AND 1400"
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, small_table))

        covering = [
            [f.block_index for f in obj.layout.locate(meta.offset, meta.size)]
            for meta in (obj.metadata.chunk(rg, col) for rg in (1, 2) for col in ("id", "price"))
        ]
        needed = set().union(*covering)
        assert any(len(blocks) > 1 for blocks in covering)  # a chunk straddles
        assert sum(len(blocks) for blocks in covering) > len(needed)  # blocks are shared
        assert needed < set(range(len(obj.layout.blocks)))  # some block is not needed
        assert sorted(reads) == sorted(
            (obj.data_block_id(i), 0, obj.layout.blocks[i].size) for i in needed
        )

    def test_whole_block_mode_moves_more_bytes(self, small_file, small_table, monkeypatch):
        store = BaselineStore(Cluster(Simulator(), ClusterConfig()), StoreConfig(size_scale=100.0))
        store.put("tbl", small_file)
        obj = store.objects["tbl"]
        lengths = []
        read_block_range = StorageNode.read_block_range

        def recording(node, block_id, offset, length, *args, **kw):
            lengths.append(length)
            return (yield from read_block_range(node, block_id, offset, length, *args, **kw))

        monkeypatch.setattr(StorageNode, "read_block_range", recording)
        result, _ = store.query(QUERIES[0])
        assert result.equals(execute_local(QUERIES[0], small_table))

        # Every byte of the read columns, unpruned: more than a byte-exact
        # reassembly of the query's chunks could ever read.
        chunk_bytes = sum(
            meta.size for col in ("id", "price", "qty")
            for meta in obj.metadata.chunks_for_column(col)
        )
        assert sum(lengths) > chunk_bytes

    def test_pruning_reduces_traffic(self, loaded_baseline):
        # id is sorted: a narrow id filter prunes most row groups.
        _r1, narrow = loaded_baseline.query("SELECT qty FROM tbl WHERE id < 10")
        _r2, broad = loaded_baseline.query("SELECT qty FROM tbl WHERE qty < 100")
        assert narrow.network_bytes < broad.network_bytes


class TestRecovery:
    def test_node_loss_recovery_preserves_object(self, small_file):
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig(num_nodes=12))
        store = BaselineStore(cl, StoreConfig(size_scale=10.0, block_size=500_000))
        store.put("tbl", small_file)
        victim = next(iter(store.objects["tbl"].data_block_nodes.values()))
        for bid in list(cl.node(victim)._blocks):
            cl.node(victim).drop_block(bid)
        assert RepairManager(store).repair_node(victim).blocks_repaired > 0
        assert store.get("tbl") == small_file

    def test_recovery_moves_blocks_off_victim(self, small_file):
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig(num_nodes=12))
        store = BaselineStore(cl, StoreConfig(size_scale=10.0, block_size=500_000))
        store.put("tbl", small_file)
        obj = store.objects["tbl"]
        victim = next(iter(obj.data_block_nodes.values()))
        # Down as well as empty: the lost blocks must leave the node.
        cl.fail_node(victim, wipe=True)
        RepairManager(store).repair_node(victim)
        assert victim not in set(obj.data_block_nodes.values())

    def test_query_correct_after_recovery(self, small_file, small_table):
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig(num_nodes=12))
        store = BaselineStore(cl, StoreConfig(size_scale=10.0, block_size=500_000))
        store.put("tbl", small_file)
        victim = next(iter(store.objects["tbl"].data_block_nodes.values()))
        for bid in list(cl.node(victim)._blocks):
            cl.node(victim).drop_block(bid)
        RepairManager(store).repair_node(victim)
        sql = QUERIES[0]
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, small_table))

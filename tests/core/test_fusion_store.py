"""FusionStore: FAC placement, adaptive pushdown, Get, fallback, recovery."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, Simulator
from repro.core import FusionStore, ObjectNotFound, PushdownMode, RepairManager, StoreConfig
from repro.core.baseline_store import StoredFixedObject
from repro.format import ColumnType, PaxFile, Table, get_codec, write_table
from repro.sql import Bitmap, execute_local
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT tag FROM tbl WHERE id BETWEEN 100 AND 200",
    "SELECT count(*), avg(price) FROM tbl WHERE flag = true",
    "SELECT * FROM tbl WHERE day < '2013-12-01' AND qty > 25",
    "SELECT note FROM tbl WHERE tag = 'tag-3' OR id < 3",
    "SELECT id FROM tbl",
    "SELECT price FROM tbl WHERE price < 1.0",  # single-column fused path
    "SELECT qty FROM tbl WHERE qty < 49",  # fused, high selectivity
    "SELECT min(day), max(day) FROM tbl WHERE id NOT IN (1, 2)",
]


def _fresh_store(small_file, **config):
    sim = Simulator()
    cl = Cluster(sim, ClusterConfig(num_nodes=9))
    store = FusionStore(cl, StoreConfig(size_scale=100.0, storage_overhead_threshold=0.1, block_size=2_000_000, **config))
    store.put("tbl", small_file)
    return store


class TestPut:
    def test_report_facts(self, small_file):
        store = _fresh_store(small_file)
        obj = store.objects["tbl"]
        report_overhead = obj.layout.overhead_vs_optimal
        assert obj.layout.strategy == "fac"
        assert report_overhead <= store.config.storage_overhead_threshold

    def test_every_chunk_on_exactly_one_node(self, loaded_fusion):
        """The paper's core guarantee: no chunk is ever split."""
        obj = loaded_fusion.objects["tbl"]
        chunks = obj.metadata.all_chunks()
        assert len(obj.location_map) == len(chunks)
        for meta in chunks:
            loc = obj.location_map.lookup(meta.key)
            node = loaded_fusion.cluster.node(loc.node_id)
            assert node.has_block(loc.block_id)
            assert loc.size == meta.size

    def test_chunk_bytes_intact_on_node(self, loaded_fusion, small_file):
        obj = loaded_fusion.objects["tbl"]
        meta = obj.metadata.chunk(1, "price")
        loc = obj.location_map.lookup(meta.key)
        node = loaded_fusion.cluster.node(loc.node_id)
        block = node._blocks[loc.block_id]
        stored = bytes(block[loc.offset_in_block : loc.offset_in_block + loc.size])
        assert stored == small_file[meta.offset : meta.end_offset]

    def test_location_map_replicated(self, loaded_fusion):
        obj = loaded_fusion.objects["tbl"]
        assert len(obj.location_map.replica_nodes) == loaded_fusion.config.code.k + 1

    def test_parity_written_per_stripe(self, loaded_fusion):
        obj = loaded_fusion.objects["tbl"]
        for placement in obj.stripes:
            for pj, bid in enumerate(placement.parity_block_ids):
                node = loaded_fusion.cluster.node(
                    placement.node_ids[loaded_fusion.config.code.k + pj]
                )
                assert node.has_block(bid)
                assert node.block_size(bid) == placement.max_size

    def test_duplicate_put_raises(self, loaded_fusion, small_file):
        with pytest.raises(ValueError, match="exists"):
            loaded_fusion.put("tbl", small_file)

    def test_storage_overhead_close_to_optimal(self, loaded_fusion, small_file):
        stored = loaded_fusion.cluster.stored_bytes
        meta = PaxFile(small_file).metadata
        data = meta.data_size
        optimal = data * 1.5
        # Within the 2% budget of optimal, modulo the non-chunk footer bytes.
        assert stored <= optimal * 1.03


def _metered_put(small_file, scale, monkeypatch):
    """Put ``small_file`` at ``size_scale=scale``.  Returns the store, the
    network bytes moved before the metadata round and during it (read at
    the WAL's ``put:after-data`` / ``put:after-meta`` points), and every
    CPU charge the coordinator took, in order."""
    sim = Simulator()
    cl = Cluster(sim, ClusterConfig(num_nodes=9))
    store = FusionStore(cl, StoreConfig(size_scale=scale, storage_overhead_threshold=0.1))
    coordinator = cl.coordinator_for("tbl")
    marks, charges = {}, []
    crash_point, compute = store.wal.crash_point, coordinator.compute

    def mark(node, point):
        marks[point] = cl.network.total_bytes
        crash_point(node, point)

    def charge(seconds, query=None):
        charges.append(seconds)
        yield from compute(seconds, query)

    monkeypatch.setattr(store.wal, "crash_point", mark)
    monkeypatch.setattr(coordinator, "compute", charge)
    store.put("tbl", small_file)
    before_meta = marks["put:after-data"]
    return store, before_meta, marks["put:after-meta"] - before_meta, charges


class TestPutScaling:
    """``size_scale`` multiplies the bytes that grow with the data.  The
    location map and the footer grow with the schema and the row-group
    count, so the metadata round and the footer parse are charged at real
    size."""

    def test_metadata_is_charged_at_real_size(self, small_file, monkeypatch):
        runs = [_metered_put(small_file, scale, monkeypatch) for scale in (1.0, 7000.0)]
        for store, before_meta, meta_round, charges in runs:
            obj, config = store.objects["tbl"], store.config
            coordinator = store.cluster.coordinator_for("tbl")
            remote = [nid for nid in obj.location_map.replica_nodes if nid != coordinator.node_id]
            assert remote
            assert meta_round == (obj.location_map.wire_size + len(obj.trailer_bytes)) * len(remote)
            # The client transfer and the block writes still scale.
            block_bytes = sum(
                config.scaled(size)
                for p in obj.stripes
                for nid, _bid, size, _crc in p.stored_blocks()
                if nid != coordinator.node_id
            )
            assert before_meta == config.scaled(len(small_file)) + block_bytes
            # The footer parse, then one encode share per written data block.
            blocks = [size for p in obj.stripes for size in p.data_sizes if size]
            assert len(charges) == 1 + len(blocks)
            assert charges[0] == len(obj.trailer_bytes) / coordinator.cpu_config.decode_bps
        (_s, small_data, _m, small), (_s, big_data, _m, big) = runs
        assert big[0] == small[0]
        assert big[1:] == pytest.approx([7000.0 * c for c in small[1:]])
        assert big_data == 7000 * small_data


class TestGet:
    def test_roundtrip(self, loaded_fusion, small_file):
        assert loaded_fusion.get("tbl") == small_file

    def test_unknown_object(self, loaded_fusion):
        with pytest.raises(ObjectNotFound):
            loaded_fusion.get("nope")


class TestQuery:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_reference(self, loaded_fusion, small_table, sql):
        result, metrics = loaded_fusion.query(sql)
        expected = execute_local(sql, small_table)
        assert result.equals(expected)
        assert metrics.latency > 0

    def test_adaptive_mixes_pushdown_and_fallback(self, small_file):
        store = _fresh_store(small_file)
        # Low selectivity on a diverse column: pushdown.
        _r, m1 = store.query("SELECT note FROM tbl WHERE id < 20")
        assert m1.pushed_down_chunks > 0
        # High selectivity on a highly-compressed column: fallback.
        _r, m2 = store.query("SELECT tag FROM tbl WHERE qty < 49")
        assert m2.fallback_chunks > 0

    def test_never_mode_always_fetches(self, small_file):
        store = _fresh_store(small_file, pushdown_mode=PushdownMode.NEVER)
        _r, m = store.query("SELECT note FROM tbl WHERE id < 20")
        assert m.pushed_down_chunks == 0
        assert m.fallback_chunks > 0

    def test_always_mode_always_pushes(self, small_file):
        store = _fresh_store(small_file, pushdown_mode=PushdownMode.ALWAYS)
        _r, m = store.query("SELECT tag FROM tbl WHERE qty < 49")
        assert m.fallback_chunks == 0
        assert m.pushed_down_chunks > 0

    def test_policy_results_identical(self, small_file, small_table):
        sql = "SELECT tag, note FROM tbl WHERE qty < 10"
        expected = execute_local(sql, small_table)
        for mode in PushdownMode:
            store = _fresh_store(small_file, pushdown_mode=mode)
            result, _ = store.query(sql)
            assert result.equals(expected), mode

    def test_zero_match_query(self, loaded_fusion, small_table):
        sql = "SELECT id FROM tbl WHERE qty < 0"
        result, metrics = loaded_fusion.query(sql)
        assert result.matched_rows == 0
        assert result.equals(execute_local(sql, small_table))
        # Stats pruning: no chunk ops at all.
        assert metrics.pushed_down_chunks == 0 and metrics.fallback_chunks == 0

    def test_pruning_skips_row_groups(self, loaded_fusion):
        _r, narrow = loaded_fusion.query("SELECT qty FROM tbl WHERE id < 10")
        _r, broad = loaded_fusion.query("SELECT qty FROM tbl WHERE qty < 100")
        assert narrow.network_bytes < broad.network_bytes

    def test_unknown_column_raises(self, loaded_fusion):
        from repro.sql import PlanError

        with pytest.raises(PlanError):
            loaded_fusion.query("SELECT missing FROM tbl")


class TestAggregatePushdown:
    AGG_QUERIES = [
        "SELECT count(*) FROM tbl WHERE qty < 10",
        "SELECT count(id), sum(price), avg(price) FROM tbl WHERE flag = true",
        "SELECT min(price), max(qty) FROM tbl WHERE id < 500",
        "SELECT avg(price) FROM tbl WHERE id < 0",  # empty selection
    ]

    @pytest.mark.parametrize("sql", AGG_QUERIES)
    def test_matches_reference(self, small_file, small_table, sql):
        store = _fresh_store(small_file, enable_aggregate_pushdown=True)
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, small_table))

    def test_reduces_network_traffic(self, small_file):
        sql = "SELECT sum(price), avg(price) FROM tbl WHERE qty < 40"
        on = _fresh_store(small_file, enable_aggregate_pushdown=True)
        off = _fresh_store(small_file, enable_aggregate_pushdown=False)
        _r, m_on = on.query(sql)
        _r, m_off = off.query(sql)
        assert m_on.network_bytes < m_off.network_bytes


class TestBitmapTokenisation:
    """No query path builds a bitmap frame: replies and requests are
    charged ``Bitmap.wire_size()``, a closed form over two counts."""

    #: sql, then network_bytes and latency as measured on the commit that
    #: introduced the container-chosen frame (the snappy-greedy form gave
    #: 1_838_300 / 1_624_100 / 654_100 / 568_000 bytes: the frame is
    #: smaller on sparse and clustered replies, larger on the periodic
    #: ``tag`` column an LZ window folds).  Pages use the pure-Python
    #: snappy codec, so no number depends on the host's zlib.  The second
    #: and third latencies were re-pinned by the declared model change of
    #: the streamed Put: the Put ends sooner, so the query starts earlier
    #: and ``end - start`` rounds differently in the last bits.
    CASES = [
        # 2 leaf replies + 1 combined bitmap per group.
        ("SELECT id, price, note FROM tbl WHERE qty < 10 AND day > 16500",
         1_832_600, 0.007167885000000002),
        # A lone leaf's reply *is* the row-group bitmap.
        ("SELECT id, price, note FROM tbl WHERE qty < 6",
         1_623_800, 0.0062956590000000055),
        ("SELECT tag, count(*), sum(price) FROM tbl WHERE tag LIKE '%-3' GROUP BY tag",
         692_500, 0.004156410000000003),
        # Pushed-down partial aggregates ship the bitmap too.
        ("SELECT sum(price), max(qty) FROM tbl WHERE note < 'note 5' AND tag IN ('tag-1', 'tag-2')",
         582_400, 0.006229938000000008),
    ]

    @staticmethod
    def _forbid_frames(monkeypatch):
        def unreachable(*_args, **_kwargs):
            raise AssertionError("a query path serialised a bitmap")

        monkeypatch.setattr(Bitmap, "to_wire", unreachable)
        monkeypatch.setattr(type(get_codec("snappy-greedy")), "compress", unreachable)

    @pytest.mark.parametrize("sql,net_bytes,latency", CASES)
    def test_calls_bounded_and_metrics_pinned(
        self, small_table, monkeypatch, sql, net_bytes, latency
    ):
        snappy_file = write_table(small_table, row_group_rows=500, codec="snappy")
        store = _fresh_store(snappy_file, enable_aggregate_pushdown=True)
        self._forbid_frames(monkeypatch)
        result, metrics = store.query(sql)
        assert result.equals(execute_local(sql, small_table))
        assert metrics.network_bytes == net_bytes
        assert metrics.end_time - metrics.start_time == latency

    def test_no_query_path_builds_a_frame(self, small_file, small_table, monkeypatch):
        # Every branch that prices a bitmap: filter, fused, projection and
        # partial-aggregate ops, healthy and with a holder down.
        self._forbid_frames(monkeypatch)
        for aggregate_pushdown in (False, True):
            store = _fresh_store(small_file, enable_aggregate_pushdown=aggregate_pushdown)
            for failed in (None, store.objects["tbl"].stripes[0].node_ids[0]):
                if failed is not None:
                    store.cluster.fail_node(failed)
                for sql in QUERIES:
                    result, _metrics = store.query(sql)
                    assert result.equals(execute_local(sql, small_table))


class TestFallbackToFixed:
    def _skewed_file(self):
        """One huge chunk among tiny ones blows the 2% overhead budget."""
        rng = np.random.default_rng(0)
        n = 4000
        big_strings = [
            "x" * int(v) for v in rng.integers(400, 600, size=n)
        ]
        table = Table.from_dict(
            {
                "k": (ColumnType.INT64, np.zeros(n, dtype=np.int64)),
                "pad": (ColumnType.STRING, big_strings),
            }
        )
        return write_table(table, row_group_rows=n, codec="none"), table

    def test_budget_violation_falls_back(self):
        data, _table = self._skewed_file()
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig())
        store = FusionStore(cl, StoreConfig(size_scale=10.0, storage_overhead_threshold=0.02))
        report = store.put("skewed", data)
        assert report.fallback
        assert report.strategy == "fixed-fallback"
        assert isinstance(store.objects["skewed"], StoredFixedObject)

    def test_fallback_object_still_queryable(self):
        data, table = self._skewed_file()
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig())
        store = FusionStore(cl, StoreConfig(size_scale=10.0, storage_overhead_threshold=0.02))
        store.put("skewed", data)
        sql = "SELECT k FROM skewed WHERE k = 0"
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, table))
        assert store.get("skewed") == data

    def test_generous_budget_keeps_fac(self):
        data, _table = self._skewed_file()
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig())
        store = FusionStore(cl, StoreConfig(size_scale=10.0, storage_overhead_threshold=5.0))
        report = store.put("skewed", data)
        assert not report.fallback


class TestRecovery:
    def _store_with_loss(self, small_file, num_nodes=12):
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig(num_nodes=num_nodes))
        store = FusionStore(cl, StoreConfig(size_scale=10.0, storage_overhead_threshold=0.1, block_size=2_000_000))
        store.put("tbl", small_file)
        obj = store.objects["tbl"]
        victim = obj.stripes[0].node_ids[0]
        for bid in list(cl.node(victim)._blocks):
            cl.node(victim).drop_block(bid)
        return store, victim

    def test_recovery_restores_data(self, small_file):
        store, victim = self._store_with_loss(small_file)
        assert RepairManager(store).repair_node(victim).blocks_repaired > 0
        assert store.get("tbl") == small_file

    def test_location_map_updated(self, small_file):
        store, victim = self._store_with_loss(small_file)
        # Down as well as empty: the lost blocks must leave the node.
        store.cluster.fail_node(victim, wipe=True)
        RepairManager(store).repair_node(victim)
        obj = store.objects["tbl"]
        assert victim not in {loc.node_id for loc in obj.location_map.entries.values()}

    def test_query_correct_after_recovery(self, small_file, small_table):
        store, victim = self._store_with_loss(small_file)
        RepairManager(store).repair_node(victim)
        sql = "SELECT id, price FROM tbl WHERE qty < 5"
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, small_table))

    def test_double_fault_within_tolerance(self, small_file):
        sim = Simulator()
        cl = Cluster(sim, ClusterConfig(num_nodes=12))
        store = FusionStore(cl, StoreConfig(size_scale=10.0, storage_overhead_threshold=0.1, block_size=2_000_000))
        store.put("tbl", small_file)
        obj = store.objects["tbl"]
        victims = obj.stripes[0].node_ids[:2]
        for v in victims:
            for bid in list(cl.node(v)._blocks):
                cl.node(v).drop_block(bid)
        for v in victims:
            RepairManager(store).repair_node(v)
        assert store.get("tbl") == small_file


class TestIntrospection:
    def test_chunk_nodes_helper(self, loaded_fusion):
        obj = loaded_fusion.objects["tbl"]
        assert len(obj.chunk_nodes) == len(obj.metadata.all_chunks())

    def test_object_plan(self, loaded_fusion):
        plan = loaded_fusion.object_plan("SELECT id FROM tbl WHERE qty < 3")
        assert plan.projection_columns == ["id"]

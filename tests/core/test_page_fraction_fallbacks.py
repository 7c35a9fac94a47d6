"""Focused tests for recently-added store paths: page-fraction costing,
fixed-layout object scrub/get/query routing, and fused-path degraded ops."""

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    DeadlineExceeded,
    QueryMetrics,
    Simulator,
)
from repro.core import FusionStore, StoreConfig
from repro.format import ColumnType, Table, write_table
from repro.sql import execute_local
from repro.sql.ast_nodes import CompareOp, Comparison
from repro.sql.planner import FilterOp
from tests.conftest import make_small_table


@pytest.fixture
def store_and_table():
    table = make_small_table(num_rows=4000, seed=71)
    data = write_table(table, row_group_rows=1000, page_values=200)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    store = FusionStore(
        cluster, StoreConfig(size_scale=50.0, storage_overhead_threshold=0.1)
    )
    store.put("tbl", data)
    return store, table


class TestPageFraction:
    def _op(self, store, column, literal):
        obj = store.objects["tbl"]
        meta = obj.metadata.chunk(0, column)
        type_ = obj.metadata.schema.field(column).type
        op = FilterOp(
            index=0, column=column, type=type_, leaf=Comparison(column, CompareOp.LT, literal)
        )
        loc = obj.location_map.lookup(meta.key)
        node = store.cluster.node(loc.node_id)
        data = node._blocks[loc.block_id][
            loc.offset_in_block : loc.offset_in_block + loc.size
        ]
        return obj, meta, op, data

    def test_sorted_column_prunes_pages(self, store_and_table):
        store, _table = store_and_table
        # id is sorted 0..3999; row group 0 holds 0..999 in 5 pages of 200.
        obj, meta, op, data = self._op(store, "id", 150)
        fraction = store._page_fraction("tbl", meta, op, data)
        assert fraction == pytest.approx(0.2)  # 1 of 5 pages

    def test_unselective_filter_keeps_all_pages(self, store_and_table):
        store, _table = store_and_table
        obj, meta, op, data = self._op(store, "id", 10**9)
        assert store._page_fraction("tbl", meta, op, data) == pytest.approx(1.0)

    def test_disabled_flag_returns_full(self, store_and_table):
        store, _table = store_and_table
        store.config.enable_page_skipping = False
        obj, meta, op, data = self._op(store, "id", 150)
        assert store._page_fraction("tbl", meta, op, data) == 1.0

    def test_fraction_cached(self, store_and_table):
        store, _table = store_and_table
        obj, meta, op, data = self._op(store, "id", 150)
        store._page_fraction("tbl", meta, op, data)
        assert ("tbl", meta.key) in store._page_index_cache


def _fixed_layout_store(**config):
    """A FusionStore holding one object whose FAC layout blows the
    storage budget, so it is coded in fixed blocks (paper Section 4.2)."""
    rng = np.random.default_rng(0)
    n = 2000
    table = Table.from_dict(
        {
            "k": (ColumnType.INT64, np.arange(n)),
            "pad": (ColumnType.STRING, ["x" * int(v) for v in rng.integers(300, 600, n)]),
        }
    )
    data = write_table(table, row_group_rows=n, codec="none")
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=9))
    store = FusionStore(
        cluster, StoreConfig(size_scale=10.0, storage_overhead_threshold=0.02, **config)
    )
    report = store.put("skewed", data)
    assert report.fallback and report.strategy == "fixed-fallback"
    return store, table, data


class TestFallbackObjectRouting:
    """Objects stored in the fixed-block layout must support the whole
    store API through the FusionStore, each operation done once."""

    @pytest.fixture
    def fixed_object(self):
        return _fixed_layout_store()

    def test_ranged_get(self, fixed_object):
        store, _table, data = fixed_object
        assert store.get("skewed", 100, 999) == data[100:1099]

    def test_scrub(self, fixed_object):
        store, _table, _data = fixed_object
        report = store.verify_object("skewed")
        assert report.clean

    def test_grouped_query(self, fixed_object):
        store, table, _data = fixed_object
        sql = "SELECT count(*) FROM skewed WHERE k < 500 GROUP BY k LIMIT 5"
        result, _ = store.query(sql)
        assert result.equals(execute_local(sql, table))

    def test_expired_get_counts_one_deadline(self, fixed_object):
        store, _table, _data = fixed_object
        store.config.default_deadline_s = 1e-6
        metrics = QueryMetrics()
        store.sim.process(store.get_process("skewed", metrics))
        with pytest.raises(DeadlineExceeded):
            store.sim.run()
        assert metrics.deadline_exceeded == 1

    def test_each_operation_opens_one_fusion_span(self):
        store, _table, _data = _fixed_layout_store(tracing_enabled=True)
        tracer = store.sim.tracer
        seen = 0

        def store_spans():
            nonlocal seen
            spans = [s for s in list(tracer.spans)[seen:] if "store" in s.args]
            seen = len(tracer.spans)
            return [(s.name, s.args["store"], s.parent_id) for s in spans]

        assert store_spans() == [("put", "fusion", None)]
        store.get("skewed")
        assert store_spans() == [("get", "fusion", None)]
        store.query("SELECT k FROM skewed WHERE k < 5")
        assert store_spans() == [("query", "fusion", None)]
        store.verify_object("skewed")
        assert store_spans() == [("scrub", "fusion", None)]

    def test_tenant_query_is_admitted_once(self):
        store, _table, _data = _fixed_layout_store(tenant_weights={"t1": 1.0})
        store.query("SELECT k FROM skewed WHERE k < 5", tenant="t1")
        assert store.cluster.qos.stats["t1"]["admitted"] == 1


class TestDegradedFusedPath:
    def test_fused_query_degraded_counts_fallback(self, store_and_table):
        store, table = store_and_table
        sql = "SELECT price FROM tbl WHERE price < 5.0"
        obj = store.objects["tbl"]
        victim = obj.location_map.lookup(obj.metadata.chunk(0, "price").key).node_id
        store.cluster.fail_node(victim)
        result, metrics = store.query(sql)
        assert result.equals(execute_local(sql, table))
        assert metrics.fallback_chunks > 0  # degraded chunks processed at coord

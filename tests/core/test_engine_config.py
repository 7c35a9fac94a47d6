"""Shared engine helpers, store config, and the location map."""

import numpy as np
import pytest

from repro.core import ChunkLocation, LocationMap, StoreConfig
from repro.core.engine import (
    assemble_result,
    needed_columns,
    prune_row_groups,
    result_wire_bytes,
)
from repro.format import ColumnType, PaxFile, write_table
from repro.format.table import plain_size
from repro.sql import parse, plan


@pytest.fixture(scope="module")
def meta_and_plan(small_file):
    metadata = PaxFile(small_file).metadata
    return metadata


class TestPruneRowGroups:
    def test_sorted_column_prunes(self, small_file):
        metadata = PaxFile(small_file).metadata
        physical = plan(parse("SELECT qty FROM tbl WHERE id < 10"), metadata.schema)
        survivors = prune_row_groups(physical, metadata)
        assert survivors == [0]  # id is sorted; only the first row group

    def test_unsorted_column_keeps_all(self, small_file):
        metadata = PaxFile(small_file).metadata
        physical = plan(parse("SELECT id FROM tbl WHERE qty < 100"), metadata.schema)
        assert prune_row_groups(physical, metadata) == [rg.index for rg in metadata.row_groups]

    def test_no_where_keeps_all(self, small_file):
        metadata = PaxFile(small_file).metadata
        physical = plan(parse("SELECT id FROM tbl"), metadata.schema)
        assert len(prune_row_groups(physical, metadata)) == metadata.num_row_groups

    def test_impossible_predicate_prunes_everything(self, small_file):
        metadata = PaxFile(small_file).metadata
        physical = plan(parse("SELECT id FROM tbl WHERE qty < 0"), metadata.schema)
        assert prune_row_groups(physical, metadata) == []

    def test_or_keeps_union(self, small_file):
        metadata = PaxFile(small_file).metadata
        physical = plan(
            parse("SELECT id FROM tbl WHERE id < 10 OR id > 1990"), metadata.schema
        )
        survivors = prune_row_groups(physical, metadata)
        assert 0 in survivors and (metadata.num_row_groups - 1) in survivors


class TestAssembleResult:
    def test_row_group_order_preserved(self, small_file, small_table):
        metadata = PaxFile(small_file).metadata
        physical = plan(parse("SELECT id FROM tbl WHERE id < 10000"), metadata.schema)
        rgs = [rg.index for rg in metadata.row_groups]
        selected = {}
        projected = {}
        for rg in rgs:
            rows = metadata.row_groups[rg].num_rows
            mask = np.zeros(rows, dtype=bool)
            mask[:2] = True
            selected[rg] = mask
            start = rg * 500
            projected[(rg, "id")] = small_table["id"][start : start + 2]
        result = assemble_result(physical, metadata, rgs, selected, projected)
        assert result.matched_rows == 2 * len(rgs)
        assert result.rows["id"].tolist() == sorted(result.rows["id"].tolist())

    def test_aggregate_assembly(self, small_file, small_table):
        metadata = PaxFile(small_file).metadata
        physical = plan(parse("SELECT count(*), sum(qty) FROM tbl"), metadata.schema)
        rgs = [0]
        mask = np.ones(500, dtype=bool)
        result = assemble_result(
            physical, metadata, rgs, {0: mask}, {(0, "qty"): small_table["qty"][:500]}
        )
        assert result.aggregates[0] == 500
        assert result.aggregates[1] == int(small_table["qty"][:500].sum())


class TestByteHelpers:
    def test_result_wire_bytes_rows(self, small_table):
        from repro.sql import execute_local

        r = execute_local("SELECT id FROM t WHERE id < 100", small_table)
        assert result_wire_bytes(r) == 8 * 100

    def test_result_wire_bytes_aggregates(self, small_table):
        from repro.sql import execute_local

        r = execute_local("SELECT count(*) FROM t", small_table)
        assert result_wire_bytes(r) == 64

    def test_plain_size_of_selected_values(self):
        arr = np.arange(10, dtype=np.int64)
        assert plain_size(ColumnType.INT64, arr) == 80
        strs = np.array(["ab", "c"], dtype=object)
        assert plain_size(ColumnType.STRING, strs) == 11

    def test_needed_columns_order(self, small_file):
        metadata = PaxFile(small_file).metadata
        query = parse("SELECT price, id FROM tbl WHERE qty < 3 AND id > 0")
        physical = plan(query, metadata.schema)
        assert needed_columns(physical, query) == ["qty", "id", "price"]


class TestStoreConfig:
    def test_real_block_size(self):
        cfg = StoreConfig(block_size=100 * 1024 * 1024, size_scale=1000.0)
        assert cfg.real_block_size == 104_858
        assert cfg.real_block_size >= 1

    def test_scaled(self):
        cfg = StoreConfig(size_scale=2.5)
        assert cfg.scaled(100) == 250

    def test_defaults_match_paper(self):
        cfg = StoreConfig()
        assert cfg.code.n == 9 and cfg.code.k == 6
        assert cfg.block_size == 100 * 1024 * 1024
        assert cfg.storage_overhead_threshold == pytest.approx(0.02)


class TestLocationMap:
    def _loc(self, key=(0, 0), node=1):
        return ChunkLocation(
            chunk_key=key, node_id=node, block_id="b", offset_in_block=0, size=10
        )

    def test_add_lookup(self):
        m = LocationMap(object_name="o")
        m.add(self._loc())
        assert m.lookup((0, 0)).node_id == 1
        assert len(m) == 1

    def test_duplicate_raises(self):
        m = LocationMap(object_name="o")
        m.add(self._loc())
        with pytest.raises(ValueError, match="duplicate"):
            m.add(self._loc())

    def test_missing_lookup_raises(self):
        with pytest.raises(KeyError, match="no chunk"):
            LocationMap(object_name="o").lookup((9, 9))

    def test_wire_size_paper_entry_cost(self):
        m = LocationMap(object_name="o")
        for i in range(5):
            m.add(self._loc(key=(0, i)))
        assert m.wire_size == 40  # 8 bytes per entry (paper Section 5)

    def test_nodes_used(self):
        m = LocationMap(object_name="o")
        m.add(self._loc(key=(0, 0), node=1))
        m.add(self._loc(key=(0, 1), node=4))
        assert m.nodes_used() == {1, 4}

"""Planner validation and the local reference executor."""

import numpy as np
import pytest

from repro.sql import PlanError, execute_local, parse, plan


class TestPlanner:
    def test_filter_ops_one_per_leaf(self, small_table):
        q = parse("SELECT id FROM t WHERE qty < 5 AND price > 1 AND qty > 2")
        p = plan(q, small_table.schema)
        assert [op.column for op in p.filter_ops] == ["qty", "price", "qty"]
        assert [op.index for op in p.filter_ops] == [0, 1, 2]

    def test_projection_includes_aggregate_inputs(self, small_table):
        q = parse("SELECT avg(price), sum(qty) FROM t")
        p = plan(q, small_table.schema)
        assert p.projection_columns == ["price", "qty"]

    def test_select_star_expands(self, small_table):
        p = plan(parse("SELECT * FROM t"), small_table.schema)
        assert p.projection_columns == small_table.schema.names()

    def test_unknown_projection_column(self, small_table):
        with pytest.raises(PlanError, match="projection"):
            plan(parse("SELECT nope FROM t"), small_table.schema)

    def test_unknown_filter_column(self, small_table):
        with pytest.raises(PlanError, match="filter"):
            plan(parse("SELECT id FROM t WHERE nope = 1"), small_table.schema)

    def test_type_mismatch_rejected_at_plan_time(self, small_table):
        with pytest.raises(PlanError):
            plan(parse("SELECT id FROM t WHERE qty = 'five'"), small_table.schema)
        with pytest.raises(PlanError):
            plan(parse("SELECT id FROM t WHERE tag < 5"), small_table.schema)
        with pytest.raises(PlanError):
            plan(parse("SELECT id FROM t WHERE qty BETWEEN 1 AND 'x'"), small_table.schema)

    def test_mixed_plain_and_aggregate_rejected(self, small_table):
        with pytest.raises(PlanError, match="GROUP BY"):
            plan(parse("SELECT id, count(*) FROM t"), small_table.schema)

    def test_combine_bitmaps_no_where(self, small_table):
        p = plan(parse("SELECT id FROM t"), small_table.schema)
        assert p.combine_bitmaps([], 5).all()


class TestExecuteLocal:
    def test_filter_and_project(self, small_table):
        result = execute_local("SELECT id, qty FROM t WHERE id < 10", small_table)
        assert result.matched_rows == 10
        assert result.rows["id"].tolist() == list(range(10))
        assert result.columns == ["id", "qty"]

    def test_no_where_returns_all(self, small_table):
        result = execute_local("SELECT id FROM t", small_table)
        assert result.matched_rows == small_table.num_rows

    def test_date_filter(self, small_table):
        result = execute_local("SELECT id FROM t WHERE day < '2013-11-01'", small_table)
        from repro.sql import date_to_days

        expected = int((small_table["day"] < date_to_days("2013-11-01")).sum())
        assert result.matched_rows == expected

    def test_bool_filter(self, small_table):
        result = execute_local("SELECT id FROM t WHERE flag = true", small_table)
        assert result.matched_rows == int(small_table["flag"].sum())

    def test_aggregates(self, small_table):
        result = execute_local(
            "SELECT count(*), avg(price), min(qty), max(qty) FROM t WHERE id < 100",
            small_table,
        )
        segment_price = small_table["price"][:100]
        segment_qty = small_table["qty"][:100]
        assert result.aggregates[0] == 100
        assert result.aggregates[1] == pytest.approx(segment_price.mean())
        assert result.aggregates[2] == segment_qty.min()
        assert result.aggregates[3] == segment_qty.max()
        assert result.rows is None

    def test_aggregate_over_empty_selection(self, small_table):
        result = execute_local("SELECT avg(price) FROM t WHERE id < 0", small_table)
        assert result.aggregates == [None]
        assert result.matched_rows == 0

    def test_in_and_between(self, small_table):
        result = execute_local(
            "SELECT id FROM t WHERE tag IN ('tag-1', 'tag-2') AND id BETWEEN 0 AND 13",
            small_table,
        )
        assert result.rows["id"].tolist() == [1, 2, 8, 9]

    def test_or_and_not(self, small_table):
        result = execute_local(
            "SELECT id FROM t WHERE id = 1 OR (NOT id > 3 AND flag = false)", small_table
        )
        mask = (small_table["id"] == 1) | (
            ~(small_table["id"] > 3) & ~small_table["flag"]
        )
        assert result.matched_rows == int(mask.sum())

    def test_selectivity(self, small_table):
        result = execute_local("SELECT id FROM t WHERE id < 200", small_table)
        assert result.selectivity == pytest.approx(0.1)

    def test_result_equality_helper(self, small_table):
        a = execute_local("SELECT id FROM t WHERE id < 5", small_table)
        b = execute_local("SELECT id FROM t WHERE id < 5", small_table)
        c = execute_local("SELECT id FROM t WHERE id < 6", small_table)
        assert a.equals(b)
        assert not a.equals(c)

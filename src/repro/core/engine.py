"""Query-execution helpers shared by the Fusion and baseline stores.

Both stores follow the same logical steps — plan, prune row groups by
footer stats, produce per-row-group bitmaps, materialise projections,
assemble the result — and differ only in *where* the work runs.  The
shared steps live here.
"""

from __future__ import annotations

import numpy as np

from repro.format.metadata import FileMetadata
from repro.format.schema import ColumnType, Field
from repro.format.table import Column, Table
from repro.sql.aggregates import compute_aggregate
from repro.sql.ast_nodes import Aggregate, Query
from repro.sql.local import QueryResult
from repro.sql.planner import PhysicalPlan
from repro.sql.predicate import tree_may_match


def prune_row_groups(plan: PhysicalPlan, metadata: FileMetadata) -> list[int]:
    """Row groups that may contain matches, by footer min/max stats.

    This is the coarse-grained filtering both systems apply before any
    I/O (paper Section 5).  With no WHERE clause every row group survives.
    """
    if plan.where is None:
        return [rg.index for rg in metadata.row_groups]
    survivors = []
    for rg in metadata.row_groups:
        def stats_of(column: str, _rg=rg):
            meta = _rg.column(column)
            return meta.stats.min_value, meta.stats.max_value

        def type_of(column: str) -> ColumnType:
            return plan.schema.field(column).type

        if tree_may_match(plan.where, type_of, stats_of):
            survivors.append(rg.index)
    return survivors


def assemble_result(
    plan: PhysicalPlan,
    metadata: FileMetadata,
    row_groups: list[int],
    rg_selected: dict[int, np.ndarray],
    rg_projected: dict[tuple[int, str], np.ndarray],
) -> QueryResult:
    """Build the final :class:`QueryResult` from per-row-group pieces.

    ``rg_selected[rg]`` is the final boolean bitmap for row group ``rg``;
    ``rg_projected[(rg, column)]`` holds the already-selected values of a
    projection column in that row group.  Row groups absent from
    ``row_groups`` (pruned) count as all-false.
    """
    matched = sum(int(rg_selected[rg].sum()) for rg in row_groups)
    total_rows = metadata.num_rows
    query = plan.query

    if query.group_by:
        from repro.sql.grouping import evaluate_group_by, grouped_needed_types

        needed = grouped_needed_types(query, plan.schema)
        filtered = {
            name: _concat_column(
                plan.schema.field(name).type,
                [rg_projected[(rg, name)] for rg in row_groups],
            )
            for name in needed
        }
        grouped = evaluate_group_by(query, needed, filtered)
        from repro.sql.local import _apply_limit

        grouped = _apply_limit(grouped, query.limit)
        return QueryResult(
            columns=grouped.schema.names(),
            rows=grouped,
            aggregates=None,
            matched_rows=matched,
            total_rows=total_rows,
        )

    if query.has_aggregates():
        aggregates = []
        for item in query.select:
            assert isinstance(item, Aggregate)
            if item.column is None:
                values = None
            else:
                values = _concat_column(
                    plan.schema.field(item.column).type,
                    [rg_projected[(rg, item.column)] for rg in row_groups],
                )
            aggregates.append(compute_aggregate(item, values, matched))
        labels = [f"{i.func.value}({i.column or '*'})" for i in query.select]  # type: ignore[union-attr]
        return QueryResult(
            columns=labels,
            rows=None,
            aggregates=aggregates,
            matched_rows=matched,
            total_rows=total_rows,
        )

    names = plan.projection_columns
    columns = []
    for name in names:
        type_ = plan.schema.field(name).type
        values = _concat_column(type_, [rg_projected[(rg, name)] for rg in row_groups])
        columns.append(Column(Field(name, type_), values))
    rows = Table(columns) if columns else None
    if rows is not None and query.limit is not None:
        from repro.sql.local import _apply_limit

        rows = _apply_limit(rows, query.limit)
    return QueryResult(
        columns=names,
        rows=rows,
        aggregates=None,
        matched_rows=matched,
        total_rows=total_rows,
    )


def _concat_column(type_: ColumnType, parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=type_.numpy_dtype or object)
    return np.concatenate(parts)


def result_wire_bytes(result: QueryResult) -> int:
    """Real bytes to ship the final result back to the client."""
    if result.aggregates is not None:
        return 64 * max(1, len(result.aggregates))
    if result.rows is None:
        return 64
    return sum(col.plain_size() for col in result.rows.columns)


def needed_columns(plan: PhysicalPlan, query: Query) -> list[str]:
    """All columns a store must touch: filter plus projection columns."""
    out: list[str] = []
    for op in plan.filter_ops:
        if op.column not in out:
            out.append(op.column)
    for name in plan.projection_columns:
        if name not in out:
            out.append(name)
    return out

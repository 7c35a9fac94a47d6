"""GROUP BY evaluation.

Grouping always runs at the coordinator (or locally in the reference
executor) over already-filtered projected values: group keys are hashed to
group ids, each aggregate is evaluated per group, and groups are emitted
in ascending key order so results are deterministic and comparable.
"""

from __future__ import annotations

import numpy as np

from repro.format.schema import ColumnType, Field
from repro.format.table import Column, Table
from repro.sql.aggregates import compute_aggregate
from repro.sql.ast_nodes import Aggregate, AggregateFunc, ColumnRef, Query, SelectItem


def aggregate_label(agg: Aggregate) -> str:
    """The output column name for an aggregate, e.g. ``avg(fare)``."""
    return f"{agg.func.value}({agg.column or '*'})"


def aggregate_output_type(agg: Aggregate, input_type: ColumnType | None) -> ColumnType:
    """Result column type for an aggregate over ``input_type``."""
    if agg.func is AggregateFunc.COUNT:
        return ColumnType.INT64
    if agg.func is AggregateFunc.AVG:
        return ColumnType.DOUBLE
    if input_type is None:
        raise ValueError(f"{aggregate_label(agg)} needs an input column type")
    # SUM/MIN/MAX keep the input domain (SUM over dates is disallowed by
    # planning; over ints stays int, over doubles stays double).
    return input_type


def evaluate_group_by(
    query: Query,
    key_types: dict[str, ColumnType],
    columns: dict[str, np.ndarray],
) -> Table:
    """Group filtered rows and evaluate the SELECT list per group.

    ``columns`` maps every needed column (group keys and aggregate inputs)
    to its already-filtered value array; all arrays have equal length.
    Returns a table with one row per group, ordered by the key tuple.
    """
    keys = list(query.group_by)
    if not keys:
        raise ValueError("evaluate_group_by requires a GROUP BY query")
    num_rows = len(next(iter(columns.values()))) if columns else 0

    # Dense group ids: factorise each key column and fold its codes into
    # the ids so far, re-densifying every time so the product cannot
    # overflow.  equal_nan=False keeps every NaN key a group of its own,
    # as a dict keyed on the key tuples would.
    row_gid = np.zeros(num_rows, dtype=np.intp)
    for name in keys:
        uniq, codes = np.unique(columns[name], return_inverse=True, equal_nan=False)
        _, first_rows, row_gid = np.unique(
            row_gid * len(uniq) + codes, return_index=True, return_inverse=True
        )
    # One stable argsort lists each group's rows in ascending row order.
    rows_of = np.split(
        np.argsort(row_gid, kind="stable"), np.cumsum(np.bincount(row_gid))[:-1]
    )

    # Emit groups in ascending key-tuple order.  The ids are already in
    # that order unless a key is NaN (which has no order); sorting the
    # tuples, listed by first appearance, is exact in both cases and is
    # one C sort over the groups, not the rows.
    seen = np.argsort(first_rows)
    tuples = list(zip(*(columns[name][first_rows[seen]].tolist() for name in keys)))
    emit = seen[sorted(range(len(tuples)), key=tuples.__getitem__)]
    first_rows = first_rows[emit]
    rows_per_group = [rows_of[gid] for gid in emit]

    out_columns: list[Column] = []
    for item in query.select:
        if isinstance(item, ColumnRef):
            type_ = key_types[item.name]
            out_columns.append(Column(Field(item.name, type_), columns[item.name][first_rows]))
        else:
            results = []
            for rows in rows_per_group:
                values = columns[item.column][rows] if item.column is not None else None
                results.append(compute_aggregate(item, values, int(len(rows))))
            out_type = aggregate_output_type(
                item, key_types.get(item.column) if item.column else None
            )
            out_columns.append(
                Column(Field(aggregate_label(item), out_type), _column_of(out_type, results))
            )
    return Table(out_columns) if out_columns else Table([])


def _column_of(type_: ColumnType, values: list) -> np.ndarray:
    if type_ is ColumnType.STRING:
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            arr[i] = v
        return arr
    dtype = type_.numpy_dtype
    return np.asarray(values, dtype=dtype)


def grouped_needed_types(query: Query, schema) -> dict[str, ColumnType]:
    """Types of every column the grouping stage touches."""
    out: dict[str, ColumnType] = {}
    for name in query.group_by:
        out[name] = schema.field(name).type
    for item in query.select:
        if isinstance(item, Aggregate) and item.column is not None:
            out[item.column] = schema.field(item.column).type
    return out

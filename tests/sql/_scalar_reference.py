"""Row-at-a-time reference kernels, kept only as test oracles.

These are the implementations ``src/`` ran before the warm query path was
vectorised: generator compares for string predicates, ``LIKE`` through
``fnmatch``, a dict loop for GROUP BY and a per-value byte sum.  Both
stores and :func:`repro.sql.execute_local` share the production kernels,
so comparing them with each other cannot catch a wrong kernel; the
differential tests compare against these instead.
"""

from __future__ import annotations

import fnmatch
import re

import numpy as np

from repro.format.schema import ColumnType, Field
from repro.format.table import Column, Table
from repro.sql.aggregates import compute_aggregate
from repro.sql.ast_nodes import Between, ColumnRef, CompareOp, Comparison, InList, Like, Query
from repro.sql.grouping import aggregate_label, aggregate_output_type

_SCALAR_OPS = {
    CompareOp.EQ: lambda v, lit: v == lit,
    CompareOp.NE: lambda v, lit: v != lit,
    CompareOp.LT: lambda v, lit: v < lit,
    CompareOp.LE: lambda v, lit: v <= lit,
    CompareOp.GT: lambda v, lit: v > lit,
    CompareOp.GE: lambda v, lit: v >= lit,
}


def _per_row(test, values) -> np.ndarray:
    return np.fromiter((test(v) for v in values), dtype=np.bool_, count=len(values))


def like_regex(pattern: str) -> re.Pattern:
    """SQL wildcards (%, _) via fnmatch, its own metacharacters neutralised."""
    glob = (
        pattern.replace("[", "[[]")
        .replace("*", "[*]")
        .replace("?", "[?]")
        .replace("%", "*")
        .replace("_", "?")
    )
    return re.compile(fnmatch.translate(glob))


def eval_string_leaf(leaf, values: np.ndarray) -> np.ndarray:
    """One leaf predicate over a string chunk, one Python call per row."""
    if isinstance(leaf, Comparison):
        fn = _SCALAR_OPS[leaf.op]
        return _per_row(lambda v: fn(v, leaf.value), values)
    if isinstance(leaf, Between):
        return _per_row(lambda v: leaf.low <= v <= leaf.high, values)
    if isinstance(leaf, InList):
        wanted = set(leaf.values)
        return _per_row(lambda v: v in wanted, values)
    if isinstance(leaf, Like):
        regex = like_regex(leaf.pattern)
        return _per_row(lambda v: regex.match(v) is not None, values)
    raise TypeError(f"not a leaf predicate: {leaf!r}")


def plain_string_bytes(values) -> int:
    """Length-prefixed UTF-8 size, one ``encode`` per value."""
    return sum(4 + len(v.encode("utf-8")) for v in values)


def evaluate_group_by(
    query: Query,
    key_types: dict[str, ColumnType],
    columns: dict[str, np.ndarray],
) -> Table:
    """GROUP BY with a per-row dict of key tuples and a per-group row scan."""
    keys = list(query.group_by)
    num_rows = len(next(iter(columns.values()))) if columns else 0

    group_of: dict[tuple, int] = {}
    row_gid = np.empty(num_rows, dtype=np.int64)
    for i in range(num_rows):
        key = tuple(columns[k][i] for k in keys)
        gid = group_of.get(key)
        if gid is None:
            gid = len(group_of)
            group_of[key] = gid
        row_gid[i] = gid
    ordered_keys = sorted(group_of)
    order = {group_of[key]: rank for rank, key in enumerate(ordered_keys)}

    rows_per_group: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(ordered_keys)
    for gid, rank in order.items():
        rows_per_group[rank] = np.flatnonzero(row_gid == gid)

    out_columns: list[Column] = []
    for item in query.select:
        if isinstance(item, ColumnRef):
            type_ = key_types[item.name]
            values = _column_of(type_, [columns[item.name][rows[0]] for rows in rows_per_group])
            out_columns.append(Column(Field(item.name, type_), values))
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
    return Table(out_columns)


def _column_of(type_: ColumnType, values: list) -> np.ndarray:
    if type_ is ColumnType.STRING:
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            arr[i] = v
        return arr
    return np.asarray(values, dtype=type_.numpy_dtype)

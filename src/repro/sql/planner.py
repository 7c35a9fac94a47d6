"""Query planning: decompose a parsed query into pushdown units.

The plan mirrors the paper's two-stage execution:

* **filter ops** — one per predicate leaf; each targets a single column
  and can run against one column chunk on a storage node, returning a
  bitmap.
* **projection columns** — the columns whose matching values must be
  materialised (SELECT columns plus aggregate inputs), each of which is a
  per-chunk pushdown decision for the cost model.

Plans also validate column references and literal types against the file
schema at plan time, so execution failures surface early.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.format.schema import ColumnType, Schema
from repro.sql.ast_nodes import (
    Aggregate,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Like,
    Predicate,
    Query,
    leaves,
)
from repro.sql.predicate import coerce_literal, combine_leaf_bitmaps


class PlanError(Exception):
    """Raised when a query cannot be planned against a schema."""


@dataclass(frozen=True)
class FilterOp:
    """One filter-pushdown unit: a leaf predicate on one column."""

    index: int  # position in leaves() order
    column: str
    type: ColumnType
    leaf: Comparison | Between | InList


@dataclass
class PhysicalPlan:
    """A validated, decomposed query ready for distributed execution."""

    query: Query
    schema: Schema
    filter_ops: list[FilterOp]
    projection_columns: list[str]

    @property
    def where(self) -> Predicate | None:
        return self.query.where

    def combine_bitmaps(self, leaf_bitmaps: list[np.ndarray], num_rows: int) -> np.ndarray:
        """Consolidate per-leaf bitmaps (leaves order) into the final bitmap."""
        if self.where is None:
            return np.ones(num_rows, dtype=np.bool_)
        return combine_leaf_bitmaps(self.where, leaf_bitmaps)

    def aggregates(self) -> list[Aggregate]:
        return self.query.aggregates()


def plan(query: Query, schema: Schema) -> PhysicalPlan:
    """Validate ``query`` against ``schema`` and build its physical plan."""
    if query.group_by:
        _validate_group_by(query, schema)
        # Execution must materialise the group keys and aggregate inputs.
        projection = list(query.group_by)
        for name in query.projection_columns():
            if name not in projection:
                projection.append(name)
    else:
        if query.has_aggregates() and any(isinstance(i, ColumnRef) for i in query.select):
            raise PlanError("cannot mix plain columns and aggregates without GROUP BY")
        projection = query.projection_columns()
        if projection == ["*"]:
            projection = schema.names()

    for name in projection:
        if name not in schema:
            raise PlanError(f"unknown projection column {name!r}")

    filter_ops: list[FilterOp] = []
    if query.where is not None:
        for idx, leaf in enumerate(leaves(query.where)):
            if leaf.column not in schema:
                raise PlanError(f"unknown filter column {leaf.column!r}")
            type_ = schema.field(leaf.column).type
            _validate_leaf_literals(leaf, type_)
            filter_ops.append(FilterOp(index=idx, column=leaf.column, type=type_, leaf=leaf))

    return PhysicalPlan(
        query=query,
        schema=schema,
        filter_ops=filter_ops,
        projection_columns=projection,
    )


def _validate_group_by(query: Query, schema: Schema) -> None:
    from repro.sql.ast_nodes import AggregateFunc

    for name in query.group_by:
        if name not in schema:
            raise PlanError(f"unknown GROUP BY column {name!r}")
    for item in query.select:
        if isinstance(item, ColumnRef):
            if item.name == "*":
                raise PlanError("SELECT * is not allowed with GROUP BY")
            if item.name not in query.group_by:
                raise PlanError(
                    f"column {item.name!r} must appear in GROUP BY or an aggregate"
                )
        else:
            if item.column is not None:
                if item.column not in schema:
                    raise PlanError(f"unknown aggregate column {item.column!r}")
                type_ = schema.field(item.column).type
                if item.func in (AggregateFunc.SUM, AggregateFunc.AVG) and type_ in (
                    ColumnType.STRING,
                    ColumnType.BOOL,
                ):
                    raise PlanError(
                        f"cannot {item.func.value.upper()} a {type_.value} column"
                    )


def _validate_leaf_literals(leaf: Comparison | Between | InList, type_: ColumnType) -> None:
    """Type-check leaf literals at plan time (raises PlanError)."""
    from repro.sql.predicate import PredicateTypeError

    try:
        if isinstance(leaf, Comparison):
            coerce_literal(type_, leaf.value)
        elif isinstance(leaf, Between):
            coerce_literal(type_, leaf.low)
            coerce_literal(type_, leaf.high)
        elif isinstance(leaf, InList):
            for v in leaf.values:
                coerce_literal(type_, v)
        elif isinstance(leaf, Like):
            if type_ is not ColumnType.STRING:
                raise PlanError(
                    f"LIKE applies to string columns, not {type_.value}"
                )
    except PredicateTypeError as exc:
        raise PlanError(str(exc)) from exc

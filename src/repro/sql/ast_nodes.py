"""Abstract syntax tree for the supported SQL subset.

Fusion supports S3-Select-style queries (paper Section 5): ``SELECT``
projections and aggregates over one table with a ``WHERE`` clause of
comparisons combined by AND/OR/NOT, plus BETWEEN and IN.  Joins are out of
scope by design (the paper excludes them).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class CompareOp(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


Literal = Union[int, float, str, bool]


@dataclass(frozen=True)
class Comparison:
    """A leaf predicate ``column OP literal``.

    Leaves reference exactly one column, which makes them the unit of
    filter pushdown: one leaf runs against one column chunk and yields one
    bitmap.
    """

    column: str
    op: CompareOp
    value: Literal

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class Between:
    """``column BETWEEN low AND high`` (inclusive on both ends)."""

    column: str
    low: Literal
    high: Literal

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class InList:
    """``column IN (v1, v2, ...)``."""

    column: str
    values: tuple[Literal, ...]

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class Like:
    """``column LIKE pattern`` with ``%`` (any run) and ``_`` (any char).

    Only meaningful on string columns.  A pattern with a literal prefix
    (before the first wildcard) supports min/max stats pruning.
    """

    column: str
    pattern: str

    def columns(self) -> set[str]:
        return {self.column}

    @property
    def literal_prefix(self) -> str:
        """The pattern's leading literal part (empty if it starts with a
        wildcard)."""
        for i, ch in enumerate(self.pattern):
            if ch in "%_":
                return self.pattern[:i]
        return self.pattern


@dataclass(frozen=True)
class And:
    """Logical conjunction of two predicates."""

    left: "Predicate"
    right: "Predicate"

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Or:
    """Logical disjunction of two predicates."""

    left: "Predicate"
    right: "Predicate"

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Not:
    """Logical negation of a predicate."""

    operand: "Predicate"

    def columns(self) -> set[str]:
        return self.operand.columns()


Predicate = Union[Comparison, Between, InList, Like, And, Or, Not]

#: Leaf predicate types (single-column, pushdown-able).
LEAF_TYPES = (Comparison, Between, InList, Like)


class AggregateFunc(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class ColumnRef:
    """A plain projected column in the SELECT list."""

    name: str


@dataclass(frozen=True)
class Aggregate:
    """An aggregate in the SELECT list; ``column`` is None for COUNT(*)."""

    func: AggregateFunc
    column: str | None

    def __post_init__(self) -> None:
        if self.column is None and self.func is not AggregateFunc.COUNT:
            raise ValueError(f"{self.func.value.upper()}(*) is not supported")


SelectItem = Union[ColumnRef, Aggregate]


@dataclass(frozen=True)
class Query:
    """A parsed ``SELECT ... FROM ... [WHERE] [GROUP BY] [LIMIT]`` statement."""

    select: tuple[SelectItem, ...]
    table: str
    where: Predicate | None
    group_by: tuple[str, ...] = ()
    limit: int | None = None

    def projection_columns(self) -> list[str]:
        """Columns whose values must be materialised for the SELECT list,
        in first-mention order."""
        out: list[str] = []
        for item in self.select:
            name = item.name if isinstance(item, ColumnRef) else item.column
            if name is not None and name not in out:
                out.append(name)
        return out

    def aggregates(self) -> list[Aggregate]:
        return [i for i in self.select if isinstance(i, Aggregate)]

    def has_aggregates(self) -> bool:
        return any(isinstance(i, Aggregate) for i in self.select)


def leaves(pred: Predicate) -> list["Comparison | Between | InList | Like"]:
    """All leaf predicates of a tree in left-to-right order."""
    if isinstance(pred, LEAF_TYPES):
        return [pred]
    if isinstance(pred, Not):
        return leaves(pred.operand)
    if isinstance(pred, (And, Or)):
        return leaves(pred.left) + leaves(pred.right)
    raise TypeError(f"unknown predicate node {pred!r}")

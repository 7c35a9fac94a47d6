"""Predicate evaluation and stats-based pruning.

Two evaluation modes:

* :func:`eval_leaf` — run one leaf predicate against a decoded column
  chunk, producing a boolean match vector.  This is exactly the work a
  storage node does during filter pushdown, and the paper's
  microbenchmark issues it on every column, strings included: every
  operator but ``LIKE`` is one numpy ufunc pass, and ``LIKE`` is one C
  call per value.
* :func:`leaf_may_match` — interval reasoning against footer min/max
  stats, used by the coordinator to skip row groups (the paper's
  coarse-grained filtering optimisation, present in both Fusion and the
  baseline).
"""

from __future__ import annotations

import functools
import itertools
import operator
import re

import numpy as np

from repro.format.schema import ColumnType
from repro.sql.ast_nodes import (
    And,
    Between,
    CompareOp,
    Comparison,
    InList,
    Like,
    Literal,
    Not,
    Or,
    Predicate,
)
from repro.sql.dates import date_to_days


class PredicateTypeError(Exception):
    """Raised when a literal cannot be compared against a column's type."""


def coerce_literal(type_: ColumnType, value: Literal) -> object:
    """Coerce a SQL literal to the column's comparison domain.

    Date columns accept ISO date strings; numeric columns accept ints and
    floats; strings must be strings.
    """
    if type_ is ColumnType.DATE:
        if isinstance(value, str):
            return date_to_days(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return int(value)
        raise PredicateTypeError(f"cannot compare DATE column with {value!r}")
    if type_ is ColumnType.STRING:
        if not isinstance(value, str):
            raise PredicateTypeError(f"cannot compare STRING column with {value!r}")
        return value
    if type_ is ColumnType.BOOL:
        if isinstance(value, bool):
            return value
        raise PredicateTypeError(f"cannot compare BOOL column with {value!r}")
    if isinstance(value, bool) or isinstance(value, str):
        raise PredicateTypeError(f"cannot compare {type_.value} column with {value!r}")
    return value


_COMPARE = {
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
}


def _per_value(test, values: np.ndarray, *args) -> np.ndarray:
    """``map(test, values, *args)`` as a bool array (by truthiness).  ``map``
    drives a C callable, so there is no Python frame per row."""
    return np.fromiter(map(test, values, *args), dtype=np.bool_, count=len(values))


@functools.lru_cache(maxsize=256)
def _like_matcher(pattern: str):
    """Compile a SQL ``LIKE`` pattern to ``values -> bool array``, once.

    ``%`` matches any run of characters (newlines included), ``_`` exactly
    one; nothing else is special.  A wildcard-free core needs no regex:
    it is an equality, prefix, suffix or substring test.
    """
    core = pattern.strip("%")
    lead = pattern.startswith("%")
    trail = pattern.endswith("%")
    if "%" not in core and "_" not in core:
        if not (lead or trail):
            return lambda values: values == core
        test = operator.contains if lead and trail else str.endswith if lead else str.startswith
        return lambda values: _per_value(test, values, itertools.repeat(core))
    body = "".join(
        ".*" if part[0] == "%" else "." if part == "_" else re.escape(part)
        for part in re.findall(r"%+|_|[^%_]+", core)
    )
    regex = re.compile(("" if lead else r"\A") + body + ("" if trail else r"\Z"), re.DOTALL)
    return lambda values: _per_value(regex.search, values)  # a Match is truthy, a miss None


def eval_leaf(
    leaf: Comparison | Between | InList | Like,
    type_: ColumnType,
    values: np.ndarray,
) -> np.ndarray:
    """Evaluate one leaf predicate over a chunk's decoded values.

    String chunks are object arrays of ``str``; numpy's comparison ufuncs
    run on them elementwise in C exactly as on numeric arrays, so order
    predicates, ``BETWEEN`` and ``IN`` share one code path across types.
    """
    if isinstance(leaf, Comparison):
        literal = coerce_literal(type_, leaf.value)
        return np.asarray(_COMPARE[leaf.op](values, literal), dtype=np.bool_)
    if isinstance(leaf, Between):
        low = coerce_literal(type_, leaf.low)
        high = coerce_literal(type_, leaf.high)
        return np.asarray((values >= low) & (values <= high), dtype=np.bool_)
    if isinstance(leaf, InList):
        literals = [coerce_literal(type_, v) for v in leaf.values]
        if type_ is ColumnType.STRING:
            # One C-speed equality pass per literal (IN lists are short).
            mask = np.zeros(len(values), dtype=np.bool_)
            for lit in literals:
                mask |= values == lit
            return mask
        return np.isin(values, np.asarray(literals))
    if isinstance(leaf, Like):
        if type_ is not ColumnType.STRING:
            raise PredicateTypeError(
                f"LIKE applies to string columns, not {type_.value}"
            )
        return _like_matcher(leaf.pattern)(values)
    raise TypeError(f"not a leaf predicate: {leaf!r}")


def eval_tree(pred: Predicate, column_values, column_type) -> np.ndarray:
    """Evaluate a whole predicate tree.

    ``column_values(name)`` returns the decoded values of a column;
    ``column_type(name)`` its :class:`ColumnType`.  Used by the baseline
    (which evaluates everything at the coordinator) and by tests as the
    ground truth for Fusion's distributed evaluation.
    """
    if isinstance(pred, (Comparison, Between, InList, Like)):
        return eval_leaf(pred, column_type(pred.column), column_values(pred.column))
    if isinstance(pred, Not):
        return ~eval_tree(pred.operand, column_values, column_type)
    if isinstance(pred, And):
        return eval_tree(pred.left, column_values, column_type) & eval_tree(
            pred.right, column_values, column_type
        )
    if isinstance(pred, Or):
        return eval_tree(pred.left, column_values, column_type) | eval_tree(
            pred.right, column_values, column_type
        )
    raise TypeError(f"unknown predicate node {pred!r}")


# ---------------------------------------------------------------------------
# Min/max stats pruning
# ---------------------------------------------------------------------------


def leaf_may_match(
    leaf: Comparison | Between | InList | Like,
    type_: ColumnType,
    min_value: object,
    max_value: object,
) -> bool:
    """Can any value in ``[min_value, max_value]`` satisfy the leaf?

    Conservative: returns True when unsure (e.g. missing stats).
    """
    if min_value is None or max_value is None:
        return True
    if isinstance(leaf, Comparison):
        literal = coerce_literal(type_, leaf.value)
        op = leaf.op
        if op is CompareOp.EQ:
            return min_value <= literal <= max_value
        if op is CompareOp.NE:
            return not (min_value == max_value == literal)
        if op is CompareOp.LT:
            return min_value < literal
        if op is CompareOp.LE:
            return min_value <= literal
        if op is CompareOp.GT:
            return max_value > literal
        if op is CompareOp.GE:
            return max_value >= literal
    if isinstance(leaf, Between):
        low = coerce_literal(type_, leaf.low)
        high = coerce_literal(type_, leaf.high)
        return not (high < min_value or low > max_value)
    if isinstance(leaf, InList):
        literals = [coerce_literal(type_, v) for v in leaf.values]
        return any(min_value <= lit <= max_value for lit in literals)
    if isinstance(leaf, Like):
        prefix = leaf.literal_prefix
        if not prefix:
            return True  # leading wildcard: no range information
        # Matching strings lie in [prefix, prefix + chr(0x10FFFF)); prune
        # when that interval misses [min, max] entirely.
        upper = prefix + chr(0x10FFFF)
        return not (max_value < prefix or min_value >= upper)
    raise TypeError(f"not a leaf predicate: {leaf!r}")


def tree_may_match(pred: Predicate, type_of, stats_of) -> bool:
    """Row-group pruning over a predicate tree.

    ``type_of(column)`` returns the column type; ``stats_of(column)``
    returns ``(min, max)``.  NOT subtrees are treated conservatively.
    """
    if isinstance(pred, (Comparison, Between, InList, Like)):
        lo, hi = stats_of(pred.column)
        return leaf_may_match(pred, type_of(pred.column), lo, hi)
    if isinstance(pred, Not):
        return True  # interval complement is not representable; stay safe
    if isinstance(pred, And):
        return tree_may_match(pred.left, type_of, stats_of) and tree_may_match(
            pred.right, type_of, stats_of
        )
    if isinstance(pred, Or):
        return tree_may_match(pred.left, type_of, stats_of) or tree_may_match(
            pred.right, type_of, stats_of
        )
    raise TypeError(f"unknown predicate node {pred!r}")


def combine_leaf_bitmaps(pred: Predicate, bitmaps: list[np.ndarray]) -> np.ndarray:
    """Recombine per-leaf match vectors into the tree's final bitmap.

    ``bitmaps`` must be in :func:`repro.sql.ast_nodes.leaves` order; this
    is the coordinator-side consolidation step of Fusion's filter stage.
    """
    stack = list(bitmaps)
    pos = [0]

    def walk(node: Predicate) -> np.ndarray:
        if isinstance(node, (Comparison, Between, InList, Like)):
            out = stack[pos[0]]
            pos[0] += 1
            return out
        if isinstance(node, Not):
            return ~walk(node.operand)
        if isinstance(node, And):
            return walk(node.left) & walk(node.right)
        if isinstance(node, Or):
            return walk(node.left) | walk(node.right)
        raise TypeError(f"unknown predicate node {node!r}")

    result = walk(pred)
    if pos[0] != len(stack):
        raise ValueError(f"predicate has {pos[0]} leaves but {len(stack)} bitmaps given")
    return result

"""In-memory columnar tables.

A :class:`Table` is the unit handed to the file writer and produced by the
reader.  Numeric columns are numpy arrays; string columns are numpy object
arrays of ``str``.  Tables are immutable by convention (callers should not
mutate the underlying arrays after construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.format.schema import ColumnType, Field, Schema


def _coerce_values(type_: ColumnType, values) -> np.ndarray:
    """Coerce raw values to the canonical array representation for a type."""
    if type_ is ColumnType.STRING:
        if (
            isinstance(values, np.ndarray)
            and values.dtype == object
            and values.ndim == 1
            and all(issubclass(t, str) for t in set(map(type, values.tolist())))
        ):
            return values  # already canonical: checked at C speed, not copied
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            if not isinstance(v, str):
                raise TypeError(f"string column got non-str value {v!r} at row {i}")
            arr[i] = v
        return arr
    dtype = type_.numpy_dtype
    arr = np.asarray(values)
    if arr.dtype != dtype:
        arr = arr.astype(dtype)
    return arr


def plain_size(type_: ColumnType, values: np.ndarray) -> int:
    """Size in bytes of ``values`` in plain (uncompressed) form.

    Mirrors the paper's notion of a chunk's "uncompressed size":
    fixed-width values at their natural width, strings as
    4-byte-length-prefixed UTF-8 (sized with one join, not one
    ``encode`` per value).  Also the network charge for shipping values.
    """
    width = type_.fixed_width
    if width is not None:
        return width * len(values)
    return 4 * len(values) + len("".join(values.tolist()).encode("utf-8"))


@dataclass
class Column:
    """A single named, typed column of values."""

    field: Field
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _coerce_values(self.field.type, self.values)

    @property
    def name(self) -> str:
        return self.field.name

    @property
    def type(self) -> ColumnType:
        return self.field.type

    def __len__(self) -> int:
        return len(self.values)

    def take(self, indices: np.ndarray) -> "Column":
        """Select rows by integer indices, preserving type."""
        return Column(self.field, self.values[indices])

    def slice(self, start: int, stop: int) -> "Column":
        """Row-range slice ``[start, stop)``."""
        return Column(self.field, self.values[start:stop])

    def plain_size(self) -> int:
        """Size in bytes of this column's values in plain form (:func:`plain_size`)."""
        return plain_size(self.type, self.values)


class Table:
    """An ordered set of equal-length columns."""

    def __init__(self, columns: list[Column]) -> None:
        if not columns:
            raise ValueError("table must have at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
        self.columns = list(columns)
        self.schema = Schema([c.field for c in columns])
        self.num_rows = len(columns[0])

    @staticmethod
    def from_dict(data: dict[str, tuple[ColumnType, object]]) -> "Table":
        """Build a table from ``{name: (type, values)}``."""
        cols = [Column(Field(name, t), values) for name, (t, values) in data.items()]
        return Table(cols)

    def column(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name).values

    def slice(self, start: int, stop: int) -> "Table":
        return Table([c.slice(start, stop) for c in self.columns])

    def take(self, indices: np.ndarray) -> "Table":
        return Table([c.take(indices) for c in self.columns])

    def select(self, names: list[str]) -> "Table":
        """Column projection in the given order."""
        return Table([self.column(n) for n in names])

    def equals(self, other: "Table") -> bool:
        """Deep equality on schema and values (NaN-safe for doubles)."""
        if self.schema != other.schema or self.num_rows != other.num_rows:
            return False
        for a, b in zip(self.columns, other.columns):
            if a.type is ColumnType.STRING:
                if not all(x == y for x, y in zip(a.values, b.values)):
                    return False
            elif a.type is ColumnType.DOUBLE:
                if not np.allclose(a.values, b.values, equal_nan=True):
                    return False
            else:
                if not np.array_equal(a.values, b.values):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.num_rows} rows, {len(self.columns)} cols)"

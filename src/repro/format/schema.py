"""Logical schema for the PAX columnar format.

The format supports the column types needed by the paper's datasets
(TPC-H lineitem, NYC taxi, recipeNLG, UK property prices): 64-bit integers,
doubles, dates (days since epoch), booleans and UTF-8 strings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ColumnType(enum.Enum):
    """Physical/logical type of a column.

    Members carry ``numpy_dtype`` (``None`` for strings) and ``fixed_width``
    (plain-encoded bytes per value, ``None`` for variable width) as plain
    attributes: both are read per chunk on the query path.
    """

    def __new__(cls, value: str, dtype: type | None, width: int | None):
        member = object.__new__(cls)
        member._value_ = value
        member.numpy_dtype = None if dtype is None else np.dtype(dtype)
        member.fixed_width = width
        return member

    INT64 = ("int64", np.int64, 8)
    DOUBLE = ("double", np.float64, 8)
    DATE = ("date", np.int32, 4)  # stored as int32 days since 1970-01-01
    BOOL = ("bool", np.bool_, 1)
    STRING = ("string", None, None)


@dataclass(frozen=True)
class Field:
    """One named, typed column in a schema."""

    name: str
    type: ColumnType

    def to_dict(self) -> dict:
        return {"name": self.name, "type": self.type.value}

    @staticmethod
    def from_dict(d: dict) -> "Field":
        return Field(name=d["name"], type=ColumnType(d["type"]))


class Schema:
    """An ordered collection of fields with by-name lookup."""

    def __init__(self, fields: list[Field]) -> None:
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")
        self.fields = list(fields)
        self._index = {f.name: i for i, f in enumerate(fields)}

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def field(self, name: str) -> Field:
        """Look up a field by name; raises ``KeyError`` for unknown names."""
        try:
            return self.fields[self._index[name]]
        except KeyError:
            raise KeyError(f"no column named {name!r}; have {self.names()}") from None

    def index_of(self, name: str) -> int:
        """Ordinal position of ``name`` in the schema."""
        if name not in self._index:
            raise KeyError(f"no column named {name!r}; have {self.names()}")
        return self._index[name]

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def to_dict(self) -> dict:
        return {"fields": [f.to_dict() for f in self.fields]}

    @staticmethod
    def from_dict(d: dict) -> "Schema":
        return Schema([Field.from_dict(f) for f in d["fields"]])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{f.name}:{f.type.value}" for f in self.fields)
        return f"Schema({cols})"

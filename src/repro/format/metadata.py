"""File footer metadata for the PAX format.

Like Parquet, all structural information lives in a footer at the end of
the file: the schema, row group boundaries, and per-column-chunk entries
with byte ranges, encodings, sizes and min/max statistics.  The footer is
serialised as JSON (a debuggable stand-in for Parquet's Thrift footer) and
framed by a length word and magic bytes.

The per-chunk ``plain_size`` / ``size`` pair is what the paper's cost model
consumes: ``compressibility = plain_size / size``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.format.schema import ColumnType, Schema

MAGIC = b"FUS1"


@dataclass(frozen=True)
class ChunkStats:
    """Min/max statistics for one column chunk (Parquet footer stats).

    Values are stored in their natural Python form (int, float or str).
    Used by the coordinator for row-group-level predicate skipping.
    """

    min_value: object
    max_value: object

    def to_dict(self) -> dict:
        return {"min": self.min_value, "max": self.max_value}

    @staticmethod
    def from_dict(d: dict) -> "ChunkStats":
        return ChunkStats(min_value=d["min"], max_value=d["max"])


@dataclass(frozen=True)
class ColumnChunkMeta:
    """Footer entry describing one column chunk."""

    column: str
    type: ColumnType
    row_group: int
    column_index: int
    offset: int  # byte offset of the encoded chunk within the file
    size: int  # encoded (compressed) size in bytes
    plain_size: int  # uncompressed plain-encoded size in bytes
    num_values: int
    encoding: str
    codec: str
    stats: ChunkStats

    @property
    def compressibility(self) -> float:
        """Uncompressed-to-compressed size ratio (>= is more compressible)."""
        if self.size == 0:
            return 1.0
        return self.plain_size / self.size

    @property
    def end_offset(self) -> int:
        return self.offset + self.size

    @property
    def key(self) -> tuple[int, int]:
        """Stable identifier ``(row_group, column_index)`` within a file."""
        return (self.row_group, self.column_index)

    def to_dict(self) -> dict:
        return {
            "column": self.column,
            "type": self.type.value,
            "row_group": self.row_group,
            "column_index": self.column_index,
            "offset": self.offset,
            "size": self.size,
            "plain_size": self.plain_size,
            "num_values": self.num_values,
            "encoding": self.encoding,
            "codec": self.codec,
            "stats": self.stats.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "ColumnChunkMeta":
        return ColumnChunkMeta(
            column=d["column"],
            type=ColumnType(d["type"]),
            row_group=d["row_group"],
            column_index=d["column_index"],
            offset=d["offset"],
            size=d["size"],
            plain_size=d["plain_size"],
            num_values=d["num_values"],
            encoding=d["encoding"],
            codec=d["codec"],
            stats=ChunkStats.from_dict(d["stats"]),
        )


@dataclass(frozen=True)
class RowGroupMeta:
    """Footer entry describing one row group."""

    index: int
    num_rows: int
    columns: tuple[ColumnChunkMeta, ...]

    def column(self, name: str) -> ColumnChunkMeta:
        for c in self.columns:
            if c.column == name:
                return c
        raise KeyError(f"row group {self.index} has no column {name!r}")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "num_rows": self.num_rows,
            "columns": [c.to_dict() for c in self.columns],
        }

    @staticmethod
    def from_dict(d: dict) -> "RowGroupMeta":
        return RowGroupMeta(
            index=d["index"],
            num_rows=d["num_rows"],
            columns=tuple(ColumnChunkMeta.from_dict(c) for c in d["columns"]),
        )


@dataclass
class FileMetadata:
    """The parsed footer of a PAX file."""

    schema: Schema
    num_rows: int
    row_groups: list[RowGroupMeta] = field(default_factory=list)

    def all_chunks(self) -> list[ColumnChunkMeta]:
        """Every column chunk in file order (row group major)."""
        return [c for rg in self.row_groups for c in rg.columns]

    def chunks_for_column(self, name: str) -> list[ColumnChunkMeta]:
        return [rg.column(name) for rg in self.row_groups]

    def chunk(self, row_group: int, column: str) -> ColumnChunkMeta:
        return self.row_groups[row_group].column(column)

    @property
    def num_row_groups(self) -> int:
        return len(self.row_groups)

    @property
    def data_size(self) -> int:
        """Total encoded size of all column chunks (excludes footer)."""
        return sum(c.size for c in self.all_chunks())

    def to_json(self) -> bytes:
        doc = {
            "schema": self.schema.to_dict(),
            "num_rows": self.num_rows,
            "row_groups": [rg.to_dict() for rg in self.row_groups],
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    @staticmethod
    def from_json(raw: bytes) -> "FileMetadata":
        doc = json.loads(raw.decode("utf-8"))
        return FileMetadata(
            schema=Schema.from_dict(doc["schema"]),
            num_rows=doc["num_rows"],
            row_groups=[RowGroupMeta.from_dict(rg) for rg in doc["row_groups"]],
        )


def compute_stats(type_: ColumnType, values) -> ChunkStats:
    """Compute min/max stats in JSON-safe Python types.

    Stats are omitted (``None``, which readers treat as "may match") for
    an empty chunk and for a DOUBLE chunk holding a NaN: ``min``/``max``
    propagate it, and a ``(nan, nan)`` range would prune every row.
    """
    if len(values) == 0:
        return ChunkStats(min_value=None, max_value=None)
    if type_ is ColumnType.STRING:
        items = values.tolist()
        return ChunkStats(min_value=min(items), max_value=max(items))
    lo, hi = values.min(), values.max()
    if type_ is ColumnType.DOUBLE:
        if np.isnan(lo) or np.isnan(hi):
            return ChunkStats(min_value=None, max_value=None)
        return ChunkStats(min_value=float(lo), max_value=float(hi))
    if type_ is ColumnType.BOOL:
        return ChunkStats(min_value=bool(lo), max_value=bool(hi))
    return ChunkStats(min_value=int(lo), max_value=int(hi))

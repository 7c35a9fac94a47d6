"""PAX file writer.

Serialises a :class:`~repro.format.table.Table` into the on-disk layout::

    MAGIC
    row group 0: column chunk 0, column chunk 1, ...
    row group 1: ...
    footer (JSON metadata)
    4-byte little-endian footer length
    MAGIC

Each column chunk is self-contained (see :mod:`repro.format.pages`), so the
byte range recorded in the footer is everything a storage node needs to
decode and compute on that chunk.
"""

from __future__ import annotations

import struct

from repro.format.compression import DEFAULT_CODEC
from repro.format.metadata import (
    MAGIC,
    ColumnChunkMeta,
    FileMetadata,
    RowGroupMeta,
)
from repro.format.pages import DEFAULT_PAGE_VALUES, encode_column_chunk
from repro.format.table import Table

#: Default rows per row group for generated datasets.
DEFAULT_ROW_GROUP_ROWS = 100_000


def write_table(
    table: Table,
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    codec: str = DEFAULT_CODEC,
    page_values: int = DEFAULT_PAGE_VALUES,
) -> bytes:
    """Serialise ``table`` into PAX file bytes.

    ``row_group_rows`` bounds row group size by row count (the knob the
    paper mentions for resizing chunks, which Fusion deliberately does not
    touch); ``codec`` names the page compression codec.
    """
    if row_group_rows <= 0:
        raise ValueError("row_group_rows must be positive")

    out = bytearray(MAGIC)
    row_groups: list[RowGroupMeta] = []

    rg_index = 0
    for start in range(0, table.num_rows, row_group_rows):
        stop = min(start + row_group_rows, table.num_rows)
        chunk_metas: list[ColumnChunkMeta] = []
        for col_index, column in enumerate(table.columns):
            values = column.values[start:stop]
            encoded = encode_column_chunk(
                column.type, values, codec_name=codec, page_values=page_values
            )
            offset = len(out)
            out += encoded.data
            chunk_metas.append(
                ColumnChunkMeta(
                    column=column.name,
                    type=column.type,
                    row_group=rg_index,
                    column_index=col_index,
                    offset=offset,
                    size=len(encoded.data),
                    plain_size=encoded.plain_size,
                    num_values=encoded.num_values,
                    encoding=encoded.encoding,
                    codec=encoded.codec,
                    stats=encoded.stats,
                )
            )
        row_groups.append(
            RowGroupMeta(index=rg_index, num_rows=stop - start, columns=tuple(chunk_metas))
        )
        rg_index += 1

    metadata = FileMetadata(schema=table.schema, num_rows=table.num_rows, row_groups=row_groups)
    footer = metadata.to_json()
    out += footer
    out += struct.pack("<I", len(footer))
    out += MAGIC
    return bytes(out)

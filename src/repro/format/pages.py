"""Self-contained column chunk encoding.

A column chunk is the paper's *smallest computable unit*: given only the
chunk's bytes, a storage node can decode every value and run filters or
projections on it.  To make that literal, each encoded chunk carries a
small header (type, codec, encoding) followed by an optional dictionary
page and one or more data pages, each page compressed independently.

Wire layout::

    byte   type id           (ColumnType)
    byte   codec id          (none / zlib / snappy)
    byte   encoding id       (plain / dictionary)
    varint num_values
    if dictionary:
        varint num_uniques
        varint dict_page_compressed_size
        bytes  dict page     (codec-compressed plain-encoded uniques)
    varint num_pages
    per page:
        varint page_num_values
        varint page_compressed_size
        bytes  page payload  (codec-compressed plain values or index stream)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.format import encoding as enc
from repro.format.compression import get_codec
from repro.format.metadata import ChunkStats, compute_stats
from repro.format.schema import ColumnType
from repro.format.table import plain_size

#: Default number of values per data page (Parquet defaults to ~1MB pages;
#: a row-count bound is simpler and equivalent for our purposes).
DEFAULT_PAGE_VALUES = 8192

_TYPE_IDS = {t: i for i, t in enumerate(ColumnType)}
_TYPES_BY_ID = {i: t for t, i in _TYPE_IDS.items()}

_CODEC_IDS = {"none": 0, "zlib": 1, "snappy": 2}
_CODECS_BY_ID = {i: n for n, i in _CODEC_IDS.items()}

_ENCODING_IDS = {enc.PLAIN: 0, enc.DICTIONARY: 1}
_ENCODINGS_BY_ID = {i: n for n, i in _ENCODING_IDS.items()}


@dataclass(frozen=True)
class EncodedChunk:
    """An encoded column chunk plus the facts the file footer records."""

    data: bytes
    type: ColumnType
    codec: str
    encoding: str
    num_values: int
    plain_size: int  # uncompressed (plain-encoded) size in bytes
    stats: ChunkStats  # chunk min/max, for the footer

    @property
    def compressed_size(self) -> int:
        return len(self.data)

    @property
    def compressibility(self) -> float:
        """The paper's compressibility: uncompressed size / compressed size."""
        if self.compressed_size == 0:
            return 1.0
        return self.plain_size / self.compressed_size


@dataclass(frozen=True)
class PageInfo:
    """Header facts for one data page, readable without decompression.

    ``start_row`` is the page's first row within the chunk; ``min_value``/
    ``max_value`` are the page statistics (``None`` when absent), used for
    node-local page skipping during filter pushdown.
    """

    index: int
    start_row: int
    num_values: int
    compressed_size: int
    min_value: object
    max_value: object


_MAX_STRING_STAT = 32


def _as_buffer(data):
    """Normalize chunk bytes to a zero-copy buffer with int indexing.

    The store's read path hands us uint8 array views over stripe blocks;
    indexing those yields numpy scalars whose fixed-width shifts would
    corrupt varint decoding, so anything that is not already ``bytes``
    is wrapped in a flat ``memoryview`` (no copy) instead.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        return data
    return memoryview(data).cast("B")


def _encode_page_stats(type_: ColumnType, stats: ChunkStats) -> bytes:
    """Serialise a page's min/max stats (1 flag byte + payload)."""
    lo, hi = stats.min_value, stats.max_value
    if lo is None:
        return b"\x00"
    if type_ is ColumnType.STRING:
        lo_b, hi_b = lo.encode("utf-8"), hi.encode("utf-8")
        if len(lo_b) > _MAX_STRING_STAT or len(hi_b) > _MAX_STRING_STAT:
            return b"\x00"  # long strings: omit stats, stay conservative
        return (
            b"\x01"
            + enc.encode_varint(len(lo_b))
            + lo_b
            + enc.encode_varint(len(hi_b))
            + hi_b
        )
    return b"\x01" + enc.encode_plain(type_, np.array([lo, hi], dtype=type_.numpy_dtype))


def _decode_page_stats(type_: ColumnType, data: bytes, pos: int):
    """Inverse of :func:`_encode_page_stats`; returns (min, max, next_pos)."""
    flag = data[pos]
    pos += 1
    if flag == 0:
        return None, None, pos
    if type_ is ColumnType.STRING:
        lo_len, pos = enc.decode_varint(data, pos)
        lo = bytes(data[pos : pos + lo_len]).decode("utf-8")
        pos += lo_len
        hi_len, pos = enc.decode_varint(data, pos)
        hi = bytes(data[pos : pos + hi_len]).decode("utf-8")
        pos += hi_len
        return lo, hi, pos
    width = type_.fixed_width or 0
    pair = enc.decode_plain(type_, data[pos : pos + 2 * width], 2)
    pos += 2 * width
    lo, hi = pair[0], pair[1]
    if type_ is ColumnType.BOOL:
        return bool(lo), bool(hi), pos
    if type_ is ColumnType.DOUBLE:
        return float(lo), float(hi), pos
    return int(lo), int(hi), pos


def encode_column_chunk(
    type_: ColumnType,
    values: np.ndarray,
    codec_name: str,
    page_values: int = DEFAULT_PAGE_VALUES,
    force_encoding: str | None = None,
) -> EncodedChunk:
    """Encode one column chunk's values into its self-contained byte form.

    The encoding (plain vs dictionary) is chosen by the Parquet-like
    heuristic in :func:`repro.format.encoding.should_use_dictionary`
    unless ``force_encoding`` pins it.  Each thing is worked out once:
    the distinct values decide the encoding and become the dictionary,
    ``plain_size`` is computed rather than encoded, and a one-page
    chunk's min/max serve its page header and the file footer.
    """
    codec = get_codec(codec_name)
    num_values = len(values)

    chosen, distinct = force_encoding, None
    if chosen is None:
        distinct = enc.distinct_values(type_, values)
        use_dict = enc.should_use_dictionary(num_values, len(distinct))
        chosen = enc.DICTIONARY if use_dict else enc.PLAIN
    dictionary = chosen == enc.DICTIONARY
    if dictionary:
        uniques, codes = enc.build_dictionary(type_, values, distinct)
    # A chunk's extremes are its dictionary's.
    stats = compute_stats(type_, uniques if dictionary else values)

    out = bytearray()
    out.append(_TYPE_IDS[type_])
    out.append(_CODEC_IDS[codec_name])
    out.append(_ENCODING_IDS[chosen])
    out += enc.encode_varint(num_values)

    if dictionary:
        dict_page = codec.compress(enc.encode_plain(type_, uniques))
        out += enc.encode_varint(len(uniques))
        out += enc.encode_varint(len(dict_page))
        out += dict_page
        bit_width = enc.bit_width_for(max(0, len(uniques) - 1))

    pages = _paginate(num_values, page_values)
    out += enc.encode_varint(len(pages))
    payload_size = 0
    for start, stop in pages:
        if dictionary:
            payload = enc.encode_index_stream(codes[start:stop], bit_width)
        else:
            payload = enc.encode_plain(type_, values[start:stop])
        payload_size += len(payload)
        compressed = codec.compress(payload)
        page_stats = stats if len(pages) == 1 else compute_stats(type_, values[start:stop])
        out += enc.encode_varint(stop - start)
        out += _encode_page_stats(type_, page_stats)
        out += enc.encode_varint(len(compressed))
        out += compressed

    # Plain pages add up to the chunk's plain form; a dictionary chunk's
    # is sized from its values (strings: one join, not one encode each).
    return EncodedChunk(
        data=bytes(out),
        type=type_,
        codec=codec_name,
        encoding=chosen,
        num_values=num_values,
        plain_size=plain_size(type_, values) if dictionary else payload_size,
        stats=stats,
    )


def _paginate(num_values: int, page_values: int) -> list[tuple[int, int]]:
    if num_values == 0:
        return [(0, 0)]
    if page_values <= 0:
        raise ValueError("page_values must be positive")
    return [
        (start, min(start + page_values, num_values))
        for start in range(0, num_values, page_values)
    ]


def decode_column_chunk(data) -> np.ndarray:
    """Decode a self-contained chunk back to its value array.

    ``data`` may be ``bytes`` or any C-contiguous buffer (``memoryview``,
    uint8 array view): page payloads are sliced as views and handed to
    the codec without copying.
    """
    data = _as_buffer(data)
    type_ = _TYPES_BY_ID[data[0]]
    codec = get_codec(_CODECS_BY_ID[data[1]])
    encoding_name = _ENCODINGS_BY_ID[data[2]]
    pos = 3
    num_values, pos = enc.decode_varint(data, pos)

    if encoding_name == enc.DICTIONARY:
        num_uniques, pos = enc.decode_varint(data, pos)
        dict_size, pos = enc.decode_varint(data, pos)
        dict_plain = codec.decompress(data[pos : pos + dict_size])
        pos += dict_size
        uniques = enc.decode_plain(type_, dict_plain, num_uniques)
        bit_width = enc.bit_width_for(max(0, num_uniques - 1))
        codes = np.empty(num_values, dtype=np.int64)
        filled = 0
        num_pages, pos = enc.decode_varint(data, pos)
        for _ in range(num_pages):
            page_count, pos = enc.decode_varint(data, pos)
            _lo, _hi, pos = _decode_page_stats(type_, data, pos)
            page_size, pos = enc.decode_varint(data, pos)
            payload = codec.decompress(data[pos : pos + page_size])
            pos += page_size
            codes[filled : filled + page_count] = enc.decode_index_stream(
                payload, bit_width, page_count
            )
            filled += page_count
        return uniques[codes]

    num_pages, pos = enc.decode_varint(data, pos)
    parts = []
    for _ in range(num_pages):
        page_count, pos = enc.decode_varint(data, pos)
        _lo, _hi, pos = _decode_page_stats(type_, data, pos)
        page_size, pos = enc.decode_varint(data, pos)
        payload = codec.decompress(data[pos : pos + page_size])
        pos += page_size
        parts.append(enc.decode_plain(type_, payload, page_count))
    if not parts:
        return np.zeros(0, dtype=type_.numpy_dtype or object)
    return np.concatenate(parts)


def chunk_page_index(data) -> list[PageInfo]:
    """Read the chunk's page headers and stats without decompressing.

    This is what a storage node consults to skip pages whose min/max
    stats cannot satisfy a filter (Parquet's page-index pruning).
    Accepts the same buffer types as :func:`decode_column_chunk`.
    """
    data = _as_buffer(data)
    type_ = _TYPES_BY_ID[data[0]]
    encoding_name = _ENCODINGS_BY_ID[data[2]]
    pos = 3
    _num_values, pos = enc.decode_varint(data, pos)
    if encoding_name == enc.DICTIONARY:
        _num_uniques, pos = enc.decode_varint(data, pos)
        dict_size, pos = enc.decode_varint(data, pos)
        pos += dict_size
    num_pages, pos = enc.decode_varint(data, pos)
    out: list[PageInfo] = []
    start_row = 0
    for index in range(num_pages):
        page_count, pos = enc.decode_varint(data, pos)
        lo, hi, pos = _decode_page_stats(type_, data, pos)
        page_size, pos = enc.decode_varint(data, pos)
        pos += page_size
        out.append(
            PageInfo(
                index=index,
                start_row=start_row,
                num_values=page_count,
                compressed_size=page_size,
                min_value=lo,
                max_value=hi,
            )
        )
        start_row += page_count
    return out

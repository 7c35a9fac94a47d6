"""The straight-line chunk encoder of 76e90f0, kept as the test oracle.

This is the encoder ``repro.format`` shipped before the one-pass encode
path: the whole chunk plain-encoded for its ``len()``, a full dictionary
built before the cardinality test, both index streams encoded to keep
the shorter, page and footer min/max scanned separately.  It does every
step literally, which is what makes it the reference: production must
produce the same bytes, ``encoding``, ``plain_size``, footer stats and
errors (``tests/format/test_encode_differential.py``) on every chunk
without a NaN or a ``-0.0`` - the two declared differences, each with
its own test.
"""

from __future__ import annotations

import numpy as np

from repro.format import _reference as ref
from repro.format import encoding as enc
from repro.format.compression import get_codec
from repro.format.metadata import ChunkStats
from repro.format.pages import (
    _CODEC_IDS,
    _ENCODING_IDS,
    _MAX_STRING_STAT,
    _TYPE_IDS,
    DEFAULT_PAGE_VALUES,
    EncodedChunk,
    _paginate,
)
from repro.format.schema import ColumnType


def build_dictionary(type_: ColumnType, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique_values, codes)``, uniques in first-appearance order."""
    if type_ is ColumnType.STRING:
        return ref.build_string_dictionary(values)
    uniques, first_idx, codes = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first_idx)
    remap = np.empty(len(uniques), dtype=np.int64)
    remap[order] = np.arange(len(uniques))
    return uniques[order], remap[codes]


def encode_index_stream(codes: np.ndarray, bit_width: int) -> bytes:
    """Encode both ways, keep the shorter (RLE on a tie)."""
    rle = enc.rle_encode(codes)
    packed = enc.bitpack_encode(codes, bit_width)
    if len(rle) <= len(packed):
        return bytes([enc._INDEX_RLE]) + rle
    return bytes([enc._INDEX_BITPACK]) + packed


def compute_stats(type_: ColumnType, values) -> ChunkStats:
    """Footer min/max by a scan of the whole chunk."""
    if len(values) == 0:
        return ChunkStats(min_value=None, max_value=None)
    if type_ is ColumnType.STRING:
        return ChunkStats(min_value=min(values), max_value=max(values))
    lo, hi = values.min(), values.max()
    if type_ is ColumnType.DOUBLE:
        return ChunkStats(min_value=float(lo), max_value=float(hi))
    if type_ is ColumnType.BOOL:
        return ChunkStats(min_value=bool(lo), max_value=bool(hi))
    return ChunkStats(min_value=int(lo), max_value=int(hi))


def _encode_page_stats(type_: ColumnType, values: np.ndarray) -> bytes:
    if len(values) == 0:
        return b"\x00"
    if type_ is ColumnType.STRING:
        lo, hi = min(values), max(values)
        lo_b, hi_b = lo.encode("utf-8"), hi.encode("utf-8")
        if len(lo_b) > _MAX_STRING_STAT or len(hi_b) > _MAX_STRING_STAT:
            return b"\x00"
        return (
            b"\x01"
            + enc.encode_varint(len(lo_b))
            + lo_b
            + enc.encode_varint(len(hi_b))
            + hi_b
        )
    pair = np.array([values.min(), values.max()], dtype=type_.numpy_dtype)
    return b"\x01" + enc.encode_plain(type_, pair)


def encode_column_chunk(
    type_: ColumnType,
    values: np.ndarray,
    codec_name: str,
    page_values: int = DEFAULT_PAGE_VALUES,
    force_encoding: str | None = None,
) -> EncodedChunk:
    codec = get_codec(codec_name)
    num_values = len(values)
    plain = enc.encode_plain(type_, values)

    if force_encoding is None:
        uniques, codes = build_dictionary(type_, values)
        use_dict = enc.should_use_dictionary(num_values, len(uniques))
        chosen = enc.DICTIONARY if use_dict else enc.PLAIN
    else:
        chosen = force_encoding
        if chosen == enc.DICTIONARY:
            uniques, codes = build_dictionary(type_, values)

    out = bytearray()
    out.append(_TYPE_IDS[type_])
    out.append(_CODEC_IDS[codec_name])
    out.append(_ENCODING_IDS[chosen])
    out += enc.encode_varint(num_values)

    if chosen == enc.DICTIONARY:
        dict_plain = enc.encode_plain(type_, uniques)
        dict_page = codec.compress(dict_plain)
        out += enc.encode_varint(len(uniques))
        out += enc.encode_varint(len(dict_page))
        out += dict_page
        bit_width = enc.bit_width_for(max(0, len(uniques) - 1))
        pages = _paginate(num_values, page_values)
        out += enc.encode_varint(len(pages))
        for start, stop in pages:
            payload = encode_index_stream(codes[start:stop], bit_width)
            compressed = codec.compress(payload)
            out += enc.encode_varint(stop - start)
            out += _encode_page_stats(type_, values[start:stop])
            out += enc.encode_varint(len(compressed))
            out += compressed
    else:
        pages = _paginate(num_values, page_values)
        out += enc.encode_varint(len(pages))
        for start, stop in pages:
            payload = enc.encode_plain(type_, values[start:stop])
            compressed = codec.compress(payload)
            out += enc.encode_varint(stop - start)
            out += _encode_page_stats(type_, values[start:stop])
            out += enc.encode_varint(len(compressed))
            out += compressed

    return EncodedChunk(
        data=bytes(out),
        type=type_,
        codec=codec_name,
        encoding=chosen,
        num_values=num_values,
        plain_size=len(plain),
        stats=compute_stats(type_, values),
    )

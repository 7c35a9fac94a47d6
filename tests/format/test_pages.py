"""Self-contained column chunks: encode/decode across types and codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.format.encoding import DICTIONARY, PLAIN
from repro.format.pages import (
    chunk_page_index,
    decode_column_chunk,
    encode_column_chunk,
)
from repro.format.schema import ColumnType


def _values(type_: ColumnType, n: int, seed: int = 0, cardinality: int = 10):
    rng = np.random.default_rng(seed)
    if type_ is ColumnType.INT64:
        return rng.integers(0, cardinality, size=n)
    if type_ is ColumnType.DOUBLE:
        return np.round(rng.uniform(0, 100, size=n), 2)
    if type_ is ColumnType.DATE:
        return rng.integers(15_000, 15_000 + cardinality, size=n).astype(np.int32)
    if type_ is ColumnType.BOOL:
        return rng.integers(0, 2, size=n).astype(bool)
    arr = np.empty(n, dtype=object)
    for i in range(n):
        arr[i] = f"value-{rng.integers(0, cardinality)}"
    return arr


ALL_TYPES = list(ColumnType)


@pytest.mark.parametrize("type_", ALL_TYPES)
@pytest.mark.parametrize("codec", ["none", "zlib", "snappy"])
class TestRoundTrip:
    def test_roundtrip(self, type_, codec):
        values = _values(type_, 500)
        chunk = encode_column_chunk(type_, values, codec_name=codec)
        out = decode_column_chunk(chunk.data)
        if type_ is ColumnType.STRING:
            assert list(out) == list(values)
        else:
            assert np.array_equal(out, np.asarray(values, dtype=type_.numpy_dtype))

    def test_multiple_pages(self, type_, codec):
        values = _values(type_, 1000)
        chunk = encode_column_chunk(type_, values, codec_name=codec, page_values=100)
        out = decode_column_chunk(chunk.data)
        if type_ is ColumnType.STRING:
            assert list(out) == list(values)
        else:
            assert np.array_equal(out, np.asarray(values, dtype=type_.numpy_dtype))


class TestEncodingChoice:
    def test_low_cardinality_uses_dictionary(self):
        values = _values(ColumnType.INT64, 1000, cardinality=5)
        chunk = encode_column_chunk(ColumnType.INT64, values, codec_name="zlib")
        assert chunk.encoding == DICTIONARY

    def test_unique_values_use_plain(self):
        values = np.arange(1000, dtype=np.int64)
        chunk = encode_column_chunk(ColumnType.INT64, values, codec_name="zlib")
        assert chunk.encoding == PLAIN

    def test_force_encoding(self):
        values = np.arange(100, dtype=np.int64)
        chunk = encode_column_chunk(
            ColumnType.INT64, values, codec_name="none", force_encoding=DICTIONARY
        )
        assert chunk.encoding == DICTIONARY
        assert np.array_equal(decode_column_chunk(chunk.data), values)

    def test_dictionary_compresses_repetitive(self):
        values = _values(ColumnType.STRING, 2000, cardinality=3)
        chunk = encode_column_chunk(ColumnType.STRING, values, codec_name="zlib")
        assert chunk.compressibility > 5


class TestChunkFacts:
    def test_plain_size_matches_plain_encoding(self):
        values = np.arange(100, dtype=np.int64)
        chunk = encode_column_chunk(ColumnType.INT64, values, codec_name="zlib")
        assert chunk.plain_size == 800

    def test_num_values(self):
        chunk = encode_column_chunk(
            ColumnType.DOUBLE, _values(ColumnType.DOUBLE, 321), codec_name="none"
        )
        assert chunk.num_values == 321

    def test_chunk_header_carries_type(self):
        """Decoding needs no schema: the chunk's own header names its
        type, so each type comes back at its own dtype."""
        for type_ in ALL_TYPES:
            chunk = encode_column_chunk(type_, _values(type_, 10), codec_name="none")
            out = decode_column_chunk(chunk.data)
            assert out.dtype == (type_.numpy_dtype or np.dtype(object))

    def test_compressed_size_is_len_data(self):
        chunk = encode_column_chunk(
            ColumnType.INT64, np.arange(50, dtype=np.int64), codec_name="zlib"
        )
        assert chunk.compressed_size == len(chunk.data)

    def test_empty_chunk_roundtrip(self):
        values = np.zeros(0, dtype=np.int64)
        chunk = encode_column_chunk(ColumnType.INT64, values, codec_name="zlib")
        assert chunk.num_values == 0
        assert len(decode_column_chunk(chunk.data)) == 0

    def test_bad_page_values_raises(self):
        with pytest.raises(ValueError):
            encode_column_chunk(
                ColumnType.INT64, np.arange(10, dtype=np.int64), "none", page_values=0
            )


class TestDoubleFidelity:
    """A DOUBLE dictionary is keyed by bit pattern: what ``==`` merges
    (``-0.0`` with ``0.0``) or never matches (NaN) still round-trips."""

    @pytest.mark.parametrize("force", [None, DICTIONARY, PLAIN])
    def test_negative_zero_keeps_its_sign(self, force):
        values = np.array([0.0, -0.0, 1.0] * 27)[:80]
        chunk = encode_column_chunk(ColumnType.DOUBLE, values, "zlib", force_encoding=force)
        assert chunk.encoding == (force or DICTIONARY)
        out = decode_column_chunk(chunk.data)
        assert np.array_equal(out, values)
        assert np.array_equal(np.signbit(out), np.signbit(values))
        assert np.signbit(out).sum() == 27

    @pytest.mark.parametrize("page_values", [8192, 25])
    def test_nans_stay_where_they_were(self, page_values):
        values = np.array([2.5, np.nan, 1.0, 2.5] * 25)
        values[60:] = 7.0  # pages 0-2 hold NaNs, page 3 does not
        chunk = encode_column_chunk(ColumnType.DOUBLE, values, "none", page_values=page_values)
        assert chunk.encoding == DICTIONARY
        out = decode_column_chunk(chunk.data)
        assert np.array_equal(np.isnan(out), np.isnan(values))
        assert np.array_equal(out, values, equal_nan=True)
        assert chunk.stats.min_value is None and chunk.stats.max_value is None
        stats = [(p.min_value, p.max_value) for p in chunk_page_index(chunk.data)]
        assert stats == ([(None, None)] if page_values == 8192 else [(None, None)] * 3 + [(7.0, 7.0)])

    def test_nan_payloads_are_distinct_entries(self):
        quiet, other = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)
        values = np.array([quiet, other, quiet, other, 3.0, 3.0])
        out = decode_column_chunk(encode_column_chunk(ColumnType.DOUBLE, values, "none").data)
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))


class TestSelfContainment:
    """A chunk's bytes alone must suffice to decode it (the paper's
    smallest-computable-unit property)."""

    def test_decode_needs_only_chunk_bytes(self):
        values = _values(ColumnType.STRING, 300, cardinality=4)
        chunk = encode_column_chunk(ColumnType.STRING, values, codec_name="snappy")
        copied = bytes(bytearray(chunk.data))  # fresh buffer, no shared state
        assert list(decode_column_chunk(copied)) == list(values)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 400),
        cardinality=st.integers(1, 50),
        seed=st.integers(0, 99),
    )
    def test_int_roundtrip_property(self, n, cardinality, seed):
        values = _values(ColumnType.INT64, n, seed=seed, cardinality=cardinality)
        chunk = encode_column_chunk(ColumnType.INT64, values, codec_name="zlib")
        assert np.array_equal(decode_column_chunk(chunk.data), values)

"""Differential tests: the one-pass chunk encoder vs the straight-line oracle.

``encode_column_chunk`` decides the encoding from the cardinality alone,
sizes the plain form by arithmetic, builds one index stream and takes
min/max once; ``tests/format/_encode_reference.py`` (the encoder of
76e90f0) does each of those the long way.  Bytes, ``encoding``,
``plain_size``, footer stats and raised errors must be equal over every
column type x codec x forced encoding x page size, at the cardinalities
either side of the dictionary threshold.

DOUBLE values here hold no NaN and no ``-0.0``: those are the two
declared byte changes (``tests/integration/test_nan_pruning.py``,
``tests/format/test_pages.py::TestDoubleFidelity``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.format import encoding as enc
from repro.format.pages import DEFAULT_PAGE_VALUES, decode_column_chunk, encode_column_chunk
from repro.format.schema import ColumnType
from tests.format import _encode_reference as oracle

CODECS = ("none", "zlib", "snappy")
FORCED = (None, enc.PLAIN, enc.DICTIONARY)
PAGE_VALUES = (1, 3, 16, DEFAULT_PAGE_VALUES)

_ELEMENTS = {
    ColumnType.INT64: st.integers(-(2**63), 2**63 - 1),
    ColumnType.DATE: st.integers(-(2**31), 2**31 - 1),
    ColumnType.BOOL: st.booleans(),
    ColumnType.DOUBLE: st.floats(allow_nan=False).map(lambda x: x + 0.0),  # -0.0 -> 0.0
    ColumnType.STRING: st.one_of(
        st.text(max_size=8),
        st.text(alphabet="ab\x00é日🦜", max_size=5),  # NUL and multi-byte
        st.text(alphabet="xyz", min_size=256, max_size=280),  # past the stats and fast-decode limits
    ),
}


def _array(type_: ColumnType, items: list) -> np.ndarray:
    if type_ is ColumnType.STRING:
        out = np.empty(len(items), dtype=object)
        out[:] = items
        return out
    return np.array(items, dtype=type_.numpy_dtype)


@st.composite
def chunk_values(draw, type_: ColumnType):
    """``n`` values with a chosen number of distinct ones: the shapes the
    plain-vs-dictionary test turns on (``n // 2`` is the last dictionary
    cardinality, ``n // 2 + 1`` the first plain one)."""
    n = draw(st.integers(0, 40))
    wanted = draw(st.sampled_from(("one", "all", "half", "half+1", "any")))
    k = {"one": 1, "all": n, "half": n // 2, "half+1": n // 2 + 1}.get(wanted)
    if k is None:
        k = draw(st.integers(0, n))
    k = max(min(k, n, 2 if type_ is ColumnType.BOOL else n), min(n, 1))
    pool = draw(st.lists(_ELEMENTS[type_], min_size=k, max_size=k, unique=True))
    extra = draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=n - k, max_size=n - k))
    picks = draw(st.permutations(list(range(k)) + extra))
    return _array(type_, [pool[i] for i in picks])


def _outcome(call, *args, **kwargs):
    """Everything a caller can observe: the chunk's facts, or the error."""
    try:
        chunk = call(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return chunk.data, chunk.encoding, chunk.plain_size, chunk.num_values, chunk.stats


@pytest.mark.parametrize("type_", list(ColumnType), ids=lambda t: t.value)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_chunk_equals_the_oracle(type_, data):
    values = data.draw(chunk_values(type_))
    codec = data.draw(st.sampled_from(CODECS))
    forced = data.draw(st.sampled_from(FORCED))
    page_values = data.draw(st.sampled_from(PAGE_VALUES))
    got = _outcome(encode_column_chunk, type_, values, codec, page_values, forced)
    assert got == _outcome(oracle.encode_column_chunk, type_, values, codec, page_values, forced)
    assert np.array_equal(decode_column_chunk(got[0]), values)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"codec_name": "no-such-codec"},
        {"codec_name": "snappy-greedy"},  # a codec, but not a page codec
        {"codec_name": "zlib", "force_encoding": "rle"},
        {"codec_name": "zlib", "page_values": 0},
        {"codec_name": "zlib", "page_values": -1, "force_encoding": enc.DICTIONARY},
    ],
)
def test_bad_arguments_raise_what_the_oracle_raises(kwargs):
    values = np.arange(10, dtype=np.int64) % 3
    got = _outcome(encode_column_chunk, ColumnType.INT64, values, **kwargs)
    assert got == _outcome(oracle.encode_column_chunk, ColumnType.INT64, values, **kwargs)
    assert isinstance(got[0], type) and issubclass(got[0], Exception)


@pytest.mark.parametrize("type_", list(ColumnType), ids=lambda t: t.value)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dictionary_equals_the_oracle(type_, data):
    values = data.draw(chunk_values(type_))
    uniques, codes = enc.build_dictionary(type_, values)
    ref_uniques, ref_codes = oracle.build_dictionary(type_, values)
    assert np.array_equal(uniques, ref_uniques) and uniques.dtype == ref_uniques.dtype
    assert np.array_equal(codes, ref_codes) and codes.dtype == ref_codes.dtype
    assert len(enc.distinct_values(type_, values)) == len(ref_uniques)


#: Runs of one code: long runs make RLE win, short ones bit-packing, and
#: codes below zero or at ``1 << bit_width`` are the two refusals.
_RUNS = st.lists(st.tuples(st.integers(-1, 9), st.integers(1, 30)), max_size=12)


@settings(max_examples=400, deadline=None)
@given(runs=_RUNS, bit_width=st.integers(1, 4))
def test_index_stream_equals_the_oracle(runs, bit_width):
    codes = np.repeat(
        np.array([c for c, _ in runs], dtype=np.int64), [length for _, length in runs]
    )

    def outcome(call):
        try:
            return call(codes, bit_width)
        except ValueError as exc:
            return str(exc)

    got = outcome(enc.encode_index_stream)
    assert got == outcome(oracle.encode_index_stream)
    if isinstance(got, bytes):
        assert np.array_equal(enc.decode_index_stream(got, bit_width, len(codes)), codes)


def test_index_stream_tie_goes_to_rle():
    # 16 codes at 1 bit pack into 2 bytes; one run is also 2 bytes.
    codes = np.zeros(16, dtype=np.int64)
    assert enc.encode_index_stream(codes, 1) == bytes([enc._INDEX_RLE, 16, 0])
    assert enc.encode_index_stream(codes, 1) == oracle.encode_index_stream(codes, 1)

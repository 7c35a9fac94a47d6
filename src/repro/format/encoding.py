"""Value encodings for column chunks.

Implements the encodings the paper's Parquet files rely on (Section 2):

* **plain** — fixed-width little-endian values; strings are 4-byte
  length-prefixed UTF-8.
* **bit-packing** — non-negative integer codes packed at the minimal bit
  width (LSB-first within each value, values concatenated).
* **RLE** — run-length encoding of integer codes as (varint run length,
  varint value) pairs.
* **dictionary** — unique values in first-appearance order plus an index
  stream encoded with whichever of RLE/bit-packing is smaller (Parquet's
  hybrid behaviour, simplified to a per-page choice).

All functions operate on numpy arrays and return ``bytes``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.format.schema import ColumnType

PLAIN = "plain"
DICTIONARY = "dictionary"
RLE = "rle"
BITPACK = "bitpack"


# ---------------------------------------------------------------------------
# Plain encoding
# ---------------------------------------------------------------------------


def _encode_plain_strings(values: np.ndarray) -> bytes:
    """Vectorized length-prefixed UTF-8 string encoding.

    One join on a four-byte gap + ``encode`` lays every payload out
    where it belongs, one gap ahead of it for its prefix; the prefixes
    are then scattered into the gaps.  Lengths are the C-speed ``len``
    of each value, recounted in bytes only when the text is not ASCII -
    no per-value Python frame, and nothing is scanned for, so no byte
    value is special.
    """
    n = len(values)
    if n == 0:
        return b""
    items = values.tolist()
    gap = "\x00" * 4
    out = np.frombuffer(bytearray((gap + gap.join(items)).encode("utf-8")), dtype=np.uint8)
    lens = np.fromiter(map(len, items), dtype=np.int64, count=n)
    if int(lens.sum()) + 4 * n != len(out):  # not ASCII: bytes, not characters
        lens = np.fromiter(map(len, map(str.encode, items)), dtype=np.int64, count=n)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1] + 4, out=starts[1:])
    out[(starts[:, None] + np.arange(4)).reshape(-1)] = lens.astype("<u4").view(np.uint8)
    return out.tobytes()


def _chain_string_starts(arr: np.ndarray, count: int):
    """Record-start offsets of ``count`` length-prefixed strings, vectorized.

    The length prefix of a string shorter than 256 bytes is
    ``[L, 0, 0, 0]``, so every record start is followed by three zero
    bytes.  Candidate starts are found with one vectorized compare, the
    successor of each candidate (``start + 4 + length``) is mapped back
    into the candidate list, and the true record chain is enumerated
    from offset 0 by pointer doubling — O(log n) gather passes instead
    of a serial byte walk.  Extra candidates (payload zeros) are
    harmless; a candidate miss (a ≥256-byte string, truncation) returns
    None and the caller falls back to the scalar walk, so this is an
    exact fast path, not a heuristic.
    """
    total = arr.size
    if total < 4 or arr[1] or arr[2] or arr[3]:
        return None
    z = arr == 0
    cand = np.flatnonzero(z[1 : total - 2] & z[2 : total - 1] & z[3:total])
    m = cand.size
    if m < count or m > 4 * count + 64:
        return None
    lens = arr[cand].astype(np.int64)
    succ = cand + 4 + lens
    nxt = np.searchsorted(cand, succ)
    ok = nxt < m
    ok &= cand[np.where(ok, nxt, 0)] == succ
    jump = np.concatenate((np.where(ok, nxt, m), [m]))
    idxs = np.empty(count, dtype=np.int64)
    idxs[0] = 0
    filled = 1
    step = jump
    while filled < count:
        take = min(filled, count - filled)
        idxs[filled : filled + take] = step[idxs[:take]]
        filled += take
        if filled < count:
            step = step[step]
    if int(idxs.max()) >= m:
        return None
    starts = cand[idxs]
    used = int(starts[-1] + 4 + lens[idxs[-1]])
    if used > total:
        return None
    return starts, lens[idxs], used


def _decode_plain_strings_scalar(buf, count: int) -> np.ndarray:
    """Serial-walk fallback for streams the vectorized path declines
    (strings ≥256 bytes, NUL-byte payloads, corruption)."""
    out = np.empty(count, dtype=object)
    pos = 0
    for i in range(count):
        (length,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        out[i] = bytes(buf[pos : pos + length]).decode("utf-8")
        pos += length
    return out


def _decode_plain_strings(data, count: int) -> np.ndarray:
    """Vectorized inverse of :func:`_encode_plain_strings`.

    Record starts come from :func:`_chain_string_starts`; the prefixes
    are then masked out, NUL separators are scattered between the
    payloads, and the whole buffer is decoded once and ``str.split`` on
    the separator — two C passes instead of ``count`` per-string
    decodes.  Accepts any byte buffer (bytes, memoryview, uint8 view).
    """
    out = np.empty(count, dtype=object)
    if count == 0:
        return out
    arr = np.frombuffer(data, dtype=np.uint8)
    chained = _chain_string_starts(arr, count)
    if chained is None:
        return _decode_plain_strings_scalar(
            data if isinstance(data, (bytes, bytearray)) else memoryview(data), count
        )
    starts, lens, used = chained
    payload_mask = np.ones(used, dtype=bool)
    payload_mask[(starts[:, None] + np.arange(4)).reshape(-1)] = False
    payload = arr[:used][payload_mask]
    if not payload.all():  # NUL bytes in payload would alias the separators
        return _decode_plain_strings_scalar(
            data if isinstance(data, (bytes, bytearray)) else memoryview(data), count
        )
    spaced = np.zeros(len(payload) + count - 1, dtype=np.uint8)
    spaced_mask = np.ones(len(spaced), dtype=bool)
    spaced_mask[np.cumsum(lens[:-1] + 1) - 1] = False  # separator slots
    spaced[spaced_mask] = payload
    parts = spaced.tobytes().decode("utf-8").split("\x00")
    out[:] = parts
    return out


def encode_plain(type_: ColumnType, values: np.ndarray) -> bytes:
    """Encode values in plain form (the uncompressed representation)."""
    if type_ is ColumnType.STRING:
        return _encode_plain_strings(values)
    dtype = type_.numpy_dtype
    if type_ is ColumnType.BOOL:
        return np.asarray(values, dtype=np.uint8).tobytes()
    return np.ascontiguousarray(values, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()


def decode_plain(type_: ColumnType, data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`encode_plain`.  ``data`` may be any C-contiguous
    buffer (``bytes``, ``memoryview``, uint8 array): the store's zero-copy
    read path passes block views straight through."""
    if type_ is ColumnType.STRING:
        return _decode_plain_strings(data, count)
    if type_ is ColumnType.BOOL:
        return np.frombuffer(data, dtype=np.uint8, count=count).astype(np.bool_)
    dtype = np.dtype(type_.numpy_dtype).newbyteorder("<")
    return np.frombuffer(data, dtype=dtype, count=count).astype(type_.numpy_dtype)


# ---------------------------------------------------------------------------
# Varints (LEB128, unsigned)
# ---------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a ULEB128 varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one varint at ``pos``; returns ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ---------------------------------------------------------------------------
# Bit-packing
# ---------------------------------------------------------------------------


def bit_width_for(max_value: int) -> int:
    """Minimal bit width needed to represent values in ``[0, max_value]``."""
    if max_value < 0:
        raise ValueError("bit packing requires non-negative values")
    return max(1, int(max_value).bit_length())


def bitpack_encode(codes: np.ndarray, bit_width: int) -> bytes:
    """Pack non-negative integer codes at ``bit_width`` bits per value."""
    if len(codes) == 0:
        return b""
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.max(initial=0) >= (1 << bit_width):
        raise ValueError(f"value exceeds bit width {bit_width}")
    # Expand to a bit matrix (LSB first per value), then pack.
    shifts = np.arange(bit_width, dtype=np.uint64)
    bits = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def bitpack_decode(data: bytes, bit_width: int, count: int) -> np.ndarray:
    """Inverse of :func:`bitpack_encode`; returns int64 codes."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: count * bit_width]
    bits = bits.reshape(count, bit_width).astype(np.int64)
    weights = (1 << np.arange(bit_width, dtype=np.int64))
    return bits @ weights


# ---------------------------------------------------------------------------
# Run-length encoding
# ---------------------------------------------------------------------------


def encode_varint_array(values: np.ndarray) -> np.ndarray:
    """ULEB128-encode a whole array of non-negative ints in one pass.

    Byte counts come from threshold comparisons, byte positions from a
    cumsum, and every output byte is computed by one vectorized
    shift/mask over a ``repeat``-expanded value array.  Byte-identical
    to concatenating :func:`encode_varint` of each value.
    """
    values = values.astype(np.uint64)
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    max_bits = int(values.max()).bit_length()
    if max_bits <= 7:
        # Common case (small run lengths and dictionary codes): every
        # varint is a single byte, so the encoding is a plain narrowing.
        return values.astype(np.uint8)
    nbytes = np.ones(n, dtype=np.int64)
    for shift in range(7, max_bits, 7):
        nbytes += values >= (np.uint64(1) << np.uint64(shift))
    offsets = np.concatenate(([0], np.cumsum(nbytes)))
    total = int(offsets[-1])
    owner = np.repeat(np.arange(n, dtype=np.int64), nbytes)
    rank = (np.arange(total, dtype=np.int64) - offsets[owner]).astype(np.uint64)
    out = ((values[owner] >> (np.uint64(7) * rank)) & np.uint64(0x7F)).astype(np.uint8)
    out[rank < (nbytes[owner] - 1).astype(np.uint64)] |= 0x80
    return out


def decode_varint_stream(data: np.ndarray) -> np.ndarray:
    """Decode every complete ULEB128 varint in ``data`` (a uint8 array).

    Varint boundaries are the bytes with the continuation bit clear;
    each group's bytes are combined with one shifted-accumulate via
    ``np.add.reduceat``.  Trailing bytes after the last terminator are
    ignored (an incomplete varint), matching the scalar parser's
    stop-on-demand behaviour.
    """
    if data.size == 0:
        return np.zeros(0, dtype=np.int64)
    if int(data.max()) < 0x80:
        # No continuation bits anywhere: the stream is its own decoding.
        return data.astype(np.int64)
    ends = np.flatnonzero(data < 0x80)
    if len(ends) == 0:
        return np.zeros(0, dtype=np.int64)
    used = int(ends[-1]) + 1
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if int((ends - starts).max()) >= 10:
        raise ValueError("varint too long")
    rank = np.arange(used, dtype=np.int64) - np.repeat(starts, ends - starts + 1)
    contrib = (data[:used].astype(np.int64) & 0x7F) << (7 * rank)
    return np.add.reduceat(contrib, starts)


def rle_encode(codes: np.ndarray) -> bytes:
    """Run-length encode integer codes as (varint length, varint value) pairs.

    Runs are found with one ``np.diff`` boundary scan and both varint
    columns are emitted by a single batched varint pass — no per-run
    Python loop.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if len(codes) == 0:
        return b""
    if codes.min() < 0:
        raise ValueError("RLE requires non-negative codes")
    boundaries = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(codes)]))
    pairs = np.empty(2 * len(starts), dtype=np.int64)
    pairs[0::2] = ends - starts
    pairs[1::2] = codes[starts]
    return encode_varint_array(pairs).tobytes()


def rle_decode(data, count: int) -> np.ndarray:
    """Inverse of :func:`rle_encode`; accepts any byte buffer."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    arr = np.frombuffer(data, dtype=np.uint8)
    pairs = decode_varint_stream(arr)
    runs = pairs[0::2]
    values = pairs[1 : 2 * len(runs) : 2]
    if len(values) < len(runs):
        runs = runs[:-1]  # trailing run length without its value
    total = np.cumsum(runs)
    stop = int(np.searchsorted(total, count, side="left"))
    if stop >= len(total):
        filled = int(total[-1]) if len(total) else 0
        raise ValueError(f"RLE stream decoded {filled} values, expected {count}")
    filled = int(total[stop])
    if filled != count:
        raise ValueError(f"RLE stream decoded {filled} values, expected {count}")
    return np.repeat(values[: stop + 1], runs[: stop + 1])


# ---------------------------------------------------------------------------
# Index streams (hybrid RLE / bit-pack, chosen per stream)
# ---------------------------------------------------------------------------

_INDEX_RLE = 0
_INDEX_BITPACK = 1


def encode_index_stream(codes: np.ndarray, bit_width: int) -> bytes:
    """Encode dictionary indices, choosing the smaller of RLE and bit-packing.

    The one-byte header records which variant was used.  Only one of
    the two is built: bit-packing takes ``ceil(n * bit_width / 8)``
    bytes and RLE at least two per run, so the run count rules RLE out
    for most streams, and an RLE stream that fits under the packed
    length (it wins a tie) makes the packing unnecessary.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = len(codes)
    if n == 0:
        return bytes([_INDEX_RLE])
    if codes.min() < 0:
        raise ValueError("RLE requires non-negative codes")
    if codes.max() >= (1 << bit_width):
        raise ValueError(f"value exceeds bit width {bit_width}")
    packed_len = (n * bit_width + 7) // 8
    runs = 1 + np.count_nonzero(codes[1:] != codes[:-1])
    if 2 * runs <= packed_len:
        rle = rle_encode(codes)
        if len(rle) <= packed_len:
            return bytes([_INDEX_RLE]) + rle
    return bytes([_INDEX_BITPACK]) + bitpack_encode(codes, bit_width)


def decode_index_stream(data: bytes, bit_width: int, count: int) -> np.ndarray:
    """Inverse of :func:`encode_index_stream`."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    kind = data[0]
    body = data[1:]
    if kind == _INDEX_RLE:
        return rle_decode(body, count)
    if kind == _INDEX_BITPACK:
        return bitpack_decode(body, bit_width, count)
    raise ValueError(f"unknown index stream kind {kind}")


# ---------------------------------------------------------------------------
# Dictionary building
# ---------------------------------------------------------------------------


def _dictionary_keys(type_: ColumnType, values: np.ndarray) -> np.ndarray:
    """What a numeric dictionary tells values apart by: the value itself,
    or a DOUBLE's bit pattern (so ``-0.0`` is not ``0.0``, every NaN
    payload is its own entry, and sorting needs no NaN special case)."""
    values = np.asarray(values, dtype=type_.numpy_dtype)
    return values.view(np.int64) if type_ is ColumnType.DOUBLE else values


def distinct_values(type_: ColumnType, values: np.ndarray):
    """The chunk's distinct values: a ``set`` of the strings, or the sorted
    distinct :func:`_dictionary_keys` (one ``np.sort`` and a neighbour
    compare).  Its ``len()`` decides plain vs dictionary without building
    a dictionary; a numeric :func:`build_dictionary` starts from it.
    """
    if type_ is ColumnType.STRING:
        return set(values.tolist())
    # Not np.unique: numpy >= 2.3 hashes integers first, 3-15x slower here.
    ordered = np.sort(_dictionary_keys(type_, values))
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def build_dictionary(
    type_: ColumnType, values: np.ndarray, distinct=None
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(unique_values, codes)`` with uniques in first-appearance order.

    Strings: ``dict.fromkeys`` lists the uniques in first-appearance
    order and one ``map`` of the value -> code table emits the codes,
    both at C speed.  Numerics: each value's rank among the sorted
    distinct keys (``distinct``: the caller's :func:`distinct_values`
    if it already has them), then ranks are renumbered by the first
    row each appears at, as Parquet writers order a dictionary.
    """
    n = len(values)
    if type_ is ColumnType.STRING:
        items = values.tolist()
        uniques = list(dict.fromkeys(items))
        code_of = dict(zip(uniques, range(len(uniques))))
        codes = np.fromiter(map(code_of.__getitem__, items), dtype=np.int64, count=n)
        return np.array(uniques, dtype=object), codes
    keys = _dictionary_keys(type_, values)
    if distinct is None:
        distinct = distinct_values(type_, values)
    ranks = np.searchsorted(distinct, keys)
    first_row = np.full(len(distinct), n, dtype=np.int64)
    np.minimum.at(first_row, ranks, np.arange(n))
    order = np.argsort(first_row)
    renumber = np.empty(len(distinct), dtype=np.int64)
    renumber[order] = np.arange(len(distinct))
    uniques = distinct[order]
    if type_ is ColumnType.DOUBLE:
        uniques = uniques.view(np.float64)
    return uniques, renumber[ranks]


def should_use_dictionary(num_values: int, num_unique: int) -> bool:
    """Heuristic mirroring Parquet writers: dictionary pays off when the
    column repeats values; fall back to plain for near-unique columns."""
    if num_values == 0:
        return False
    return num_unique <= max(1, num_values // 2) and num_unique < (1 << 20)

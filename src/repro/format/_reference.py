"""Retained scalar reference implementations of the format data plane.

These are the original byte-at-a-time / per-value implementations that
the vectorized production code in :mod:`repro.format.compression` and
:mod:`repro.format.encoding` replaced.  They are kept for three reasons:

* the differential test suite round-trips the vectorized paths against
  them over randomized inputs (``tests/format/test_dataplane_differential``);
* ``python -m repro.bench bench dataplane`` measures the vectorized
  speedup against them and holds it to committed floors;
* they document the wire format in the most literal way possible.

They must stay byte-compatible with the production code: the *plain*,
*RLE*, and *varint* encoders produce byte-identical streams; the scalar
Snappy compressor produces a different (but format-compatible) token
stream than the vectorized one, so equality is checked on round-tripped
values, not on compressed bytes.
"""

from __future__ import annotations

import struct

import numpy as np

_MIN_MATCH = 4
_MAX_MATCH = 0x7F + _MIN_MATCH
_MAX_LITERAL = 128
_MAX_OFFSET = 0xFFFF
_HASH_BYTES = 4


class ScalarSnappyCodec:
    """The original greedy hash-chain LZ77 compressor (byte-at-a-time)."""

    name = "snappy-scalar"

    def compress(self, data: bytes) -> bytes:
        data = bytes(data)
        n = len(data)
        out = bytearray(struct.pack("<I", n))
        if n < _MIN_MATCH:
            self._emit_literals(out, data, 0, n)
            return bytes(out)

        table: dict[bytes, int] = {}
        i = 0
        literal_start = 0
        limit = n - _HASH_BYTES
        while i <= limit:
            key = data[i : i + _HASH_BYTES]
            candidate = table.get(key)
            table[key] = i
            if candidate is not None and i - candidate <= _MAX_OFFSET:
                # Extend the match forward.
                length = _HASH_BYTES
                max_len = min(_MAX_MATCH, n - i)
                while length < max_len and data[candidate + length] == data[i + length]:
                    length += 1
                if length >= _MIN_MATCH:
                    self._emit_literals(out, data, literal_start, i)
                    out.append(0x80 | (length - _MIN_MATCH))
                    out += struct.pack("<H", i - candidate)
                    i += length
                    literal_start = i
                    continue
            i += 1
        self._emit_literals(out, data, literal_start, n)
        return bytes(out)

    @staticmethod
    def _emit_literals(out: bytearray, data: bytes, start: int, end: int) -> None:
        pos = start
        while pos < end:
            run = min(_MAX_LITERAL, end - pos)
            out.append(run - 1)
            out += data[pos : pos + run]
            pos += run

    def decompress(self, data: bytes) -> bytes:
        data = bytes(data)
        (n,) = struct.unpack_from("<I", data, 0)
        out = bytearray()
        pos = 4
        while len(out) < n:
            tag = data[pos]
            pos += 1
            if tag < 0x80:
                run = tag + 1
                out += data[pos : pos + run]
                pos += run
            else:
                length = (tag & 0x7F) + _MIN_MATCH
                (offset,) = struct.unpack_from("<H", data, pos)
                pos += 2
                if offset == 0 or offset > len(out):
                    raise ValueError("corrupt snappy stream: bad offset")
                start = len(out) - offset
                if offset >= length:
                    out += out[start : start + length]
                else:
                    # Overlapping copy: extend byte-by-byte (run replication).
                    for j in range(length):
                        out.append(out[start + j])
        if len(out) != n:
            raise ValueError(f"corrupt snappy stream: got {len(out)} bytes, expected {n}")
        return bytes(out)


def encode_plain_strings(values: np.ndarray) -> bytes:
    """Per-value length-prefixed UTF-8 encoding (original loop)."""
    parts = []
    for v in values:
        raw = v.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_plain_strings(data: bytes, count: int) -> np.ndarray:
    """Per-value length-prefixed UTF-8 decoding (original loop)."""
    data = bytes(data)
    out = np.empty(count, dtype=object)
    pos = 0
    for i in range(count):
        (length,) = struct.unpack_from("<I", data, pos)
        pos += 4
        out[i] = data[pos : pos + length].decode("utf-8")
        pos += length
    return out


def _encode_varint(value: int) -> bytes:
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


def _decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def rle_encode(codes: np.ndarray) -> bytes:
    """Per-run varint emission (original loop)."""
    codes = np.asarray(codes, dtype=np.int64)
    if len(codes) == 0:
        return b""
    if codes.min() < 0:
        raise ValueError("RLE requires non-negative codes")
    boundaries = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(codes)]))
    out = bytearray()
    for s, e in zip(starts, ends):
        out += _encode_varint(int(e - s))
        out += _encode_varint(int(codes[s]))
    return bytes(out)


def rle_decode(data: bytes, count: int) -> np.ndarray:
    """Per-run varint parsing (original loop)."""
    data = bytes(data)
    out = np.empty(count, dtype=np.int64)
    pos = 0
    filled = 0
    while filled < count:
        run, pos = _decode_varint(data, pos)
        value, pos = _decode_varint(data, pos)
        out[filled : filled + run] = value
        filled += run
    if filled != count:
        raise ValueError(f"RLE stream decoded {filled} values, expected {count}")
    return out


def build_string_dictionary(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-value dict-probe dictionary build (original loop)."""
    mapping: dict[str, int] = {}
    codes = np.empty(len(values), dtype=np.int64)
    uniques: list[str] = []
    for i, v in enumerate(values):
        code = mapping.get(v)
        if code is None:
            code = len(uniques)
            mapping[v] = code
            uniques.append(v)
        codes[i] = code
    uniq_arr = np.empty(len(uniques), dtype=object)
    for i, v in enumerate(uniques):
        uniq_arr[i] = v
    return uniq_arr, codes


def build_vandermonde_encoding_matrix(n: int, k: int) -> np.ndarray:
    """The original row-reduced Vandermonde systematic matrix.

    The production coder moved to a normalized Cauchy construction whose
    first parity row is all ones; this retains the seed's matrix so the
    benchmark baseline reproduces the seed's (dense) coefficient
    structure exactly.
    """
    from repro.ec import gf256

    vander = gf256.gf_vandermonde(n, k)
    top_inv = gf256.gf_mat_inv(vander[:k, :k])
    return gf256.gf_matmul(vander, top_inv)


class ScalarReedSolomon:
    """The original per-shard ``gf_addmul_bytes`` Reed-Solomon coder."""

    def __init__(self, n: int, k: int) -> None:
        self.n, self.k = n, k
        self.matrix = build_vandermonde_encoding_matrix(n, k)
        self._inversion_cache: dict[tuple[int, ...], np.ndarray] = {}

    def encode(self, data_blocks: list[np.ndarray]) -> list[np.ndarray]:
        from repro.ec import gf256

        size = data_blocks[0].size
        parities = []
        for row in range(self.k, self.n):
            acc = np.zeros(size, dtype=np.uint8)
            for col in range(self.k):
                gf256.gf_addmul_bytes(acc, int(self.matrix[row, col]), data_blocks[col])
            parities.append(acc)
        return parities

    def decode(self, shards: list[np.ndarray | None]) -> list[np.ndarray]:
        from repro.ec import gf256

        present = [i for i, s in enumerate(shards) if s is not None]
        rows = tuple(present[: self.k])
        inv = self._inversion_cache.get(rows)
        if inv is None:
            inv = gf256.gf_mat_inv(self.matrix[list(rows), :])
            self._inversion_cache[rows] = inv
        size = shards[rows[0]].size  # type: ignore[union-attr]
        out: list[np.ndarray] = []
        for data_idx in range(self.k):
            acc = np.zeros(size, dtype=np.uint8)
            for j, shard_idx in enumerate(rows):
                shard = np.ascontiguousarray(shards[shard_idx], dtype=np.uint8)
                gf256.gf_addmul_bytes(acc, int(inv[data_idx, j]), shard)
            out.append(acc)
        return out


__all__ = [
    "ScalarSnappyCodec",
    "encode_plain_strings",
    "decode_plain_strings",
    "rle_encode",
    "rle_decode",
    "build_string_dictionary",
    "build_vandermonde_encoding_matrix",
    "ScalarReedSolomon",
]

"""Byte-level compression codecs for column chunk pages.

Three codecs are provided:

* ``none`` — identity.
* ``zlib`` — the stdlib DEFLATE implementation (fast C path; the default
  for generated datasets).
* ``snappy`` — a pure-Python LZ77 codec with a Snappy-style tokenised
  format (literal runs + back-references), standing in for the Snappy
  codec the paper's Parquet files use.  Compression ratios land in the
  same regime; the format is self-describing and round-trips exactly.

The snappy compressor is vectorized with numpy: instead of the original
byte-at-a-time hash-chain walk (retained as
:class:`repro.format._reference.ScalarSnappyCodec` for differential
testing), it packs every 4-byte window into a uint32 key, finds each
position's most recent prior occurrence with one stable argsort, groups
positions whose back-reference distance is constant into runs
(``np.flatnonzero(np.diff(...))``), and emits whole runs as match-token
blocks.  Both compressors emit the same self-describing token stream and
each can decompress the other's output; the chosen tokens differ, so
compressed bytes are not identical between the two.

All codecs accept any C-contiguous buffer (``bytes``, ``bytearray``,
``memoryview``, uint8 ``np.ndarray``) so the store's zero-copy read path
can hand them block views without materializing copies.

Codecs are looked up by name via :func:`get_codec` so that file metadata
can record which codec each chunk used.
"""

from __future__ import annotations

import zlib
from typing import Protocol

import numpy as np


class Codec(Protocol):
    """A byte-level compression codec."""

    name: str

    def compress(self, data: bytes) -> bytes: ...

    def decompress(self, data: bytes) -> bytes: ...


class NoneCodec:
    """Identity codec."""

    name = "none"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data


class ZlibCodec:
    """DEFLATE via the stdlib; level 6 balances ratio and speed."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        self._level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self._level)

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


# -- Snappy-style LZ77 -------------------------------------------------------
#
# Token format (one byte tag):
#   tag < 0x80            literal run of (tag + 1) bytes follows (1..128)
#   tag >= 0x80           match: length = (tag & 0x7F) + _MIN_MATCH,
#                         followed by a 2-byte little-endian offset (1..65535)
# The stream is prefixed with a varint-free 4-byte uncompressed length.

_MIN_MATCH = 4
_MAX_MATCH = 0x7F + _MIN_MATCH
_MAX_LITERAL = 128
_MAX_OFFSET = 0xFFFF
_HASH_BYTES = 4

#: Below this size the argsort machinery costs more than it saves.
_VECTOR_MIN = 64

#: Window-sampling stride for the vectorized compressor: only every
#: N-th 4-byte window is a match anchor, so the argsort runs over n/N
#: keys instead of n.  Repeats shorter than the stride are still found
#: because the verification pass extends anchors byte-exactly.
_ANCHOR_STRIDE = 8


def _emit_literals(out: bytearray, data, start: int, end: int) -> None:
    """Append the literal run ``data[start:end]`` as <=128-byte tokens.

    Long runs are assembled as one ``(runs, 129)`` numpy block — a tag
    column prepended to the reshaped payload — so incompressible inputs
    cost one pass, not one append per 128 bytes.
    """
    length = end - start
    if length <= 0:
        return
    if length >= 4 * _MAX_LITERAL:
        full = length // _MAX_LITERAL
        arr = np.frombuffer(data, dtype=np.uint8, count=full * _MAX_LITERAL, offset=start)
        block = np.empty((full, _MAX_LITERAL + 1), dtype=np.uint8)
        block[:, 0] = _MAX_LITERAL - 1
        block[:, 1:] = arr.reshape(full, _MAX_LITERAL)
        out += block.tobytes()
        start += full * _MAX_LITERAL
    pos = start
    while pos < end:
        run = min(_MAX_LITERAL, end - pos)
        out.append(run - 1)
        out += data[pos : pos + run]
        pos += run


class SnappyLikeCodec:
    """Vectorized LZ77 compressor with a Snappy-style token stream."""

    name = "snappy"

    def compress(self, data: bytes) -> bytes:
        data = memoryview(data).cast("B") if not isinstance(data, bytes) else data
        n = len(data)
        out = bytearray(n.to_bytes(4, "little"))
        if n < _VECTOR_MIN:
            self._compress_small(out, data, n)
            return bytes(out)

        arr = np.frombuffer(data, dtype=np.uint8)
        m = n - _HASH_BYTES + 1  # number of 4-byte windows
        # Sample every _ANCHOR_STRIDE-th window and pack its 4 bytes into
        # one uint32 key.  Exact keys (not hashes): equal key <=> equal
        # 4 bytes, so every anchor pair is a guaranteed 4-byte match.
        anchors = np.arange(0, m, _ANCHOR_STRIDE, dtype=np.int64)
        key = arr[anchors].astype(np.uint32)
        key |= arr[anchors + 1].astype(np.uint32) << np.uint32(8)
        key |= arr[anchors + 2].astype(np.uint32) << np.uint32(16)
        key |= arr[anchors + 3].astype(np.uint32) << np.uint32(24)

        # For each anchor, its most recent prior anchor with the same
        # key: stable-sort anchors by key; equal-key sorted neighbours
        # are exactly those predecessors.  Periodic data with period P
        # resolves to a back-reference distance that is the smallest
        # multiple of P aligned to the stride — still a valid offset.
        order = np.argsort(key, kind="stable")
        same = key[order[1:]] == key[order[:-1]]
        na = len(anchors)
        dist = np.zeros(na, dtype=np.int64)
        tails = order[1:][same]
        dist[tails] = (tails - order[:-1][same]) * _ANCHOR_STRIDE
        dist[dist > _MAX_OFFSET] = 0

        # Group consecutive anchors sharing one distance; each group is
        # one candidate repeated region, verified below with a single
        # vectorized byte comparison at that distance.
        change = np.flatnonzero(np.diff(dist)) + 1
        gstarts = np.concatenate(([0], change))
        gdist = dist[gstarts]
        keep = gdist > 0
        gstarts_l = anchors[gstarts[keep]].tolist()
        gends_l = anchors[np.concatenate((change, [na]))[keep] - 1].tolist()
        gdists_l = gdist[keep].tolist()
        if len(gstarts_l) > max(32, na // 8):
            # Fragmented match structure (e.g. low-cardinality noise):
            # per-group dispatch would dominate and the sampled anchors
            # find poorer matches than the exhaustive walk, so the
            # scalar compressor is both faster and tighter here.
            self._compress_small(out, data, n)
            return bytes(out)

        cur = 0
        for s, e, d in zip(gstarts_l, gends_l, gdists_l):
            # Candidate region: the group's anchors plus the unsampled
            # slack on both sides; clamp so the source stays in bounds.
            lo = max(s - _ANCHOR_STRIDE + 1, d, cur)
            hi = min(e + _HASH_BYTES - 1 + _ANCHOR_STRIDE, n)
            if hi - lo < _MIN_MATCH:
                continue
            eq = arr[lo:hi] == arr[lo - d : hi - d]
            flips = np.flatnonzero(np.diff(eq)) + 1
            bounds = np.empty(len(flips) + 2, dtype=np.int64)
            bounds[0] = 0
            bounds[1:-1] = flips
            bounds[-1] = hi - lo
            first_true = 0 if eq[0] else 1
            for t in range(first_true, len(bounds) - 1, 2):
                ms = lo + int(bounds[t])
                me = lo + int(bounds[t + 1])
                if ms < cur:
                    ms = cur
                rem = me - ms
                if rem < _MIN_MATCH:
                    continue
                _emit_literals(out, data, cur, ms)
                d_lo = d & 0xFF
                d_hi = d >> 8
                full, tail = divmod(rem, _MAX_MATCH)
                if 0 < tail < _MIN_MATCH:
                    # Steal one full token so the tail stays >= _MIN_MATCH.
                    full -= 1
                    tail += _MAX_MATCH
                if full:
                    out += bytes((0x80 | (_MAX_MATCH - _MIN_MATCH), d_lo, d_hi)) * full
                if tail > _MAX_MATCH:
                    out += bytes((0x80 | (tail - _MIN_MATCH - _MIN_MATCH), d_lo, d_hi))
                    tail = _MIN_MATCH
                if tail:
                    out += bytes((0x80 | (tail - _MIN_MATCH), d_lo, d_hi))
                cur = me
        _emit_literals(out, data, cur, n)
        return bytes(out)

    def _compress_small(self, out: bytearray, data, n: int) -> None:
        """The greedy hash-chain walk (tiny or fragmented page inputs,
        where it beats the numpy setup).

        A 4-byte window whose key is unique in the buffer can neither find
        a candidate nor be one, so only the windows a numpy pre-pass finds
        repeated are visited, for the same tokens.  Tiny inputs, and long
        runs of one byte (packed sparse or near-full bit vectors, where
        matches jump most of the buffer anyway), skip the pre-pass and
        visit them all.
        """
        if not isinstance(data, bytes):
            data = bytes(data)  # hashable 4-byte slices without a wrap each
        windows = n - _HASH_BYTES + 1
        if n < _VECTOR_MIN or 3 * max(data.count(0), data.count(255)) >= 2 * n:
            visit = range(windows)
        else:
            keys = np.ndarray((windows,), "<u4", data, 0, (1,))  # overlapping, no copy
            ordered = np.sort(keys)
            repeated = ordered[1:][ordered[1:] == ordered[:-1]]
            visit = ()
            if repeated.size:
                hits = repeated.take(repeated.searchsorted(keys), mode="clip") == keys
                visit = np.flatnonzero(hits).tolist()
        table: dict[bytes, int] = {}
        lookup = table.get
        literal_start = 0
        for i in visit:
            if i < literal_start:
                continue  # inside the previous match
            chunk = data[i : i + _HASH_BYTES]
            candidate = lookup(chunk)
            table[chunk] = i
            if candidate is None or i - candidate > _MAX_OFFSET:
                continue
            # Extend the match a slice at a time, then byte by byte.
            shift = i - candidate
            pos = i + _HASH_BYTES
            end = min(i + _MAX_MATCH, n)
            while pos + 8 <= end and data[pos : pos + 8] == data[pos - shift : pos - shift + 8]:
                pos += 8
            while pos < end and data[pos] == data[pos - shift]:
                pos += 1
            # Pending literals (runs here are short: rarely > 128 bytes).
            while literal_start < i:
                run = min(_MAX_LITERAL, i - literal_start)
                out.append(run - 1)
                out += data[literal_start : literal_start + run]
                literal_start += run
            out.append(0x80 | (pos - i - _MIN_MATCH))
            out += shift.to_bytes(2, "little")
            literal_start = pos
        _emit_literals(out, data, literal_start, n)

    def compress_greedy(self, data: bytes) -> bytes:
        """Greedy hash-chain tokenisation at every size.

        Emits the exact token stream of the original byte-at-a-time
        compressor.  Small run-structured payloads compress tighter under
        the exhaustive greedy walk and are too small to amortise the
        vectorized setup.
        """
        data = memoryview(data).cast("B") if not isinstance(data, bytes) else data
        n = len(data)
        out = bytearray(n.to_bytes(4, "little"))
        self._compress_small(out, data, n)
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        buf = data if isinstance(data, (bytes, bytearray)) else memoryview(data).cast("B")
        size = len(buf)
        if size < 4:
            raise ValueError("corrupt snappy stream: truncated header")
        n = int.from_bytes(buf[:4], "little")
        out = bytearray(n)  # preallocated; w is the write cursor
        pos = 4
        w = 0
        while w < n:
            if pos >= size:
                raise ValueError("corrupt snappy stream: truncated token")
            tag = buf[pos]
            pos += 1
            if tag < 0x80:
                run = tag + 1
                end = pos + run
                if end > size:
                    raise ValueError("corrupt snappy stream: truncated literal")
                if w + run > n:
                    raise ValueError("corrupt snappy stream: output overrun")
                out[w : w + run] = buf[pos:end]
                pos = end
                w += run
            else:
                length = (tag & 0x7F) + _MIN_MATCH
                if pos + 2 > size:
                    raise ValueError("corrupt snappy stream: truncated match")
                offset = buf[pos] | (buf[pos + 1] << 8)
                if offset == 0 or offset > w:
                    raise ValueError("corrupt snappy stream: bad offset")
                # Coalesce consecutive identical match tokens (the
                # compressor splits long repeated regions into runs of
                # them): any such run extends the output by out[x] =
                # out[x - offset], so it replicates in one pass.
                token = buf[pos - 1 : pos + 2]
                pos += 2
                while buf[pos : pos + 3] == token:
                    length += (tag & 0x7F) + _MIN_MATCH
                    pos += 3
                if w + length > n:
                    raise ValueError("corrupt snappy stream: output overrun")
                start = w - offset
                if offset >= length:
                    out[w : w + length] = out[start : start + length]
                else:
                    # Overlapping copy (run replication): write one
                    # period, then double it — O(log) slice copies
                    # instead of the old byte-at-a-time append.
                    out[w : w + offset] = out[start:w]
                    written = offset
                    while written < length:
                        take = min(written, length - written)
                        out[w + written : w + written + take] = out[w : w + take]
                        written += take
                w += length
        return bytes(out)


class GreedySnappyCodec(SnappyLikeCodec):
    """Snappy-format codec that always uses the greedy tokeniser.

    Same self-describing stream (either codec decompresses the other's
    output); registered separately so a size-sensitive caller can pin
    the greedy token choice.  Filter bitmaps did until they got their own
    wire frame (``repro.sql.bitmap``); the name stays registered because
    the repo benchmark derives its metric names from ``codec_names()``.
    """

    name = "snappy-greedy"

    def compress(self, data: bytes) -> bytes:
        return self.compress_greedy(data)


_CODECS: dict[str, Codec] = {
    "none": NoneCodec(),
    "zlib": ZlibCodec(),
    "snappy": SnappyLikeCodec(),
    "snappy-greedy": GreedySnappyCodec(),
}

#: Codec used by the dataset generators (zlib: C-speed stand-in for Snappy).
DEFAULT_CODEC = "zlib"


def get_codec(name: str) -> Codec:
    """Look up a codec by name; raises ``KeyError`` with the known names."""
    try:
        return _CODECS[name]
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; known: {sorted(_CODECS)}") from None


def codec_names() -> list[str]:
    return sorted(_CODECS)

"""Filter-result bitmaps and their wire form.

Fusion's filter stage returns one bitmap per column chunk to the
coordinator, compressed (paper Section 5).  :class:`Bitmap` wraps a
boolean numpy array with the logical operations the coordinator needs
and a Roaring-style wire frame whose size is charged to the network
model: ``<I`` row count, one container tag, body.  The container is the
smallest of the set positions, the unset positions, the lengths of the
alternating runs and the raw packed bits, so the size follows from two
counts - cardinality and number of runs - without building the frame.
"""

from __future__ import annotations

import struct

import numpy as np

_HEADER = struct.Struct("<IB")  # row count, container tag
#: Container tags; on equal sizes the lower tag wins.  A run-length body
#: starts with a run of the bit its tag names (``_RUNS + first bit``).
_EMPTY, _FULL, _SET, _UNSET, _RUNS, _RAW = 0, 1, 2, 3, 4, 6


def _width(n: int) -> int:
    """Bytes per position or run length, both ``< n`` (one run of ``n``
    is the empty or the full container)."""
    return 1 if n <= 1 << 8 else 2 if n <= 1 << 16 else 4


class Bitmap:
    """A fixed-length boolean vector of row matches.

    A value object: ``bits`` is not mutated after construction, so the
    cardinality, the set positions and the wire size are each worked out
    at most once.
    """

    __slots__ = ("bits", "_card", "_indices", "_wire")

    def __init__(self, bits: np.ndarray) -> None:
        self.bits = np.asarray(bits, dtype=np.bool_)
        self._card: int | None = None
        self._indices: np.ndarray | None = None
        self._wire: int | None = None

    @staticmethod
    def zeros(n: int) -> "Bitmap":
        bitmap = Bitmap(np.zeros(n, dtype=np.bool_))
        bitmap._card = 0
        return bitmap

    @staticmethod
    def ones(n: int) -> "Bitmap":
        bitmap = Bitmap(np.ones(n, dtype=np.bool_))
        bitmap._card = n
        return bitmap

    def __len__(self) -> int:
        return len(self.bits)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        self._check(other)
        return Bitmap(self.bits & other.bits)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        self._check(other)
        return Bitmap(self.bits | other.bits)

    def __invert__(self) -> "Bitmap":
        return Bitmap(~self.bits)

    def _check(self, other: "Bitmap") -> None:
        if len(self.bits) != len(other.bits):
            raise ValueError(f"bitmap length mismatch: {len(self.bits)} vs {len(other.bits)}")

    def count(self) -> int:
        """Number of set bits (matching rows)."""
        if self._card is None:
            self._card = int(np.count_nonzero(self.bits))
        return self._card

    def selectivity(self) -> float:
        """Fraction of rows selected (the paper's query selectivity)."""
        if len(self.bits) == 0:
            return 0.0
        return self.count() / len(self.bits)

    def indices(self) -> np.ndarray:
        """Positions of set bits, as a read-only array (every caller
        shares it)."""
        if self._indices is None:
            indices = np.flatnonzero(self.bits)
            indices.flags.writeable = False
            self._indices = indices
        return self._indices

    def _container(self) -> tuple[int, int]:
        """``(body bytes, tag)`` of the smallest container."""
        bits = self.bits
        n = len(bits)
        card = self.count()
        if card == 0 or card == n:
            return 0, _FULL if card else _EMPTY
        w = _width(n)
        runs = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
        return min(
            (w * card, _SET),
            (w * (n - card), _UNSET),
            (w * runs, _RUNS + int(bits[0])),
            ((n + 7) >> 3, _RAW),
        )

    def wire_size(self) -> int:
        """Bytes this bitmap occupies on the wire: ``5 + min(w * card,
        w * (n - card), w * runs, ceil(n / 8))``, no frame built."""
        if self._wire is None:
            self._wire = _HEADER.size + self._container()[0]
        return self._wire

    def to_wire(self) -> bytes:
        """Serialise into the frame ``wire_size()`` priced."""
        bits = self.bits
        n = len(bits)
        _size, tag = self._container()
        header = _HEADER.pack(n, tag)
        if tag in (_EMPTY, _FULL):
            return header
        if tag == _RAW:
            return header + np.packbits(bits).tobytes()
        if tag == _SET:
            entries = self.indices()
        elif tag == _UNSET:
            entries = np.flatnonzero(~bits)
        else:
            entries = np.diff(np.flatnonzero(bits[1:] != bits[:-1]) + 1, prepend=0, append=n)
        return header + entries.astype(f"<u{_width(n)}").tobytes()

    @staticmethod
    def from_wire(data: bytes) -> "Bitmap":
        """Decode a frame; ``ValueError`` when it does not hold exactly
        the row count its header claims."""
        if len(data) < _HEADER.size:
            raise ValueError("bitmap frame: truncated header")
        n, tag = _HEADER.unpack_from(data)
        body = memoryview(data)[_HEADER.size :]
        if tag > _RAW:
            raise ValueError(f"bitmap frame: unknown container tag {tag}")
        if tag in (_EMPTY, _FULL):
            if len(body):
                raise ValueError("bitmap frame: trailing bytes")
            return Bitmap.ones(n) if tag else Bitmap.zeros(n)
        if tag == _RAW:
            if len(body) != (n + 7) >> 3 or (n & 7 and body[-1] & (0xFF >> (n & 7))):
                raise ValueError(f"bitmap frame: {len(body)} packed bytes do not hold exactly {n} rows")
            return Bitmap(np.unpackbits(np.frombuffer(body, np.uint8), count=n))
        w = _width(n)
        if len(body) % w:
            raise ValueError(f"bitmap frame: body cut inside a {w}-byte entry")
        entries = np.frombuffer(body, f"<u{w}")
        if tag >= _RUNS:
            if int(entries.sum(dtype=np.int64)) != n:
                raise ValueError(f"bitmap frame: run lengths do not sum to {n}")
            return Bitmap(np.repeat((np.arange(len(entries)) + tag) & 1, entries))
        if len(entries) and (entries[-1] >= n or (entries[1:] <= entries[:-1]).any()):
            raise ValueError(f"bitmap frame: positions not ascending below {n}")
        bits = np.full(n, tag == _UNSET)
        bits[entries] = tag == _SET
        return Bitmap(bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bitmap) and np.array_equal(self.bits, other.bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bitmap({self.count()}/{len(self.bits)})"

"""Filter-result bitmaps and their compressed wire form.

Fusion's filter stage returns one bitmap per column chunk to the
coordinator, Snappy-compressed (paper Section 5).  :class:`Bitmap` wraps a
boolean numpy array with the logical operations the coordinator needs and
a compressed serialisation whose size is charged to the network model.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.format.compression import get_codec

#: Bitmaps go on the wire through the greedy tokeniser (the paper uses
#: Snappy): packed bitmaps are small and run-structured, where the
#: exhaustive greedy walk compresses tighter than the sampled vectorized
#: matcher, and the resulting wire sizes feed the simulated network model
#: so they must stay stable across compressor heuristics.
_CODEC = get_codec("snappy-greedy")


class Bitmap:
    """A fixed-length boolean vector of row matches.

    A value object: ``bits`` is not mutated after construction, so the
    cardinality is counted and the wire form tokenised at most once.
    """

    __slots__ = ("bits", "_card", "_wire")

    def __init__(self, bits: np.ndarray) -> None:
        self.bits = np.asarray(bits, dtype=np.bool_)
        self._card: int | None = None
        self._wire: bytes | None = None

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
        """Positions of set bits."""
        return np.flatnonzero(self.bits)

    def to_wire(self) -> bytes:
        """Serialise: varint-free header (count) + packed, compressed bits."""
        if self._wire is None:
            packed = np.packbits(self.bits).tobytes()
            self._wire = struct.pack("<I", len(self.bits)) + _CODEC.compress(packed)
        return self._wire

    @staticmethod
    def from_wire(data: bytes) -> "Bitmap":
        (n,) = struct.unpack_from("<I", data, 0)
        packed = _CODEC.decompress(data[4:])
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))[:n]
        return Bitmap(bits.astype(np.bool_))

    def wire_size(self) -> int:
        """Bytes this bitmap occupies on the wire."""
        return len(self.to_wire() if self._wire is None else self._wire)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bitmap) and np.array_equal(self.bits, other.bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bitmap({self.count()}/{len(self.bits)})"

"""Per-object chunk location map (paper Section 5, Metadata Management).

Fusion tracks, for every column chunk, which storage node holds it and
where inside which block.  Each entry costs 8 bytes in the paper (4-byte
chunk offset + 4-byte node id); the map is replicated to ``k + 1`` nodes
so it survives the same number of failures as an RS(n, k) stripe.

Each entry also carries an end-to-end checksum over the chunk's raw
bytes, computed once at Put and verified at every reader (query ops,
whole-chunk Gets, degraded-read reconstructions, repair rewrites) so
silent corruption is detected before bad bytes reach a client.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

#: Paper's on-wire size of one location entry, in bytes (the checksum
#: adds 4 more on the wire).
ENTRY_BYTES = 8

#: Extra wire bytes per entry for the chunk checksum.
CHECKSUM_BYTES = 4


def chunk_checksum(data) -> int:
    """End-to-end checksum of one chunk/block payload.

    CRC32 (zlib) standing in for CRC32C — same width and detection
    class; the hardware-accelerated polynomial is an implementation
    detail the simulation does not model.  ``data`` may be any
    C-contiguous buffer (bytes, memoryview, uint8 array view); the CRC
    runs directly over the view without copying.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


class ChecksumError(RuntimeError):
    """Read bytes do not match the checksum recorded at Put."""


@dataclass(frozen=True)
class ChunkLocation:
    """Where one column chunk physically lives."""

    chunk_key: tuple[int, int]  # (row_group, column_index)
    node_id: int
    block_id: str
    offset_in_block: int
    size: int
    #: CRC of the chunk's raw bytes at Put time (0 = not recorded).
    checksum: int = 0


@dataclass
class LocationMap:
    """All chunk locations for one object, plus replication bookkeeping."""

    object_name: str
    entries: dict[tuple[int, int], ChunkLocation] = field(default_factory=dict)
    replica_nodes: tuple[int, ...] = ()

    def add(self, location: ChunkLocation) -> None:
        if location.chunk_key in self.entries:
            raise ValueError(f"duplicate location for chunk {location.chunk_key}")
        self.entries[location.chunk_key] = location

    def lookup(self, chunk_key: tuple[int, int]) -> ChunkLocation:
        try:
            return self.entries[chunk_key]
        except KeyError:
            raise KeyError(
                f"object {self.object_name!r} has no chunk {chunk_key}"
            ) from None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def wire_size(self) -> int:
        """Bytes to replicate this map (paper: 8 bytes per entry).

        Chunk checksums ride the same replica writes but are kept out of
        this figure so it stays the paper's accounting (8 bytes/entry).
        """
        return ENTRY_BYTES * len(self.entries)

    def snapshot(self) -> dict[tuple[int, int], ChunkLocation]:
        """Copy of the entries for a metadata replica (entries are frozen,
        so a shallow dict copy is a true snapshot)."""
        return dict(self.entries)

"""Fixed-block striping — the conventional layout of MinIO/Ceph-like stores.

The object is treated as a blob: cut into ``block_size`` pieces in byte
order, grouped ``k`` per stripe.  Column chunks that straddle a block
boundary are *split* across blocks (and therefore across storage nodes),
which is precisely the behaviour Figures 4a and 12 quantify and FAC
eliminates.

Because layout algorithms elsewhere operate on whole-chunk assignments,
this module has its own representation: byte-range blocks plus a locator
from object byte ranges to block fragments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ec.reed_solomon import CodeParams


@dataclass(frozen=True)
class BlockExtent:
    """One fixed-size block: a byte range of the original object."""

    index: int
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


@dataclass(frozen=True)
class Fragment:
    """A piece of a logical byte range as stored in one block."""

    block_index: int
    block_offset: int
    length: int


@dataclass
class FixedLayout:
    """Fixed-block striping of an object of ``total_bytes``."""

    params: CodeParams
    total_bytes: int
    block_size: int
    blocks: list[BlockExtent]

    @property
    def num_stripes(self) -> int:
        k = self.params.k
        return (len(self.blocks) + k - 1) // k

    def stripe_of(self, block_index: int) -> int:
        return block_index // self.params.k

    def stripe_blocks(self, stripe: int) -> list[BlockExtent]:
        k = self.params.k
        return self.blocks[stripe * k : (stripe + 1) * k]

    def locate(self, offset: int, length: int) -> list[Fragment]:
        """Map an object byte range onto the block fragments covering it."""
        if offset < 0 or offset + length > self.total_bytes:
            raise ValueError(
                f"range [{offset}, {offset + length}) outside object of "
                f"size {self.total_bytes}"
            )
        fragments: list[Fragment] = []
        remaining = length
        pos = offset
        while remaining > 0:
            block_index = pos // self.block_size
            block = self.blocks[block_index]
            within = pos - block.start
            take = min(remaining, block.size - within)
            fragments.append(Fragment(block_index=block_index, block_offset=within, length=take))
            pos += take
            remaining -= take
        return fragments

    @property
    def parity_bytes(self) -> int:
        """Parity cost: each stripe's parity blocks match its largest block."""
        total = 0
        for stripe in range(self.num_stripes):
            blocks = self.stripe_blocks(stripe)
            total += self.params.parity * max(b.size for b in blocks)
        return total

    @property
    def stored_bytes(self) -> int:
        return self.total_bytes + self.parity_bytes


def build_fixed_layout(params: CodeParams, total_bytes: int, block_size: int) -> FixedLayout:
    """Cut ``total_bytes`` into ``block_size`` blocks (last one partial)."""
    if block_size <= 0:
        raise ValueError("block size must be positive")
    if total_bytes <= 0:
        raise ValueError("object must be non-empty")
    blocks = []
    pos = 0
    index = 0
    while pos < total_bytes:
        size = min(block_size, total_bytes - pos)
        blocks.append(BlockExtent(index=index, start=pos, size=size))
        pos += size
        index += 1
    return FixedLayout(params=params, total_bytes=total_bytes, block_size=block_size, blocks=blocks)


def fraction_of_chunks_split(
    layout: FixedLayout, chunk_ranges: list[tuple[int, int]]
) -> float:
    """Fraction of chunks whose byte range spans more than one block.

    ``chunk_ranges`` is a list of ``(offset, size)`` pairs.  This is the
    Fig 4a metric.
    """
    if not chunk_ranges:
        return 0.0
    split = sum(
        1 for offset, size in chunk_ranges if len(layout.locate(offset, size)) > 1
    )
    return split / len(chunk_ranges)

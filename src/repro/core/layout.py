"""Stripe layout datatypes shared by all placement strategies.

Terminology follows the paper's Table 2: a *bin* is one erasure-code data
block; a *bin set* is the ``k`` data blocks of one stripe; a layout maps
every column chunk of an object into exactly one bin.  The accounting
methods implement the paper's storage-overhead definition: parity blocks
in a stripe materialise at the size of the stripe's largest data block,
so a layout's overhead relative to the optimal ``(n-k)/k`` is driven by
how evenly its bins are packed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ec.reed_solomon import CodeParams


@dataclass(frozen=True)
class ChunkItem:
    """One column chunk as seen by layout algorithms: an id and a size.

    ``key`` is the chunk's stable identity within its file —
    ``(row_group, column_index)`` — and ``size`` its encoded byte size.
    Items with a negative row group are padding markers (used only by the
    padding strategy, which stores pad bytes as real data).
    """

    key: tuple[int, int]
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"chunk {self.key} has negative size")

    @property
    def is_padding(self) -> bool:
        return self.key[0] < 0


@dataclass
class Bin:
    """One data block: an ordered list of whole column chunks."""

    items: list[ChunkItem] = field(default_factory=list)

    @property
    def occupied(self) -> int:
        return sum(item.size for item in self.items)

    def add(self, item: ChunkItem) -> None:
        self.items.append(item)

    def offsets(self) -> list[tuple[ChunkItem, int]]:
        """Each item with its byte offset inside the block."""
        out = []
        pos = 0
        for item in self.items:
            out.append((item, pos))
            pos += item.size
        return out


@dataclass
class BinSet:
    """One stripe's ``k`` bins."""

    bins: list[Bin]

    @property
    def k(self) -> int:
        return len(self.bins)

    @property
    def max_bin(self) -> int:
        """Size of the largest bin — the stripe's block size for parity."""
        return max(b.occupied for b in self.bins) if self.bins else 0

    @property
    def data_bytes(self) -> int:
        return sum(b.occupied for b in self.bins)

    def items(self) -> list[ChunkItem]:
        return [item for b in self.bins for item in b.items]


@dataclass
class StripeLayout:
    """A complete assignment of an object's chunks into stripes.

    ``strategy`` names the algorithm that produced it (``fac``,
    ``oracle``, ``padding`` or ``fixed``); ``stored_padding_bytes`` is
    non-zero only for the padding strategy, which materialises its pad
    bytes inside the object.
    """

    params: CodeParams
    binsets: list[BinSet]
    strategy: str
    build_seconds: float = 0.0  # real wall-clock runtime of the algorithm
    stored_padding_bytes: int = 0

    @property
    def num_stripes(self) -> int:
        return len(self.binsets)

    @property
    def data_bytes(self) -> int:
        """Original chunk bytes placed (excludes stored padding)."""
        return sum(bs.data_bytes for bs in self.binsets) - self.stored_padding_bytes

    @property
    def objective(self) -> int:
        """The paper's Equation (1): the sum over stripes of the largest bin."""
        return sum(bs.max_bin for bs in self.binsets)

    @property
    def parity_bytes(self) -> int:
        """Physical parity bytes across all stripes."""
        return self.params.parity * self.objective

    @property
    def stored_bytes(self) -> int:
        """All bytes on disk: data + stored padding + parity."""
        return self.data_bytes + self.stored_padding_bytes + self.parity_bytes

    @property
    def optimal_stored_bytes(self) -> float:
        """What a perfectly packed layout would store: ``data * n / k``."""
        return self.data_bytes * (1.0 + self.params.optimal_overhead)

    @property
    def overhead_vs_optimal(self) -> float:
        """Additional storage relative to the optimal, as a fraction.

        This is the paper's "storage overhead w.r.t. optimal (%)" metric
        (divide by 100): 0.0 means perfectly packed stripes.
        """
        optimal = self.optimal_stored_bytes
        if optimal == 0:
            return 0.0
        return (self.stored_bytes - optimal) / optimal

    def chunk_assignment(self) -> dict[tuple[int, int], tuple[int, int, int]]:
        """Map each chunk key to ``(stripe, bin, offset_in_bin)``."""
        out: dict[tuple[int, int], tuple[int, int, int]] = {}
        for sid, bs in enumerate(self.binsets):
            for bid, b in enumerate(bs.bins):
                for item, offset in b.offsets():
                    if item.is_padding:
                        continue
                    if item.key in out:
                        raise ValueError(f"chunk {item.key} assigned twice")
                    out[item.key] = (sid, bid, offset)
        return out

    def validate(self, items: list[ChunkItem]) -> None:
        """Check the layout is a partition of ``items`` (raises on errors)."""
        assigned = self.chunk_assignment()
        expected = {item.key for item in items}
        placed = set(assigned)
        if placed != expected:
            missing = expected - placed
            extra = placed - expected
            raise ValueError(
                f"layout mismatch: missing chunks {sorted(missing)[:5]}, "
                f"unexpected {sorted(extra)[:5]}"
            )

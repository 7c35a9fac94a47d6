"""Layout datatypes: bins, bin sets, overhead accounting."""

import pytest

from repro.core import Bin, BinSet, ChunkItem, StripeLayout
from repro.ec import RS_9_6


def _bin(*sizes, start_key=0):
    b = Bin()
    for i, s in enumerate(sizes):
        b.add(ChunkItem(key=(0, start_key + i), size=s))
    return b


class TestChunkItem:
    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            ChunkItem(key=(0, 0), size=-1)

    def test_padding_marker(self):
        assert ChunkItem(key=(-1, 0), size=5).is_padding
        assert not ChunkItem(key=(0, 0), size=5).is_padding


class TestBin:
    def test_occupied(self):
        assert _bin(10, 20, 5).occupied == 35

    def test_offsets_are_cumulative(self):
        b = _bin(10, 20, 5)
        offsets = [off for _item, off in b.offsets()]
        assert offsets == [0, 10, 30]


class TestBinSet:
    def test_max_bin_and_padding(self):
        bs = BinSet(bins=[_bin(50), _bin(30, start_key=1), _bin(10, start_key=2)])
        assert bs.max_bin == 50
        assert bs.data_bytes == 90

    def test_empty_bins(self):
        bs = BinSet(bins=[Bin(), Bin()])
        assert bs.max_bin == 0
        assert bs.items() == []


class TestStripeLayout:
    def _layout(self):
        bs1 = BinSet(
            bins=[_bin(100)] + [_bin(95 + i, start_key=10 + i) for i in range(5)]
        )
        return StripeLayout(params=RS_9_6, binsets=[bs1], strategy="test")

    def test_parity_bytes(self):
        layout = self._layout()
        assert layout.parity_bytes == 3 * 100

    def test_overhead_zero_for_perfect_packing(self):
        bs = BinSet(bins=[_bin(100, start_key=i) for i in range(6)])
        layout = StripeLayout(params=RS_9_6, binsets=[bs], strategy="test")
        assert layout.overhead_vs_optimal == pytest.approx(0.0)

    def test_overhead_formula(self):
        # One 100-byte block, five empty: stored = 100 + 300, optimal = 150.
        bs = BinSet(bins=[_bin(100)] + [Bin() for _ in range(5)])
        layout = StripeLayout(params=RS_9_6, binsets=[bs], strategy="test")
        assert layout.stored_bytes == 400
        assert layout.overhead_vs_optimal == pytest.approx((400 - 150) / 150)

    def test_chunk_assignment_offsets(self):
        bs = BinSet(bins=[_bin(10, 20), _bin(7, start_key=5)] + [Bin()] * 4)
        layout = StripeLayout(params=RS_9_6, binsets=[bs], strategy="test")
        assignment = layout.chunk_assignment()
        assert assignment[(0, 0)] == (0, 0, 0)
        assert assignment[(0, 1)] == (0, 0, 10)
        assert assignment[(0, 5)] == (0, 1, 0)

    def test_chunk_assignment_skips_padding(self):
        b = Bin()
        b.add(ChunkItem(key=(0, 0), size=10))
        b.add(ChunkItem(key=(-1, 0), size=90))
        layout = StripeLayout(
            params=RS_9_6,
            binsets=[BinSet(bins=[b] + [Bin()] * 5)],
            strategy="test",
            stored_padding_bytes=90,
        )
        assert set(layout.chunk_assignment()) == {(0, 0)}
        assert layout.data_bytes == 10

    def test_duplicate_assignment_raises(self):
        b1 = _bin(10)
        b2 = _bin(5)  # same key (0, 0)
        layout = StripeLayout(
            params=RS_9_6, binsets=[BinSet(bins=[b1, b2] + [Bin()] * 4)], strategy="test"
        )
        with pytest.raises(ValueError, match="twice"):
            layout.chunk_assignment()

    def test_validate_detects_missing(self):
        layout = self._layout()
        items = [ChunkItem(key=(9, 9), size=1)]
        with pytest.raises(ValueError, match="mismatch"):
            layout.validate(items)

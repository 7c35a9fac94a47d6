"""Fixed-block and Padding layouts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChunkItem,
    build_fixed_layout,
    construct_padding_layout,
    fraction_of_chunks_split,
)
from repro.ec import RS_9_6


class TestFixedLayout:
    def test_block_partition(self):
        layout = build_fixed_layout(RS_9_6, total_bytes=250, block_size=100)
        assert [b.size for b in layout.blocks] == [100, 100, 50]
        assert [b.start for b in layout.blocks] == [0, 100, 200]

    def test_locate_within_block(self):
        layout = build_fixed_layout(RS_9_6, 300, 100)
        frags = layout.locate(10, 50)
        assert len(frags) == 1
        assert (frags[0].block_index, frags[0].block_offset, frags[0].length) == (0, 10, 50)

    def test_locate_spanning_blocks(self):
        layout = build_fixed_layout(RS_9_6, 300, 100)
        frags = layout.locate(80, 130)
        assert [(f.block_index, f.block_offset, f.length) for f in frags] == [
            (0, 80, 20),
            (1, 0, 100),
            (2, 0, 10),
        ]

    def test_locate_out_of_bounds(self):
        layout = build_fixed_layout(RS_9_6, 300, 100)
        with pytest.raises(ValueError):
            layout.locate(250, 100)

    @settings(max_examples=100, deadline=None)
    @given(
        total=st.integers(1, 10_000),
        block=st.integers(1, 500),
        offset_frac=st.floats(0, 1),
        length_frac=st.floats(0, 1),
    )
    def test_locate_covers_range_exactly(self, total, block, offset_frac, length_frac):
        layout = build_fixed_layout(RS_9_6, total, block)
        offset = int(offset_frac * (total - 1))
        length = max(1, int(length_frac * (total - offset)))
        frags = layout.locate(offset, length)
        assert sum(f.length for f in frags) == length
        # Fragments are contiguous in object byte order.
        pos = offset
        for f in frags:
            assert layout.blocks[f.block_index].start + f.block_offset == pos
            pos += f.length

    def test_stripe_grouping(self):
        layout = build_fixed_layout(RS_9_6, 100 * 13, 100)
        assert layout.num_stripes == 3
        assert len(layout.stripe_blocks(0)) == 6
        assert len(layout.stripe_blocks(2)) == 1

    def test_parity_bytes_optimal_for_full_stripes(self):
        layout = build_fixed_layout(RS_9_6, 600, 100)
        assert layout.parity_bytes == 300
        assert layout.stored_bytes == 900

    def test_parity_bytes_trailing_partial_stripe(self):
        layout = build_fixed_layout(RS_9_6, 650, 100)
        # The second stripe holds one 50-byte block: parity = 3 * 50 more.
        assert layout.parity_bytes == 300 + 150
        assert layout.stored_bytes == 650 + 450

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_fixed_layout(RS_9_6, 100, 0)
        with pytest.raises(ValueError):
            build_fixed_layout(RS_9_6, 0, 100)

    def test_fraction_split(self):
        layout = build_fixed_layout(RS_9_6, 1000, 100)
        ranges = [(0, 50), (50, 100), (150, 20), (390, 20)]
        # (50,100) spans blocks 0-1; (390,20) spans 3-4.
        assert fraction_of_chunks_split(layout, ranges) == pytest.approx(0.5)

    def test_fraction_split_empty(self):
        layout = build_fixed_layout(RS_9_6, 100, 100)
        assert fraction_of_chunks_split(layout, []) == 0.0

    def test_larger_blocks_split_fewer_chunks(self):
        ranges = [(i * 130, 130) for i in range(50)]
        total = 50 * 130
        small = fraction_of_chunks_split(build_fixed_layout(RS_9_6, total, 100), ranges)
        large = fraction_of_chunks_split(build_fixed_layout(RS_9_6, total, 1000), ranges)
        assert large < small


class TestPaddingLayout:
    def _items(self, sizes):
        return [ChunkItem(key=(0, i), size=s) for i, s in enumerate(sizes)]

    def test_chunks_never_straddle_blocks(self):
        items = self._items([60, 60, 60, 30, 90])
        layout = construct_padding_layout(RS_9_6, items, block_size=100)
        # Every bin holding real chunks must be exactly the block size
        # (padding markers fill the gap).
        for bs in layout.binsets:
            for b in bs.bins:
                if b.items:
                    assert b.occupied == 100

    def test_padding_accounted(self):
        items = self._items([60, 60])  # 60 fits; next 60 doesn't -> pad 40.
        layout = construct_padding_layout(RS_9_6, items, block_size=100)
        assert layout.stored_padding_bytes == 40 + 40  # two part-full blocks
        assert layout.data_bytes == 120

    def test_oversized_chunk_uses_dedicated_blocks(self):
        items = self._items([250])
        layout = construct_padding_layout(RS_9_6, items, block_size=100)
        assert layout.stored_padding_bytes == 50
        # 3 blocks of 100 in one stripe.
        assert layout.binsets[0].max_bin == 100

    def test_overhead_exceeds_fac_for_awkward_sizes(self):
        from repro.core import construct_stripes

        sizes = [55] * 40  # only one 55-byte chunk fits per 100-byte block
        items = self._items(sizes)
        pad = construct_padding_layout(RS_9_6, items, block_size=100)
        fac = construct_stripes(RS_9_6, items)
        assert pad.overhead_vs_optimal > 0.5
        assert fac.overhead_vs_optimal < 0.05

    def test_empty_tail_bins_allowed(self):
        items = self._items([10])
        layout = construct_padding_layout(RS_9_6, items, block_size=100)
        assert layout.binsets[0].k == 6

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            construct_padding_layout(RS_9_6, self._items([10]), block_size=0)

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(1, 300), min_size=1, max_size=60))
    def test_data_bytes_preserved(self, sizes):
        items = self._items(sizes)
        layout = construct_padding_layout(RS_9_6, items, block_size=100)
        assert layout.data_bytes == sum(sizes)

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(1, 99), min_size=1, max_size=60))
    def test_small_chunks_keep_file_order_intact(self, sizes):
        """Chunks smaller than a block are never split and stay whole."""
        items = self._items(sizes)
        layout = construct_padding_layout(RS_9_6, items, block_size=100)
        assignment = layout.chunk_assignment()
        assert set(assignment) == {(0, i) for i in range(len(sizes))}

"""Variable-block stripes: padding semantics and round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import RS_9_6, CodeParams, DecodeError, decode_stripe, encode_stripe
from repro.ec.stripe import stripe_codeword


def _random_blocks(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=s, dtype=np.uint8) for s in sizes]


def _overhead(shards):
    """Stored parity bytes per data byte of one encoded stripe."""
    data, parity = shards[: RS_9_6.k], shards[RS_9_6.k :]
    return sum(p.size for p in parity) / sum(d.size for d in data)


class TestEncodeStripe:
    def test_parity_matches_largest_block(self):
        blocks = _random_blocks([100, 40, 70, 10, 100, 5])
        shards = encode_stripe(RS_9_6, blocks)
        assert len(shards) == RS_9_6.n
        assert [p.size for p in shards[RS_9_6.k :]] == [100] * 3

    def test_data_blocks_keep_original_sizes(self):
        sizes = [64, 32, 16, 8, 4, 2]
        shards = encode_stripe(RS_9_6, _random_blocks(sizes))
        assert [b.size for b in shards[: RS_9_6.k]] == sizes

    def test_partial_stripe_pads_with_empty_blocks(self):
        shards = encode_stripe(RS_9_6, _random_blocks([50, 20]))
        assert [b.size for b in shards] == [50, 20, 0, 0, 0, 0, 50, 50, 50]

    def test_too_many_blocks_raises(self):
        with pytest.raises(ValueError, match="at most"):
            encode_stripe(RS_9_6, _random_blocks([10] * 7))

    def test_empty_stripe_raises(self):
        with pytest.raises(ValueError):
            encode_stripe(RS_9_6, [])

    def test_all_empty_blocks_raises(self):
        with pytest.raises(ValueError, match="empty"):
            encode_stripe(RS_9_6, [np.zeros(0, dtype=np.uint8)] * 3)

    def test_overhead_equal_blocks_is_optimal(self):
        shards = encode_stripe(RS_9_6, _random_blocks([100] * 6))
        assert _overhead(shards) == pytest.approx(RS_9_6.optimal_overhead)

    def test_overhead_skewed_blocks_is_higher(self):
        shards = encode_stripe(RS_9_6, _random_blocks([100, 1, 1, 1, 1, 1]))
        # parity = 3 * 100, data = 105
        assert _overhead(shards) == pytest.approx(300 / 105)


class TestDecodeStripe:
    def test_roundtrip_with_losses(self):
        sizes = [100, 40, 70, 10, 100, 5]
        blocks = _random_blocks(sizes, seed=2)
        shards = encode_stripe(RS_9_6, blocks)
        shards[1] = None
        shards[4] = None
        shards[7] = None
        recovered = decode_stripe(RS_9_6, shards, sizes)
        assert all(np.array_equal(r, b) for r, b in zip(recovered, blocks))

    def test_recovers_unpadded_sizes(self):
        sizes = [60, 30, 10, 5, 2, 1]
        blocks = _random_blocks(sizes, seed=3)
        shards = encode_stripe(RS_9_6, blocks)
        shards[0] = None  # the largest block
        recovered = decode_stripe(RS_9_6, shards, sizes)
        assert [r.size for r in recovered] == sizes

    def test_unrecoverable_raises(self):
        sizes = [10] * 6
        shards = encode_stripe(RS_9_6, _random_blocks(sizes))
        for i in range(4):
            shards[i] = None
        with pytest.raises(DecodeError):
            decode_stripe(RS_9_6, shards, sizes)

    def test_no_survivors_raises(self):
        with pytest.raises(DecodeError, match="no surviving"):
            decode_stripe(RS_9_6, [None] * 9, [10] * 6)

    def test_bad_shard_count_raises(self):
        with pytest.raises(ValueError):
            decode_stripe(RS_9_6, [None] * 5, [10] * 6)

    def test_bad_size_count_raises(self):
        shards = encode_stripe(RS_9_6, _random_blocks([10] * 6))
        with pytest.raises(ValueError):
            decode_stripe(RS_9_6, shards, [10] * 5)

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 200), min_size=1, max_size=6),
        lost=st.sets(st.integers(0, 8), min_size=0, max_size=3),
        seed=st.integers(0, 999),
    )
    def test_roundtrip_property(self, sizes, lost, seed):
        blocks = _random_blocks(sizes, seed=seed)
        shards = encode_stripe(RS_9_6, blocks)
        for i in lost:
            shards[i] = None
        padded_sizes = sizes + [0] * (6 - len(sizes))
        recovered = decode_stripe(RS_9_6, shards, padded_sizes)
        assert all(np.array_equal(r, b) for r, b in zip(recovered, blocks))



class TestStripeCodeword:
    """``stripe_codeword``: the one check repair and scrub share."""

    SIZES = [40, 9, 0, 40, 3, 17]

    def _shards(self):
        return encode_stripe(RS_9_6, _random_blocks(self.SIZES, seed=4))

    def test_accepts_good_stripe(self):
        shards = self._shards()
        codeword = stripe_codeword(RS_9_6, shards, self.SIZES)
        assert codeword is not None
        assert all(got is want for got, want in zip(codeword, shards))

    def test_rejects_corruption(self):
        shards = self._shards()
        shards[0] = shards[0].copy()
        shards[0][10] ^= 0xFF
        assert stripe_codeword(RS_9_6, shards, self.SIZES) is None

    def test_rejects_wrong_length_shard(self):
        shards = self._shards()
        shards[4] = np.append(shards[4], np.uint8(0))  # a padding byte stored
        assert stripe_codeword(RS_9_6, shards, self.SIZES) is None

    def test_rejects_nonzero_padding_past_true_size(self):
        """With exactly k shards readable no parity is left to compare;
        a damaged parity byte past a lost block's true size still shows
        as a recovered row that is non-zero where it must be padding."""
        shards = self._shards()
        shards[6] = shards[6].copy()
        shards[6][30] ^= 1
        lost = frozenset({4, 7, 8})  # block 4 holds 3 bytes
        assert stripe_codeword(RS_9_6, shards, self.SIZES, erased=lost) is None
        clean = self._shards()
        codeword = stripe_codeword(RS_9_6, clean, self.SIZES, erased=lost)
        assert codeword is not None and np.array_equal(codeword[4], clean[4])

    def test_too_few_readable_is_no_codeword(self):
        shards = self._shards()
        erased = frozenset(range(RS_9_6.parity + 1))
        assert stripe_codeword(RS_9_6, shards, self.SIZES, erased=erased) is None

"""Systematic Reed-Solomon: MDS recovery under every erasure pattern."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import RS_9_6, RS_14_10, CodeParams, DecodeError, ReedSolomon, get_coder
from repro.ec.reed_solomon import build_encoding_matrix


def _blocks(params: CodeParams, size: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(params.k)]


class TestCodeParams:
    def test_properties(self):
        assert RS_9_6.parity == 3
        assert RS_9_6.optimal_overhead == pytest.approx(0.5)
        assert RS_14_10.parity == 4
        assert RS_14_10.optimal_overhead == pytest.approx(0.4)

    @pytest.mark.parametrize("n,k", [(0, 0), (5, 5), (3, 4), (2, 0)])
    def test_invalid_params_raise(self, n, k):
        with pytest.raises(ValueError):
            CodeParams(n, k)

    def test_n_too_large_for_field(self):
        with pytest.raises(ValueError, match="field"):
            build_encoding_matrix(300, 200)


class TestEncoding:
    def test_matrix_is_systematic(self):
        matrix = build_encoding_matrix(9, 6)
        assert np.array_equal(matrix[:6], np.eye(6, dtype=np.uint8))

    def test_encode_produces_parity_count(self):
        coder = ReedSolomon(RS_9_6)
        parity = coder.encode(_blocks(RS_9_6, 128))
        assert len(parity) == 3
        assert all(p.size == 128 for p in parity)

    def test_encode_wrong_block_count_raises(self):
        coder = ReedSolomon(RS_9_6)
        with pytest.raises(ValueError, match="expected 6"):
            coder.encode(_blocks(RS_9_6, 64)[:5])

    def test_encode_unequal_sizes_raises(self):
        coder = ReedSolomon(RS_9_6)
        blocks = _blocks(RS_9_6, 64)
        blocks[2] = blocks[2][:32]
        with pytest.raises(ValueError, match="equal-sized"):
            coder.encode(blocks)

    def test_encode_deterministic(self):
        coder = ReedSolomon(RS_9_6)
        blocks = _blocks(RS_9_6, 256, seed=3)
        p1 = coder.encode(blocks)
        p2 = coder.encode(blocks)
        assert all(np.array_equal(a, b) for a, b in zip(p1, p2))


class TestDecoding:
    def test_all_single_and_double_erasures_rs96(self):
        coder = ReedSolomon(RS_9_6)
        blocks = _blocks(RS_9_6, 100, seed=7)
        full = blocks + coder.encode(blocks)
        for lost in itertools.combinations(range(9), 2):
            shards = [None if i in lost else full[i] for i in range(9)]
            recovered = coder.decode(shards)
            assert all(np.array_equal(r, b) for r, b in zip(recovered, blocks))

    def test_sampled_triple_erasures_rs96(self):
        coder = ReedSolomon(RS_9_6)
        blocks = _blocks(RS_9_6, 80, seed=8)
        full = blocks + coder.encode(blocks)
        for lost in itertools.combinations(range(9), 3):
            shards = [None if i in lost else full[i] for i in range(9)]
            recovered = coder.decode(shards)
            assert all(np.array_equal(r, b) for r, b in zip(recovered, blocks))

    def test_too_many_erasures_raises(self):
        coder = ReedSolomon(RS_9_6)
        blocks = _blocks(RS_9_6, 32)
        full = blocks + coder.encode(blocks)
        shards = [None] * 4 + full[4:]
        with pytest.raises(DecodeError, match="unrecoverable"):
            coder.decode(shards)

    def test_wrong_shard_count_raises(self):
        coder = ReedSolomon(RS_9_6)
        with pytest.raises(ValueError, match="expected 9"):
            coder.decode([None] * 8)

    def test_fast_path_no_data_loss(self):
        coder = ReedSolomon(RS_9_6)
        blocks = _blocks(RS_9_6, 64)
        full = blocks + coder.encode(blocks)
        # Lose only parity: data returned directly.
        shards = full[:6] + [None, None, None]
        recovered = coder.decode(shards)
        assert all(np.array_equal(r, b) for r, b in zip(recovered, blocks))

    def test_rs_14_10_triple_loss(self):
        coder = ReedSolomon(RS_14_10)
        blocks = _blocks(RS_14_10, 50, seed=11)
        full = blocks + coder.encode(blocks)
        shards = [None if i in (0, 5, 12) else full[i] for i in range(14)]
        recovered = coder.decode(shards)
        assert all(np.array_equal(r, b) for r, b in zip(recovered, blocks))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(1, 300),
        lost=st.sets(st.integers(0, 8), min_size=0, max_size=3),
    )
    def test_roundtrip_property(self, seed, size, lost):
        coder = get_coder(RS_9_6)
        blocks = _blocks(RS_9_6, size, seed=seed)
        full = blocks + coder.encode(blocks)
        shards = [None if i in lost else full[i] for i in range(9)]
        recovered = coder.decode(shards)
        assert all(np.array_equal(r, b) for r, b in zip(recovered, blocks))


class TestCoderCache:
    def test_get_coder_caches(self):
        assert get_coder(RS_9_6) is get_coder(RS_9_6)

    def test_distinct_params_distinct_coders(self):
        assert get_coder(RS_9_6) is not get_coder(RS_14_10)

    def test_inversion_memoised_per_surviving_set(self):
        coder = ReedSolomon(RS_9_6)
        blocks = _blocks(RS_9_6, 48, seed=21)
        full = blocks + coder.encode(blocks)

        shards = [None if i in (1, 4) else full[i] for i in range(9)]
        first = coder.decode(shards)
        assert len(coder._inversion_cache) == 1
        cached = next(iter(coder._inversion_cache.values()))
        second = coder.decode(shards)  # hits the memo
        assert len(coder._inversion_cache) == 1
        assert next(iter(coder._inversion_cache.values())) is cached
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert all(np.array_equal(r, b) for r, b in zip(second, blocks))

        # A different loss pattern gets its own entry.
        other = [None if i in (0, 2) else full[i] for i in range(9)]
        coder.decode(other)
        assert len(coder._inversion_cache) == 2

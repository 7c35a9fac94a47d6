"""GF(2^8) arithmetic: field axioms, table consistency, matrix algebra."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec import RS_9_6, RS_14_10, decode_stripe, encode_stripe, gf256

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestScalarOps:
    def test_add_is_xor(self):
        assert gf256.gf_add(0b1010, 0b0110) == 0b1100

    def test_mul_identity(self):
        for a in range(256):
            assert gf256.gf_mul(a, 1) == a
            assert gf256.gf_mul(1, a) == a

    def test_mul_zero(self):
        for a in range(256):
            assert gf256.gf_mul(a, 0) == 0
            assert gf256.gf_mul(0, a) == 0

    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        assert gf256.gf_mul(gf256.gf_mul(a, b), c) == gf256.gf_mul(a, gf256.gf_mul(b, c))

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        left = gf256.gf_mul(a, b ^ c)
        right = gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
        assert left == right

    @given(nonzero)
    def test_inverse(self, a):
        assert gf256.gf_mul(a, gf256.gf_inv(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.gf_inv(0)

    @given(elements, nonzero)
    def test_div_mul_roundtrip(self, a, b):
        assert gf256.gf_mul(gf256.gf_div(a, b), b) == a

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.gf_div(5, 0)

    @given(nonzero, st.integers(min_value=0, max_value=300))
    def test_pow_matches_repeated_mul(self, a, n):
        expected = 1
        for _ in range(n):
            expected = gf256.gf_mul(expected, a)
        assert gf256.gf_pow(a, n) == expected

    def test_pow_of_zero(self):
        assert gf256.gf_pow(0, 0) == 1
        assert gf256.gf_pow(0, 5) == 0

    def test_field_has_no_zero_divisors(self):
        for a in range(1, 256):
            for b in (1, 2, 3, 127, 255):
                assert gf256.gf_mul(a, b) != 0


class TestBulkOps:
    def test_mul_bytes_matches_scalar(self, rng):
        data = rng.integers(0, 256, size=100, dtype=np.uint8)
        for coeff in (0, 1, 2, 37, 255):
            out = gf256.gf_mul_bytes(coeff, data)
            expected = [gf256.gf_mul(coeff, int(x)) for x in data]
            assert out.tolist() == expected

    def test_mul_bytes_zero_coeff_returns_zeros(self, rng):
        data = rng.integers(1, 256, size=50, dtype=np.uint8)
        assert not gf256.gf_mul_bytes(0, data).any()

    def test_mul_bytes_one_is_copy(self, rng):
        data = rng.integers(0, 256, size=50, dtype=np.uint8)
        out = gf256.gf_mul_bytes(1, data)
        assert np.array_equal(out, data)
        assert out is not data  # must not alias

    def test_addmul_accumulates(self, rng):
        acc = rng.integers(0, 256, size=64, dtype=np.uint8)
        data = rng.integers(0, 256, size=64, dtype=np.uint8)
        expected = acc ^ gf256.gf_mul_bytes(7, data)
        gf256.gf_addmul_bytes(acc, 7, data)
        assert np.array_equal(acc, expected)

    def test_addmul_zero_coeff_is_noop(self, rng):
        acc = rng.integers(0, 256, size=16, dtype=np.uint8)
        before = acc.copy()
        gf256.gf_addmul_bytes(acc, 0, acc.copy())
        assert np.array_equal(acc, before)


class TestMatrixOps:
    def test_identity_inverse(self):
        eye = np.eye(6, dtype=np.uint8)
        assert np.array_equal(gf256.gf_mat_inv(eye), eye)

    def test_inverse_roundtrip(self, rng):
        matrix = gf256.gf_vandermonde(6, 6)
        inv = gf256.gf_mat_inv(matrix)
        product = gf256.gf_matmul(matrix, inv)
        assert np.array_equal(product, np.eye(6, dtype=np.uint8))

    def test_singular_matrix_raises(self):
        singular = np.zeros((3, 3), dtype=np.uint8)
        singular[0] = [1, 2, 3]
        singular[1] = [1, 2, 3]  # duplicate row
        singular[2] = [0, 1, 1]
        with pytest.raises(ValueError, match="singular"):
            gf256.gf_mat_inv(singular)

    def test_matmul_shape_mismatch_raises(self):
        a = np.ones((2, 3), dtype=np.uint8)
        b = np.ones((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="shape"):
            gf256.gf_matmul(a, b)

    def test_non_square_inverse_raises(self):
        with pytest.raises(ValueError, match="square"):
            gf256.gf_mat_inv(np.ones((2, 3), dtype=np.uint8))

    def test_vandermonde_first_column_ones(self):
        v = gf256.gf_vandermonde(10, 4)
        assert (v[:, 0] == 1).all()
        # Row i is powers of i.
        assert v[3, 2] == gf256.gf_mul(3, 3)


class TestLaneTableMemo:
    def test_decoding_every_pattern_stays_bounded(self):
        """Decode's inverse rows mint lane tables per erasure pattern
        (every RS(14,10) pattern: 8,066 tables, 3.5 GiB unbounded); the
        memo stays within 64 MiB, and no plan keeps an evicted table.
        Only shards at least one tile wide reach the memo."""
        width = 2 * gf256._TILE_PAIRS
        rng = np.random.default_rng(14)
        data = [rng.integers(0, 256, width, dtype=np.uint8) for _ in range(10)]
        shards = encode_stripe(RS_14_10, data).shards()
        for lost in range(1, RS_14_10.parity + 1):
            for erased in combinations(range(RS_14_10.n), lost):
                trial = [None if i in erased else s for i, s in enumerate(shards)]
                recovered = decode_stripe(RS_14_10, trial, [width] * 10)
                assert all(np.array_equal(r, d) for r, d in zip(recovered, data))
                held = sum(t.nbytes for t in gf256._LANE_TABLES.values())
                assert held <= 64 << 20
        live = {id(t) for t in gf256._LANE_TABLES.values()}
        for _xor_rows, groups in gf256._PLANS.values():
            for _group, terms in groups:
                assert all(id(table) in live for _j, table in terms)


class TestNarrowProduct:
    def test_narrow_decode_builds_no_lane_table(self):
        """Shards narrower than one tile (Fusion's stripes, the
        baseline's blocks) decode through 256-byte translate tables:
        every RS(9,6) two-loss pattern at 2 KiB adds no lane table and
        no plan."""
        rng = np.random.default_rng(9)
        data = [rng.integers(0, 256, 2048, dtype=np.uint8) for _ in range(RS_9_6.k)]
        shards = encode_stripe(RS_9_6, data).shards()
        tables, plans = list(gf256._LANE_TABLES), list(gf256._PLANS)
        for erased in combinations(range(RS_9_6.n), 2):
            trial = [None if i in erased else s for i, s in enumerate(shards)]
            recovered = decode_stripe(RS_9_6, trial, [2048] * RS_9_6.k)
            assert all(np.array_equal(r, d) for r, d in zip(recovered, data))
        assert (list(gf256._LANE_TABLES), list(gf256._PLANS)) == (tables, plans)

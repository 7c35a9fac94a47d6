"""Differential tests: vectorized data plane vs retained scalar references.

The vectorized codecs in :mod:`repro.format.compression` /
:mod:`repro.format.encoding` and the whole-stripe RS matmul in
:mod:`repro.ec` replaced byte-at-a-time loops that are retained in
:mod:`repro.format._reference`.  These tests round-trip both
implementations against each other over randomized and adversarial
inputs:

* plain-string, RLE, and varint streams must be *byte-identical*;
* the two Snappy compressors emit different tokens but must each
  decompress the other's output exactly;
* the lane-table GF(2^8) matmul must match the scalar matrix product,
  and both coders must recover erased shards bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ec import gf256
from repro.ec.reed_solomon import CodeParams, ReedSolomon
from repro.format import _reference as ref
from repro.format import compression
from repro.format import encoding as enc
from repro.format.compression import get_codec
from repro.format.schema import ColumnType

VEC = get_codec("snappy")
GREEDY = get_codec("snappy-greedy")
SCALAR = ref.ScalarSnappyCodec()


def _string_corpus(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    out = np.empty(n, dtype=object)
    if kind == "short":
        pool = [f"tag{i}" for i in range(8)]
        for i in range(n):
            out[i] = pool[int(rng.integers(len(pool)))]
    elif kind == "unicode":
        pool = ["héllo", "naïve", "日本語テキスト", "züri", "🦜🦜", ""]
        for i in range(n):
            out[i] = pool[int(rng.integers(len(pool)))] + str(int(rng.integers(100)))
    elif kind == "long":
        # >= 256-byte strings defeat the fast candidate-chain decoder and
        # must fall back to the scalar walk transparently.
        for i in range(n):
            out[i] = chr(ord("a") + i % 26) * int(rng.integers(200, 400))
    elif kind == "empty-heavy":
        for i in range(n):
            out[i] = "" if rng.random() < 0.5 else f"v{int(rng.integers(10))}"
    else:
        raise AssertionError(kind)
    return out


class TestPlainStrings:
    @pytest.mark.parametrize("kind", ["short", "unicode", "long", "empty-heavy"])
    @pytest.mark.parametrize("n", [0, 1, 7, 500])
    def test_encode_byte_identical_and_round_trips(self, kind, n):
        rng = np.random.default_rng(hash((kind, n)) % 2**32)
        values = _string_corpus(rng, n, kind)
        blob = enc.encode_plain(ColumnType.STRING, values)
        assert blob == ref.encode_plain_strings(values)
        assert np.array_equal(enc.decode_plain(ColumnType.STRING, blob, n), values)
        assert np.array_equal(ref.decode_plain_strings(blob, n), values)

    def test_nul_bytes_inside_strings(self):
        # NUL payload bytes collide with the vectorized decoder's
        # separator trick; it must detect them and fall back.
        values = np.array(["a\x00b", "\x00", "plain", "x\x00\x00y"], dtype=object)
        blob = enc.encode_plain(ColumnType.STRING, values)
        assert blob == ref.encode_plain_strings(values)
        assert np.array_equal(enc.decode_plain(ColumnType.STRING, blob, 4), values)

    def test_decode_accepts_buffer_views(self):
        values = np.array(["alpha", "beta", "gamma"], dtype=object)
        blob = enc.encode_plain(ColumnType.STRING, values)
        for buf in (memoryview(blob), np.frombuffer(blob, dtype=np.uint8)):
            assert np.array_equal(enc.decode_plain(ColumnType.STRING, buf, 3), values)


class TestVarints:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0],
            [127],
            [128],
            [0, 1, 127, 128, 16383, 16384, 2**31, 2**63 - 1],
            list(range(1000)),
        ],
    )
    def test_stream_byte_identical(self, values):
        arr = np.array(values, dtype=np.uint64)
        blob = enc.encode_varint_array(arr).tobytes()
        expected = b"".join(ref._encode_varint(int(v)) for v in values)
        assert blob == expected
        decoded = enc.decode_varint_stream(np.frombuffer(blob, dtype=np.uint8))
        assert decoded.tolist() == [int(v) for v in values]

    def test_randomized_against_scalar(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(0, 400))
            magnitude = int(rng.integers(1, 60))
            arr = rng.integers(0, 2**magnitude, n, dtype=np.uint64)
            blob = enc.encode_varint_array(arr).tobytes()
            assert blob == b"".join(ref._encode_varint(int(v)) for v in arr)
            back = enc.decode_varint_stream(np.frombuffer(blob, dtype=np.uint8))
            assert np.array_equal(back.astype(np.uint64), arr)

    def test_overlong_varint_rejected(self):
        stream = np.frombuffer(b"\x80" * 10 + b"\x01", dtype=np.uint8)
        with pytest.raises(ValueError, match="varint too long"):
            enc.decode_varint_stream(stream)


class TestRLE:
    @pytest.mark.parametrize(
        "codes",
        [
            [],
            [0],
            [5] * 1000,  # one all-equal run
            [0, 0, 1, 1, 1, 2, 0, 0],
            list(range(200)),  # no runs at all
        ],
    )
    def test_byte_identical(self, codes):
        arr = np.array(codes, dtype=np.int64)
        blob = enc.rle_encode(arr)
        assert blob == ref.rle_encode(arr)
        if len(codes):
            assert np.array_equal(enc.rle_decode(blob, len(codes)), arr)
            assert np.array_equal(ref.rle_decode(blob, len(codes)), arr)

    def test_randomized_against_scalar(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 3000))
            card = int(rng.integers(1, 20))
            codes = rng.integers(0, card, n).astype(np.int64)
            # Stretch into runs half the time.
            if rng.random() < 0.5:
                codes = np.repeat(codes[: max(1, n // 8)], 8)[:n]
            blob = enc.rle_encode(codes)
            assert blob == ref.rle_encode(codes)
            assert np.array_equal(enc.rle_decode(blob, len(codes)), codes)

    def test_count_overshoot_raises_like_scalar(self):
        blob = enc.rle_encode(np.array([7, 7, 7, 7], dtype=np.int64))
        with pytest.raises(ValueError, match="RLE stream decoded"):
            enc.rle_decode(blob, 3)
        with pytest.raises(ValueError):
            ref.rle_decode(blob, 3)


class TestDictionaryBuild:
    def test_matches_reference_order_and_codes(self):
        rng = np.random.default_rng(31)
        values = np.array(
            [f"k{int(rng.integers(40))}" for _ in range(2000)], dtype=object
        )
        uniq_v, codes_v = enc.build_dictionary(ColumnType.STRING, values)
        uniq_r, codes_r = ref.build_string_dictionary(values)
        assert np.array_equal(uniq_v, uniq_r)
        assert np.array_equal(codes_v, codes_r)


def _snappy_corpora(rng: np.random.Generator):
    yield b""
    yield b"ab"  # below _MIN_MATCH
    yield b"\x00" * 100_000  # one giant run
    yield bytes(rng.integers(0, 256, 70_000, dtype=np.uint8))  # > 64 KiB noise
    yield bytes(rng.integers(0, 4, 50_000, dtype=np.uint8))  # low-cardinality
    block = bytes(rng.integers(0, 256, 512, dtype=np.uint8))
    yield block * 200  # periodic
    yield (b"abcdefgh" * 1000) + bytes(rng.integers(0, 256, 333, dtype=np.uint8))


def _packed_bitmap_corpus(rng: np.random.Generator):
    """Packed bit vectors, the small run-structured inputs the greedy walk is kept for."""
    lengths = (0, 1, 7, 8, 9, 31, 63, 64, 65, 250, 1000, 3000, 4000, 4001, 8192)
    for bits in lengths:
        for density in (0.0, 1.0, 0.01, 0.03, 0.1, 0.5):
            yield np.packbits(rng.random(bits) < density).tobytes()
        for flip in {0, bits // 3, bits - 1} - {-1}:  # one 0 -> 1 transition
            yield np.packbits(np.arange(bits) >= flip).tobytes()
        for period in (2, 3, 8, 24, 100):
            yield np.packbits(np.arange(bits) % period == 0).tobytes()


def _prepass_corpus(rng: np.random.Generator):
    """Inputs on both sides of every choice the greedy tokeniser's
    unique-window pre-pass makes, and the cases where skipping a window
    could change a token if the pre-pass were wrong."""

    def noise(n: int, high: int = 256) -> bytes:
        return bytes(rng.integers(0, high, n, dtype=np.uint8))

    threshold = compression._VECTOR_MIN  # shorter inputs visit every window
    for n in (threshold - 1, threshold, threshold + 1):
        yield noise(n)  # all windows unique
        yield noise(n, 3)  # almost all repeated
        yield (b"abcdefg" * n)[:n]
        yield b"\x07" * n  # all windows equal
    # Long runs of one byte skip the pre-pass from two thirds of the buffer on.
    for fill in (0, 255):
        for run in (199, 200, 201):
            body = bytearray(rng.integers(1, 255, 300, dtype=np.uint8))
            body[50 : 50 + run] = bytes([fill]) * run
            yield bytes(body)
    for n in (64, 375, 500, 4096):
        yield noise(n)
        yield b"\x07" * n
        yield noise(n, 2)
    # A key that repeats only beyond _MAX_OFFSET: found, then refused.
    marker = bytes([251, 252, 253, 254])
    yield marker + noise(compression._MAX_OFFSET + 10, 251) + marker + noise(40, 251)
    yield marker + noise(compression._MAX_OFFSET - 10, 251) + marker + noise(40, 251)
    # A repeat that begins inside a previous match: the table only holds
    # *visited* positions, so "6789AB" must point at the first copy.
    unit = b"0123456789ABCDEF"
    yield unit + noise(70, 48) + unit + noise(70, 48) + unit[6:12] + noise(70, 48) + unit[3:]
    yield unit * 3 + noise(64, 48) + unit[5:] + unit[:7]


class TestSnappyCross:
    def test_cross_decompression(self):
        rng = np.random.default_rng(41)
        for raw in _snappy_corpora(rng):
            for compressor in (VEC, GREEDY, SCALAR):
                blob = compressor.compress(raw)
                assert VEC.decompress(blob) == raw
                assert SCALAR.decompress(blob) == raw

    def test_greedy_tokens_match_seed_compressor(self):
        # Bitmap wire sizes feed the simulated network model, so the
        # greedy codec must reproduce the original token stream exactly.
        rng = np.random.default_rng(43)
        for raw in _snappy_corpora(rng):
            assert GREEDY.compress(raw) == SCALAR.compress(raw)
        for packed in _packed_bitmap_corpus(rng):
            assert GREEDY.compress(packed) == SCALAR.compress(packed)

    def test_greedy_prepass_never_changes_a_token(self):
        rng = np.random.default_rng(47)
        for raw in _prepass_corpus(rng):
            want = SCALAR.compress(raw)
            assert GREEDY.compress(raw) == want
            for view in (memoryview(raw), bytearray(raw), np.frombuffer(raw, dtype=np.uint8)):
                assert GREEDY.compress(view) == want
            assert GREEDY.decompress(want) == raw

    def test_corrupt_streams_rejected(self):
        blob = VEC.compress(b"hello world, hello world, hello world")
        with pytest.raises(ValueError):
            VEC.decompress(blob[:2])  # truncated header
        with pytest.raises(ValueError):
            VEC.decompress(blob[:-1])  # truncated body
        bad = bytearray((100).to_bytes(4, "little"))
        bad += bytes([0x80 | 3, 0xFF, 0xFF])  # match with no history
        with pytest.raises(ValueError):
            VEC.decompress(bytes(bad))


class TestReedSolomonDifferential:
    @pytest.mark.parametrize("n,k", [(9, 6), (14, 10), (5, 3)])
    def test_matmul_matches_scalar_product(self, n, k):
        rng = np.random.default_rng(n * 100 + k)
        coder = ReedSolomon(CodeParams(n, k))
        blocks = np.ascontiguousarray(
            rng.integers(0, 256, (k, 1537), dtype=np.uint8)
        )
        fast = gf256.gf_matmul_blocks(coder.matrix[k:], blocks)
        slow = gf256.gf_matmul(coder.matrix[k:], blocks)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("losses", [1, 2, 3])
    def test_recovery_matches_reference_coder(self, losses):
        rng = np.random.default_rng(53 + losses)
        params = CodeParams(9, 6)
        coder = ReedSolomon(params)
        reference = ref.ScalarReedSolomon(9, 6)
        for _ in range(5):
            data = [rng.integers(0, 256, 2048, dtype=np.uint8) for _ in range(6)]
            for rs in (coder, reference):
                shards = list(data) + rs.encode(list(data))
                for idx in rng.choice(9, size=losses, replace=False):
                    shards[int(idx)] = None
                recovered = rs.decode(shards)
                for got, want in zip(recovered, data):
                    assert np.array_equal(got, want)

    def test_xor_parity_row(self):
        # The normalized Cauchy matrix makes parity 0 the plain XOR of
        # the data shards (RAID-5 compatible fast path).
        rng = np.random.default_rng(59)
        coder = ReedSolomon(CodeParams(9, 6))
        data = [rng.integers(0, 256, 512, dtype=np.uint8) for _ in range(6)]
        parity = coder.encode(list(data))
        xor = np.zeros(512, dtype=np.uint8)
        for block in data:
            xor ^= block
        assert np.array_equal(parity[0], xor)

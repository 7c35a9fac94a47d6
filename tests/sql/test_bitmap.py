"""Bitmaps and their container-chosen wire frame."""

import itertools
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.format import codec_names, get_codec
from repro.sql import Bitmap


class TestOps:
    def test_and_or_invert(self):
        a = Bitmap(np.array([True, True, False, False]))
        b = Bitmap(np.array([True, False, True, False]))
        assert (a & b).bits.tolist() == [True, False, False, False]
        assert (a | b).bits.tolist() == [True, True, True, False]
        assert (~a).bits.tolist() == [False, False, True, True]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            Bitmap.zeros(3) & Bitmap.zeros(4)

    def test_count_and_selectivity(self):
        bm = Bitmap(np.array([True, False, True, False]))
        assert bm.count() == 2
        assert bm.selectivity() == pytest.approx(0.5)

    def test_empty_selectivity(self):
        assert Bitmap.zeros(0).selectivity() == 0.0

    def test_indices(self):
        bm = Bitmap(np.array([False, True, False, True]))
        assert bm.indices().tolist() == [1, 3]

    def test_constructors(self):
        assert Bitmap.ones(5).count() == 5
        assert Bitmap.zeros(5).count() == 0
        assert Bitmap.ones(5) == Bitmap(np.ones(5, dtype=bool))
        assert Bitmap.zeros(5) == Bitmap(np.zeros(5, dtype=bool))

    def test_equality(self):
        assert Bitmap.ones(3) == Bitmap.ones(3)
        assert Bitmap.ones(3) != Bitmap.zeros(3)


LENGTHS = (0, 1, 7, 8, 9, 255, 256, 257, 65535, 65536, 65537)
DENSITIES = ("none", "one", 0.01, 0.5, 0.99, "all")
EMPTY, FULL, SET, UNSET, RUNS, RAW = 0, 1, 2, 3, 4, 6


def _bits(n: int, density, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if density in ("none", "all"):
        return np.full(n, density == "all")
    if density == "one":
        bits = np.zeros(n, dtype=bool)
        bits[rng.integers(0, n, size=min(n, 1))] = True
        return bits
    return rng.random(n) < density


def _run_bits(n: int, cuts: list[int], first: bool) -> np.ndarray:
    """``n`` bits that flip at every cut, starting from ``first``."""
    bits = np.zeros(n, dtype=bool)
    for cut in cuts:
        bits[cut % n if n else 0 :] ^= True
    return bits ^ first


def _reference_container(bits: np.ndarray) -> tuple[int, int]:
    """``(tag, body bytes)`` by walking the bits: positions and runs are
    listed, not counted with numpy; ties go to the first container."""
    values = bits.tolist()
    n, card = len(values), sum(values)
    if card == 0 or card == n:
        return (FULL if card else EMPTY), 0
    w = 1 if n <= 256 else 2 if n <= 65536 else 4
    runs = [len(list(group)) for _bit, group in itertools.groupby(values)]
    assert max(runs) < 256**w and n - 1 < 256**w  # every entry fits its width
    bodies = [
        (SET, w * len([i for i, v in enumerate(values) if v])),
        (UNSET, w * len([i for i, v in enumerate(values) if not v])),
        (RUNS + values[0], w * len(runs)),
        (RAW, -(-n // 8)),
    ]
    return min(bodies, key=lambda body: body[1])


def _check_frame(bits: np.ndarray) -> None:
    bm = Bitmap(bits)
    wire = bm.to_wire()
    n = len(bits)
    tag, body = _reference_container(bits)
    assert Bitmap.from_wire(wire) == bm
    assert len(wire) == bm.wire_size() == 5 + body <= 5 + -(-n // 8)
    assert struct.unpack_from("<IB", wire) == (n, tag)


class TestWire:
    def test_roundtrip(self, rng):
        bm = Bitmap(rng.integers(0, 2, size=1000).astype(bool))
        assert Bitmap.from_wire(bm.to_wire()) == bm

    def test_non_multiple_of_eight(self):
        bm = Bitmap(np.array([True, False, True]))
        assert Bitmap.from_wire(bm.to_wire()) == bm

    def test_sparse_bitmap_compresses(self, rng):
        bits = np.zeros(100_000, dtype=bool)
        bits[rng.integers(0, 100_000, size=100)] = True
        bm = Bitmap(bits)
        # Packed raw is 12.5 KB; 100 four-byte positions are far below.
        assert bm.wire_size() <= 5 + 4 * 100

    @pytest.mark.parametrize("n", LENGTHS)
    def test_every_length_and_density(self, n):
        for seed, density in enumerate(DENSITIES):
            _check_frame(_bits(n, density, seed))
            _check_frame(~_bits(n, density, seed))

    def test_each_container_is_chosen_where_it_is_smallest(self):
        n = 4000  # two-byte entries, 500 packed bytes
        cases = {
            EMPTY: np.zeros(n, dtype=bool),
            FULL: np.ones(n, dtype=bool),
            SET: _run_bits(n, [10, 11, 500, 501, 900, 901], False),  # 3 positions < 7 runs
            UNSET: _run_bits(n, [10, 11, 500, 501, 900, 901], True),
            RUNS: _run_bits(n, [1000, 3000], False),  # 3 runs < 2000 positions
            RUNS + 1: _run_bits(n, [1000, 3000], True),
            RAW: _bits(n, 0.5, 7),
        }
        for tag, bits in cases.items():
            assert Bitmap(bits).to_wire()[4] == tag
            _check_frame(bits)
        # The widest entries a one- and a two-byte body must hold: the
        # last position, and the longest run a run container can have.
        for n in (256, 65536):
            for first in (False, True):
                _check_frame(_run_bits(n, [n - 1], first))
                assert Bitmap(_run_bits(n, [3], first)).to_wire()[4] == RUNS + first
                _check_frame(_run_bits(n, [3], first))
        # Ties go to the lower tag: one set bit of two is SET, not UNSET or RAW.
        assert Bitmap(np.array([True, False])).to_wire() == struct.pack("<IBB", 2, SET, 0)
        assert Bitmap(np.array([False, True])).to_wire() == struct.pack("<IBB", 2, SET, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from(LENGTHS),
        density=st.sampled_from(DENSITIES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frame_property_over_densities(self, n, density, seed):
        _check_frame(_bits(n, density, seed))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from(LENGTHS),
        cuts=st.lists(st.integers(0, 70_000), max_size=12),
        first=st.booleans(),
    )
    def test_frame_property_over_run_structure(self, n, cuts, first):
        _check_frame(_run_bits(n, cuts, first))

    @settings(max_examples=50, deadline=None)
    @given(bits=st.lists(st.booleans(), max_size=300))
    def test_roundtrip_property(self, bits):
        _check_frame(np.asarray(bits, dtype=bool))

    def test_memo_is_not_shared_with_derived_bitmaps(self, rng):
        # The remembered cardinality (born known in zeros / ones) belongs
        # to one bitmap: nothing derived from it inherits the count.
        a = Bitmap(rng.random(1000) < 0.1)
        b = Bitmap(rng.random(1000) < 0.5)
        full = Bitmap.ones(1000)
        a.wire_size(), b.wire_size()
        for derived in (a & b, a | b, ~a, a & full, ~full):
            assert derived.count() == int(derived.bits.sum())
            assert derived.to_wire() == Bitmap(derived.bits.copy()).to_wire()
            assert Bitmap.from_wire(derived.to_wire()) == derived
        assert a.count() == int(a.bits.sum())
        assert Bitmap.from_wire(a.to_wire()) == a  # and the operands keep their own

    @pytest.mark.parametrize("density", DENSITIES)
    def test_memoised_indices_and_wire_size_equal_fresh_ones(self, density):
        bits = _bits(3000, density, 5)
        bm = Bitmap(bits)
        first = bm.indices(), bm.wire_size()
        # A repeat call hands back the remembered answers...
        assert bm.indices() is first[0]
        assert bm.wire_size() == first[1]
        # ...which equal what a fresh bitmap over the same bits works out.
        fresh = Bitmap(bits.copy())
        assert np.array_equal(first[0], np.flatnonzero(bits))
        assert np.array_equal(first[0], fresh.indices())
        assert first[1] == fresh.wire_size() == len(fresh.to_wire())
        # The shared positions cannot be written through.
        assert not first[0].flags.writeable
        if len(first[0]):
            with pytest.raises(ValueError):
                first[0][0] = 0

    def test_wire_size_builds_no_frame(self, rng, monkeypatch):
        # The size is a closed form over two counts: neither the frame
        # nor any codec is reached for it (the perf tracer counts both).
        def unreachable(*_args, **_kwargs):
            raise AssertionError("wire_size() assembled bytes")

        sizes = {}
        for density in DENSITIES:
            bm = Bitmap(_bits(3000, density, 3))
            sizes[density] = len(bm.to_wire())
        monkeypatch.setattr(Bitmap, "to_wire", unreachable)
        for codec in codec_names():
            monkeypatch.setattr(type(get_codec(codec)), "compress", unreachable)
        for density, size in sizes.items():
            bm = Bitmap(_bits(3000, density, 3))
            assert bm.wire_size() == bm.wire_size() == size
        assert Bitmap.zeros(3000).wire_size() == Bitmap.ones(3000).wire_size() == 5


class TestMalformedFrames:
    """``from_wire`` believes nothing its header says without checking."""

    PAYLOAD = bytes(range(1, 9))  # 64 bits

    @pytest.mark.parametrize(
        "frame, match",
        [
            # The two frames the v1 decoder mis-read: 4,000 rows claimed
            # over 64 bits (it returned 64 rows), 3 rows over 64 bits (it
            # dropped 61).
            (struct.pack("<IB", 4000, RAW) + PAYLOAD, "do not hold exactly 4000 rows"),
            (struct.pack("<IB", 3, RAW) + PAYLOAD, "do not hold exactly 3 rows"),
            (struct.pack("<IB", 64, RAW) + PAYLOAD + b"\0", "do not hold exactly 64 rows"),
            (struct.pack("<IBB", 3, RAW, 0b1010_0001), "do not hold exactly 3 rows"),  # pad bit set
            (b"\x08\0\0", "truncated header"),
            (struct.pack("<IB", 8, EMPTY) + b"\0", "trailing bytes"),
            (struct.pack("<IB", 8, FULL) + b"\xff", "trailing bytes"),
            (struct.pack("<IB", 8, 5 + 2), "unknown container tag 7"),
            (struct.pack("<IB", 8, 255), "unknown container tag 255"),
            (struct.pack("<IB3B", 4000, SET, 1, 0, 2), "cut inside a 2-byte entry"),
            (struct.pack("<IB2B", 8, SET, 3, 8), "positions not ascending below 8"),
            (struct.pack("<IB2B", 8, SET, 5, 3), "positions not ascending below 8"),
            (struct.pack("<IB2B", 8, UNSET, 3, 3), "positions not ascending below 8"),
            (struct.pack("<IB2H", 4000, UNSET, 7, 4000), "positions not ascending below 4000"),
            (struct.pack("<IB3B", 8, RUNS, 3, 2, 2), "run lengths do not sum to 8"),
            (struct.pack("<IB3B", 8, RUNS + 1, 3, 2, 4), "run lengths do not sum to 8"),
            (struct.pack("<IB2I", 70_000, RUNS, 2**32 - 1, 70_001), "run lengths do not sum to 70000"),
        ],
    )
    def test_rejected(self, frame, match):
        with pytest.raises(ValueError, match=match):
            Bitmap.from_wire(frame)

    def test_well_formed_neighbours_decode(self):
        assert Bitmap.from_wire(struct.pack("<IB", 64, RAW) + self.PAYLOAD).count() == 13
        assert Bitmap.from_wire(struct.pack("<IB2B", 8, SET, 3, 7)).indices().tolist() == [3, 7]
        assert Bitmap.from_wire(struct.pack("<IB3B", 8, RUNS + 1, 3, 2, 3)).bits.tolist() == [
            True, True, True, False, False, True, True, True
        ]


def test_benchmark_names_follow_the_codec_registry_and_to_wire():
    """``benchmarks/perf`` derives its ``format.compress_*.<codec>`` metric
    names from ``codec_names()`` and wraps ``Bitmap.to_wire`` by name; its
    traced run fails ("metrics differ from BENCHMARK.json") when either
    moves, and ``BENCHMARK.json`` is frozen."""
    spec = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())
    prefix = "format.compress_calls."
    declared = [m["name"][len(prefix):] for m in spec["per_layer"] if m["name"].startswith(prefix)]
    assert sorted(declared) == codec_names()
    assert {"sql.bitmap_wire_calls", "sql.bitmap_wire_self_s"} <= {m["name"] for m in spec["per_layer"]}
    assert callable(Bitmap.to_wire)

"""Bitmaps and their compressed wire form."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.format import codec_names
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

    def test_count_is_shared_not_inherited(self, rng):
        a = Bitmap(rng.random(1000) < 0.1)
        b = Bitmap.ones(1000)
        assert a.count() == a.count() == int(a.bits.sum())
        for derived in (a & b, a | b, ~a, ~b):
            assert derived.count() == int(derived.bits.sum())

    def test_equality(self):
        assert Bitmap.ones(3) == Bitmap.ones(3)
        assert Bitmap.ones(3) != Bitmap.zeros(3)


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
        # Packed raw is 12.5 KB; sparse content should compress well below.
        assert bm.wire_size() < 6_000

    def test_wire_form_is_memoised(self, rng):
        bm = Bitmap(rng.integers(0, 2, size=1000).astype(bool))
        fresh = Bitmap(bm.bits).to_wire()
        assert bm.wire_size() == len(fresh)
        wire = bm.to_wire()
        assert wire == fresh
        assert bm.to_wire() is wire  # the bytes wire_size() produced, not a new stream

    def test_memo_is_not_shared_with_derived_bitmaps(self, rng):
        a = Bitmap(rng.random(1000) < 0.1)
        b = Bitmap(rng.random(1000) < 0.5)
        a.wire_size(), b.wire_size()
        for derived in (a & b, a | b, ~a):
            assert derived.to_wire() == Bitmap(derived.bits.copy()).to_wire()
            assert Bitmap.from_wire(derived.to_wire()) == derived
        assert Bitmap.from_wire(a.to_wire()) == a  # and the operands keep their own

    def test_wire_size_tokenises_through_to_wire_once(self, rng, monkeypatch):
        # The perf tracer wraps Bitmap.to_wire: wire_size() must reach the
        # tokeniser through it, and only the first time.
        calls = []
        original = Bitmap.to_wire
        monkeypatch.setattr(
            Bitmap, "to_wire", lambda self, *a, **k: calls.append(1) or original(self, *a, **k)
        )
        bm = Bitmap(rng.random(500) < 0.3)
        assert bm.wire_size() == bm.wire_size() == len(original(bm))
        assert len(calls) == 1

    @settings(max_examples=50, deadline=None)
    @given(bits=st.lists(st.booleans(), max_size=300))
    def test_roundtrip_property(self, bits):
        bm = Bitmap(np.asarray(bits, dtype=bool))
        assert Bitmap.from_wire(bm.to_wire()) == bm


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

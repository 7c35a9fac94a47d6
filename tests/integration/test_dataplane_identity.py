"""The vectorized data plane must be invisible to the simulation.

A fault-free, default-knob workload run with the production (vectorized)
codecs must produce an event stream bit-identical to the same run with
every vectorized path swapped back to its retained scalar reference:
the rewrite changes wall-clock time, never simulated time, byte
accounting, or RPC counts.  This is the guard that catches a vectorized
codec leaking different compressed sizes (and hence different simulated
network costs) into the event loop.
"""

from __future__ import annotations

import numpy as np

from repro.ec import gf256
from repro.format import _reference as ref
from repro.format import compression, encoding
from tests.closed_loop import each_store, fingerprinted, same_answers


def _patch_scalar_data_plane(monkeypatch):
    """Swap every vectorized data-plane path for its scalar reference."""
    scalar = ref.ScalarSnappyCodec()
    monkeypatch.setattr(
        compression.SnappyLikeCodec,
        "compress",
        lambda self, data: scalar.compress(data),
    )
    monkeypatch.setattr(encoding, "rle_encode", ref.rle_encode)
    monkeypatch.setattr(encoding, "rle_decode", ref.rle_decode)
    monkeypatch.setattr(encoding, "_encode_plain_strings", ref.encode_plain_strings)
    monkeypatch.setattr(
        encoding, "_decode_plain_strings", ref.decode_plain_strings
    )

    def scalar_matmul_blocks(matrix, blocks):
        return gf256.gf_matmul(
            np.asarray(matrix, dtype=np.uint8),
            np.ascontiguousarray(blocks, dtype=np.uint8),
        )

    monkeypatch.setattr(gf256, "gf_matmul_blocks", scalar_matmul_blocks)


@each_store
def test_vectorized_data_plane_is_event_invisible(kind, monkeypatch):
    _sys, vec_stats, vec = fingerprinted(kind)
    _patch_scalar_data_plane(monkeypatch)
    _sys, ref_stats, scalar = fingerprinted(kind)

    assert vec == scalar
    assert same_answers(vec_stats, ref_stats)


def test_repeated_runs_are_deterministic():
    assert fingerprinted("fusion")[2] == fingerprinted("fusion")[2]

"""Straight-line erasure-coding references, kept as test oracles.

These are the implementations the production paths replaced:

* :func:`gf_matmul_blocks` runs its row plan (XOR rows, dense-row
  groups, lane tables) at every width; production uses it only for
  shards at least one tile wide and multiplies narrower ones through
  256-byte translate tables.
* :func:`decode_stripe` pads every shard to the stripe width, then the
  coder re-stacks them; production stacks the survivors once.
* :func:`codeword` / :func:`localise_stripe` and
  :func:`degraded_stripe_corrupt` / :func:`check_stripe` check a stripe
  by decode -> re-encode -> compare; production's repair and scrub both
  run one codeword pass (``repro.ec.stripe.stripe_codeword``).

``tests/ec/test_ec_differential.py`` holds production to these.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.repair import RepairError
from repro.ec import gf256
from repro.ec.reed_solomon import CodeParams, DecodeError, get_coder
from repro.ec.stripe import encode_stripe


def gf_matmul_blocks(matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``matrix @ blocks`` over GF(2^8), planning rows on every call."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
    if matrix.ndim != 2 or blocks.ndim != 2 or matrix.shape[1] != blocks.shape[0]:
        raise ValueError(f"shape mismatch: {matrix.shape} @ {blocks.shape}")
    r, k = matrix.shape
    L = blocks.shape[1]
    if r == 0 or L == 0:
        return np.zeros((r, L), dtype=np.uint8)
    if L & 1:
        work = np.zeros((k, L + 1), dtype=np.uint8)
        work[:, :L] = blocks
    else:
        work = blocks
    pairs = work.view(np.uint16)
    half = pairs.shape[1]
    out = np.empty((r, half), dtype=np.uint16)
    xor_rows = [i for i in range(r) if int(matrix[i].max(initial=0)) <= 1]
    dense_rows = [i for i in range(r) if int(matrix[i].max(initial=0)) > 1]
    for i in xor_rows:
        acc16 = np.zeros(half, dtype=np.uint16)
        for j in range(k):
            if matrix[i, j]:
                acc16 ^= pairs[j]
        out[i] = acc16
    groups: list[tuple[list[int], list[np.ndarray | None]]] = []
    for base in range(0, len(dense_rows), 4):
        group = dense_rows[base : base + 4]
        tables: list[np.ndarray | None] = []
        for j in range(k):
            coeffs = tuple(int(matrix[i, j]) for i in group)
            tables.append(gf256._lane_table(coeffs) if any(coeffs) else None)
        groups.append((group, tables))
    indices: list[np.ndarray | None] = [None] * k
    for lo in range(0, half, gf256._TILE_PAIRS):
        hi = min(lo + gf256._TILE_PAIRS, half)
        for j in range(k):
            indices[j] = None
        for group, tables in groups:
            acc = np.zeros(hi - lo, dtype=gf256._LANE_DTYPES[len(group)])
            for j in range(k):
                table = tables[j]
                if table is None:
                    continue
                idx = indices[j]
                if idx is None:
                    idx = indices[j] = pairs[j, lo:hi].astype(np.intp)
                acc ^= np.take(table, idx)
            if len(group) == 1:
                out[group[0], lo:hi] = acc
            else:
                for lane, i in enumerate(group):
                    out[i, lo:hi] = (acc >> acc.dtype.type(16 * lane)).astype(np.uint16)
    result = out.view(np.uint8)[:, :L]
    return result if result.flags.c_contiguous else np.ascontiguousarray(result)


def decode_stripe(
    params: CodeParams, shards: list[np.ndarray | None], data_sizes: list[int]
) -> list[np.ndarray]:
    """Pad every surviving shard to the stripe width, decode, un-pad."""
    present_sizes = [s.size for s in shards if s is not None]
    if not present_sizes:
        raise DecodeError("no surviving shards")
    max_size = max(max(present_sizes), max(data_sizes))
    padded: list[np.ndarray | None] = []
    for shard in shards:
        if shard is None:
            padded.append(None)
            continue
        arr = np.zeros(max_size, dtype=np.uint8)
        arr[: shard.size] = shard
        padded.append(arr)
    recovered = get_coder(params).decode(padded)
    return [recovered[i][: data_sizes[i]].copy() for i in range(params.k)]


def codeword(
    params: CodeParams,
    shards: list[np.ndarray | None],
    data_sizes: list[int],
    erased: frozenset[int],
) -> list[np.ndarray] | None:
    """Decode with ``erased`` treated as lost, re-encode, compare every
    readable non-erased shard; the n re-encoded shards, or None."""
    trial: list[np.ndarray | None] = [
        None if (i in erased or s is None) else s for i, s in enumerate(shards)
    ]
    try:
        recovered = decode_stripe(params, trial, data_sizes)
    except DecodeError:
        return None
    expected = encode_stripe(params, recovered)
    for i, shard in enumerate(trial):
        if shard is None:
            continue
        if not np.array_equal(shard, expected[i]):
            return None
    return expected


def localise_stripe(
    params: CodeParams, shards: list[np.ndarray | None], data_sizes: list[int]
) -> tuple[set[int], list[np.ndarray]]:
    """Smallest erasure set leaving a consistent codeword, and that codeword."""
    missing = {i for i, s in enumerate(shards) if s is None}
    if len(missing) > params.parity:
        raise RepairError("too many positions unreadable")
    readable = [
        i
        for i, s in enumerate(shards)
        if s is not None and not (i < params.k and data_sizes[i] == 0)
    ]
    budget = params.parity - len(missing)
    for r in range(budget + 1):
        for combo in combinations(readable, r):
            found = codeword(params, shards, data_sizes, frozenset(missing) | frozenset(combo))
            if found is not None:
                return missing | set(combo), found
    raise RepairError("cannot localise corruption within the code's erasure budget")


def degraded_stripe_corrupt(
    params: CodeParams,
    data_blocks: list[np.ndarray | None],
    parity_blocks: list[np.ndarray | None],
    data_sizes: list[int],
) -> bool:
    """Reconstruct from the readable shards, re-encode, compare them all."""
    shards: list[np.ndarray | None] = [
        None if b is None else np.ascontiguousarray(b, dtype=np.uint8)
        for b in list(data_blocks) + list(parity_blocks)
    ]
    try:
        recovered = decode_stripe(params, shards, data_sizes)
    except DecodeError:
        return False
    expected = encode_stripe(params, recovered)
    k = params.k
    for i, shard in enumerate(shards):
        if shard is None:
            continue
        want = expected[i][: data_sizes[i]] if i < k else expected[i]
        if not np.array_equal(shard, want):
            return True
    return False


def check_stripe(
    params: CodeParams,
    data_blocks: list[np.ndarray | None],
    parity_blocks: list[np.ndarray | None],
    data_sizes: list[int] | None = None,
) -> str:
    """``"ok"`` / ``"corrupt"`` / ``"incomplete"`` by re-encoding."""
    missing = sum(1 for b in data_blocks if b is None) + sum(
        1 for p in parity_blocks if p is None
    )
    if missing:
        if data_sizes is None or missing > params.parity:
            return "incomplete"
        if degraded_stripe_corrupt(params, data_blocks, parity_blocks, data_sizes):
            return "corrupt"
        return "incomplete"
    present = [np.ascontiguousarray(b, dtype=np.uint8) for b in data_blocks]
    if all(b.size == 0 for b in present):
        return "corrupt"
    expected = encode_stripe(params, present)
    for stored, computed in zip(parity_blocks, expected[params.k :]):
        if not np.array_equal(np.ascontiguousarray(stored, dtype=np.uint8), computed):
            return "corrupt"
    return "ok"

"""Stripe-level erasure coding with variable-sized data blocks.

The paper's key storage-layer mechanic (Figure 2): a stripe holds ``k`` data
blocks which may have *different* sizes.  Parity can only be computed over
equal-sized buffers, so every data block is implicitly padded with zeros to
the size of the stripe's largest block, and each of the ``n - k`` parity
blocks materialises at that maximum size.  The zero padding of data blocks
is *implicit* — it is never stored or transferred — but parity blocks are
stored in full, so stripe storage overhead is::

    overhead = (n - k) * max_block_size / sum(data_block_sizes)

which is minimised when the blocks are equal-sized (the conventional
fixed-block layout) and can degrade to ``n - k`` when one block dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ec import gf256
from repro.ec.reed_solomon import CodeParams, DecodeError, get_coder


@dataclass(frozen=True)
class StripeShapeStats:
    """Size accounting for one stripe of variable-sized data blocks."""

    data_sizes: tuple[int, ...]
    parity_count: int

    @property
    def max_block(self) -> int:
        return max(self.data_sizes) if self.data_sizes else 0

    @property
    def data_bytes(self) -> int:
        return sum(self.data_sizes)

    @property
    def parity_bytes(self) -> int:
        return self.parity_count * self.max_block

    @property
    def stored_bytes(self) -> int:
        """Bytes physically stored: plaintext data plus full-size parity."""
        return self.data_bytes + self.parity_bytes

    @property
    def overhead(self) -> float:
        """Storage overhead ratio ``parity_bytes / data_bytes``."""
        if self.data_bytes == 0:
            return 0.0
        return self.parity_bytes / self.data_bytes


@dataclass
class EncodedStripe:
    """A stripe after erasure coding.

    ``data_blocks`` keep their original (unpadded) sizes; ``parity_blocks``
    all have the size of the largest data block.
    """

    params: CodeParams
    data_blocks: list[np.ndarray]
    parity_blocks: list[np.ndarray]
    stats: StripeShapeStats = field(init=False)

    def __post_init__(self) -> None:
        self.stats = StripeShapeStats(
            data_sizes=tuple(int(b.size) for b in self.data_blocks),
            parity_count=len(self.parity_blocks),
        )

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    def shards(self) -> list[np.ndarray]:
        """All ``n`` blocks in stripe order (data first, then parity)."""
        return list(self.data_blocks) + list(self.parity_blocks)


def _solve(
    params: CodeParams, shards: list[np.ndarray | None], present: list[int], width: int
) -> np.ndarray:
    """The ``(n, width)`` stripe matrix: the ``present`` shards stacked
    once, zero-padded, with the other data rows recovered from the first
    ``k`` of them."""
    stack = np.zeros((params.n, width), dtype=np.uint8)
    for i in present:
        stack[i, : shards[i].size] = shards[i]
    kept = set(present)
    lost = [i for i in range(params.k) if i not in kept]
    if lost:
        rows = present[: params.k]
        stack[lost] = get_coder(params).recover(tuple(rows), stack[rows], lost)
    return stack


def encode_stripe(params: CodeParams, data_blocks: list[np.ndarray]) -> EncodedStripe:
    """Erasure-code one stripe of up to ``k`` variable-sized data blocks.

    Fewer than ``k`` blocks may be supplied (a trailing, partially-filled
    stripe); the missing blocks are treated as empty.
    """
    if not data_blocks:
        raise ValueError("stripe must contain at least one data block")
    if len(data_blocks) > params.k:
        raise ValueError(f"stripe holds at most k={params.k} data blocks, got {len(data_blocks)}")
    blocks = [np.ascontiguousarray(b, dtype=np.uint8) for b in data_blocks]
    while len(blocks) < params.k:
        blocks.append(np.zeros(0, dtype=np.uint8))

    max_size = max(b.size for b in blocks)
    if max_size == 0:
        raise ValueError("stripe data blocks are all empty")
    # Build the zero-padded (k, max_size) stripe matrix directly so the
    # coder runs one whole-stripe matmul without re-stacking per block.
    stacked = np.zeros((params.k, max_size), dtype=np.uint8)
    for i, block in enumerate(blocks):
        stacked[i, : block.size] = block
    parity = get_coder(params).encode(stacked)
    return EncodedStripe(params=params, data_blocks=blocks, parity_blocks=parity)


def decode_stripe(
    params: CodeParams,
    shards: list[np.ndarray | None],
    data_sizes: list[int],
) -> list[np.ndarray]:
    """Reconstruct the original (unpadded) data blocks of a stripe.

    ``shards`` lists all ``n`` blocks in stripe order with ``None`` for lost
    blocks.  Surviving data blocks may be passed at their stored (unpadded)
    size; they are re-padded internally.  ``data_sizes`` gives the original
    size of each data block so padding can be stripped after recovery.
    """
    if len(shards) != params.n:
        raise ValueError(f"expected {params.n} shards, got {len(shards)}")
    if len(data_sizes) != params.k:
        raise ValueError(f"expected {params.k} data sizes, got {len(data_sizes)}")
    present = [i for i, s in enumerate(shards) if s is not None]
    if not present:
        raise DecodeError("no surviving shards")
    if len(present) < params.k:
        raise DecodeError(
            f"unrecoverable stripe: only {len(present)} of {params.n} shards "
            f"survive but {params.k} are required"
        )
    width = max(max(shards[i].size for i in present), max(data_sizes))
    stack = _solve(params, shards, present, width)
    return [stack[i, :size].copy() for i, size in enumerate(data_sizes)]


def stripe_codeword(
    params: CodeParams,
    shards: list[np.ndarray | None],
    data_sizes: list[int],
    erased: frozenset[int] = frozenset(),
) -> list[np.ndarray] | None:
    """The stripe's ``n`` shards when its readable shards, less the
    positions in ``erased``, form one consistent codeword; else ``None``.

    ``shards`` holds the ``n`` positions at their true sizes (``None`` =
    unreadable).  One pass: lost data rows are recovered with the code's
    memoised inverse rows, parity is recomputed with its fixed parity
    rows.  There is no codeword when fewer than ``k`` shards are readable,
    a readable shard has the wrong length, a recovered data row has
    non-zero bytes past its true size, or a readable parity shard differs
    from its recomputed value: exactly the stripes a decode, re-encode and
    compare of every readable shard rejects.  Unreadable and erased
    positions come back as new arrays (safe to store); the others are the
    caller's own shards.
    """
    if erased:
        shards = [None if i in erased else s for i, s in enumerate(shards)]
    return stripe_codewords(params, [(shards, data_sizes)])[0]


#: Columns one batched solve stacks at most (:func:`stripe_codewords`): a
#: round of wide stripes is solved a slice at a time, so its working set
#: (the stack, the products and their gather indices) stays near 1 MiB.
#: Wider slices measured ~1.5 MB (2^16) and ~5 MB (2^17) more peak RSS
#: on ``degraded_repair``.
_SOLVE_COLUMNS = 1 << 15


def stripe_codewords(
    params: CodeParams, stripes: list[tuple[list[np.ndarray | None], list[int]]]
) -> list[list[np.ndarray] | None]:
    """:func:`stripe_codeword` of each ``(shards, data_sizes)`` stripe,
    solved together: the stripes' columns are concatenated, those that
    can read the same positions side by side, so each such batch costs
    one recover product and all of them share one parity product (per
    :data:`_SOLVE_COLUMNS` columns).  The code works column by column,
    so a stripe's segment is exactly its own solve."""
    k = params.k
    batches: dict[tuple[int, ...], list[int]] = {}
    for s, (shards, sizes) in enumerate(stripes):
        width = max(sizes)
        readable = tuple(i for i, shard in enumerate(shards) if shard is not None)
        if len(readable) >= k and all(
            shards[i].size == (sizes[i] if i < k else width) for i in readable
        ):
            batches.setdefault(readable, []).append(s)
    out: list[list[np.ndarray] | None] = [None] * len(stripes)
    chunk: list[tuple[int, tuple[int, ...]]] = []
    columns = 0
    for readable, members in batches.items():
        for s in members:
            width = max(stripes[s][1])
            if chunk and columns + width > _SOLVE_COLUMNS:
                _solve_batch(params, stripes, chunk, columns, out)
                chunk, columns = [], 0
            chunk.append((s, readable))
            columns += width
    if chunk:
        _solve_batch(params, stripes, chunk, columns, out)
    return out


def _solve_batch(params: CodeParams, stripes, chunk, columns: int, out) -> None:
    """Solve the ``(stripe, readable positions)`` of ``chunk``, stripes
    that read the same positions adjacent, in one ``(n, columns)`` stack;
    write each consistent stripe's codeword into ``out``."""
    k, n = params.k, params.n
    coder = get_coder(params)
    stack = np.zeros((n, columns), dtype=np.uint8)
    spans = []
    lo = 0
    for s, readable in chunk:
        shards, sizes = stripes[s]
        for i in readable:
            stack[i, lo : lo + shards[i].size] = shards[i]
        spans.append((s, readable, lo, lo + max(sizes)))
        lo += max(sizes)
    first = 0
    while first < len(spans):
        readable = spans[first][1]
        last = first
        while last + 1 < len(spans) and spans[last + 1][1] == readable:
            last += 1
        lost = [i for i in range(k) if i not in readable]
        if lost:
            rows = list(readable[:k])
            lo, hi = spans[first][2], spans[last][3]
            stack[lost, lo:hi] = coder.recover(tuple(rows), stack[rows, lo:hi], lost)
        first = last + 1
    parity = gf256.gf_matmul_blocks(coder.matrix[k:], stack[:k])
    for s, readable, lo, hi in spans:
        shards, sizes = stripes[s]
        kept = set(readable)
        if any(stack[i, lo + sizes[i] : hi].any() for i in range(k) if i not in kept) or any(
            not np.array_equal(parity[i - k, lo:hi], stack[i, lo:hi]) for i in readable if i >= k
        ):
            continue
        out[s] = [
            shards[i]
            if i in kept
            else (stack[i, lo : lo + sizes[i]] if i < k else parity[i - k, lo:hi]).copy()
            for i in range(n)
        ]


def fixed_stripe_stats(params: CodeParams, total_bytes: int, block_size: int) -> StripeShapeStats:
    """Size accounting for the conventional fixed-block layout of an object.

    Models how a MinIO/Ceph-like system would stripe ``total_bytes`` into
    ``block_size`` blocks: full stripes of ``k`` equal blocks plus one
    trailing partial stripe.
    """
    if block_size <= 0:
        raise ValueError("block size must be positive")
    sizes: list[int] = []
    remaining = total_bytes
    while remaining > 0:
        take = min(block_size, remaining)
        sizes.append(take)
        remaining -= take
    # Group into stripes of k; overhead accrues per stripe.
    parity_bytes = 0
    for start in range(0, len(sizes), params.k):
        stripe_sizes = sizes[start : start + params.k]
        parity_bytes += params.parity * max(stripe_sizes)
    return StripeShapeStats(data_sizes=tuple(sizes), parity_count=0) if total_bytes == 0 else _stats_from(
        sizes, parity_bytes
    )


@dataclass(frozen=True)
class _AggregateStats(StripeShapeStats):
    """Aggregated multi-stripe stats where parity bytes are precomputed."""

    explicit_parity_bytes: int = 0

    @property
    def parity_bytes(self) -> int:  # type: ignore[override]
        return self.explicit_parity_bytes


def _stats_from(sizes: list[int], parity_bytes: int) -> StripeShapeStats:
    return _AggregateStats(
        data_sizes=tuple(sizes), parity_count=0, explicit_parity_bytes=parity_bytes
    )

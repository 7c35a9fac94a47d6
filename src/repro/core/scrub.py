"""Background scrubbing: verify stripe parity consistency.

Production erasure-coded stores periodically re-read stripes and check
that parity still matches data, catching silent corruption (bit rot,
torn writes) before enough redundancy is lost to make it unrecoverable.
Both stores expose ``verify_object``; the stripe-level check lives here.

Verdicts distinguish *unreadable* from *damaged*: blocks on dead nodes
(or missing entirely) make a stripe ``incomplete``, never ``corrupt``.
When the caller supplies the stripe's true data sizes, a degraded stripe
(missing blocks within the code's tolerance) is additionally checked for
corruption by reconstructing the missing shards and re-verifying parity
consistency — so bit rot is not masked by a concurrent node failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ec.reed_solomon import CodeParams
from repro.ec.stripe import encode_stripe, stripe_codeword


@dataclass
class ScrubReport:
    """Outcome of scrubbing one object."""

    object_name: str
    stripes_checked: int = 0
    corrupt_stripes: list[int] = field(default_factory=list)
    incomplete_stripes: list[int] = field(default_factory=list)  # missing blocks
    #: Blocks whose bytes fail the CRC recorded at Put (end-to-end
    #: checksums localise damage to a block; parity cross-checks above
    #: only prove *some* shard is damaged).
    checksum_mismatch_blocks: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            not self.corrupt_stripes
            and not self.incomplete_stripes
            and not self.checksum_mismatch_blocks
        )


def check_stripe(
    params: CodeParams,
    data_blocks: list[np.ndarray | None],
    parity_blocks: list[np.ndarray | None],
    data_sizes: list[int] | None = None,
) -> str:
    """Verify one stripe: ``"ok"``, ``"corrupt"`` or ``"incomplete"``.

    ``data_blocks`` holds the k stored data payloads at their true sizes
    (``None`` for unreadable ones); ``parity_blocks`` the n-k parity
    payloads.  Parity is recomputed from the data and compared.

    With ``data_sizes`` given, a stripe with unreadable blocks (within
    the code's erasure tolerance) is reconstructed and cross-checked, so
    it can come back ``"corrupt"`` when a *readable* block is damaged;
    without them, any unreadable block short-circuits to
    ``"incomplete"``.  Unreadable blocks alone are always
    ``"incomplete"``, never ``"corrupt"``.
    """
    missing = sum(1 for b in data_blocks if b is None) + sum(
        1 for p in parity_blocks if p is None
    )
    if missing:
        if data_sizes is None or missing > params.parity:
            return "incomplete"
        # Readable shards that form no codeword: at least one of them is
        # damaged (which one is isolated at repair time, see
        # ``repro.core.repair``).
        shards = list(data_blocks) + list(parity_blocks)
        if stripe_codeword(params, shards, data_sizes) is None:
            return "corrupt"
        return "incomplete"
    present = [np.ascontiguousarray(b, dtype=np.uint8) for b in data_blocks]
    if all(b.size == 0 for b in present):
        return "corrupt"  # a stripe with no data should not exist
    expected = encode_stripe(params, present)
    for stored, computed in zip(parity_blocks, expected.parity_blocks):
        if not np.array_equal(np.ascontiguousarray(stored, dtype=np.uint8), computed):
            return "corrupt"
    return "ok"

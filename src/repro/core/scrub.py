"""Background scrubbing: verify stripe parity consistency.

Production erasure-coded stores periodically re-read stripes and check
that parity still matches data, catching silent corruption (bit rot,
torn writes) before enough redundancy is lost to make it unrecoverable.
Both stores expose ``verify_object``; the stripe-level check lives here.

Verdicts distinguish *unreadable* from *damaged*: blocks on dead nodes
(or missing entirely) make a stripe ``incomplete``, never ``corrupt``.
When the caller supplies the stripe's true data sizes, a degraded stripe
(missing blocks within the code's tolerance) is additionally checked for
corruption by the same solve that repair uses — so bit rot is not masked
by a concurrent node failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ec.reed_solomon import CodeParams
from repro.ec.stripe import stripe_codeword


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
    payloads.  The verdict is the repair solve's (:func:`stripe_codeword`):
    readable shards that form no codeword mean at least one of them is
    damaged (which one is isolated at repair time, see
    ``repro.core.repair``).

    A whole stripe is solved at its blocks' stored sizes.  With
    ``data_sizes`` given, a stripe with unreadable blocks (within the
    code's erasure tolerance) is solved at those Put-time sizes, so it
    can come back ``"corrupt"`` when a *readable* block is damaged;
    without them, any unreadable block short-circuits to
    ``"incomplete"``.  Unreadable blocks alone are always
    ``"incomplete"``, never ``"corrupt"``.
    """
    shards = list(data_blocks) + list(parity_blocks)
    missing = sum(1 for s in shards if s is None)
    if missing:
        if data_sizes is None or missing > params.parity:
            return "incomplete"
        return "corrupt" if stripe_codeword(params, shards, data_sizes) is None else "incomplete"
    sizes = [b.size for b in data_blocks]
    if not any(sizes):
        return "corrupt"  # a stripe with no data should not exist
    return "ok" if stripe_codeword(params, shards, sizes) is not None else "corrupt"

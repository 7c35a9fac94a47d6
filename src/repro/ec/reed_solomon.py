"""Systematic Reed-Solomon erasure coding.

An ``(n, k)`` systematic code stores the ``k`` original data blocks in
plaintext and adds ``n - k`` parity blocks, tolerating the loss of any
``n - k`` blocks.  The encoding matrix is a systematic normalized Cauchy
matrix — the construction used by production coders (Jerasure, ISA-L) —
which guarantees every ``k x k`` submatrix used in recovery is invertible
and makes the first parity row a plain XOR of the data blocks.

The coder operates on equal-length uint8 blocks; callers that need
variable-sized blocks (Fusion stripes) pad to the maximum block size via
:mod:`repro.ec.stripe`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ec import gf256


class DecodeError(Exception):
    """Raised when a stripe cannot be reconstructed from surviving blocks."""


def build_encoding_matrix(n: int, k: int) -> np.ndarray:
    """Return the ``n x k`` systematic encoding matrix for an (n, k) code.

    The first ``k`` rows form the identity; the remaining ``n - k`` rows
    are the parity coefficients of a *normalized Cauchy* matrix (the
    ISA-L ``gf_gen_cauchy1``-style construction): every square submatrix
    of a Cauchy matrix is nonsingular, and diagonal row/column scaling
    preserves that, so the code is MDS.  Normalizing the first parity
    row to all ones makes the first parity shard a plain XOR of the data
    shards (RAID-5-compatible), which both encoding and single-loss
    recovery exploit as a gather-free fast path.
    """
    if not (0 < k < n):
        raise ValueError(f"invalid code parameters (n={n}, k={k})")
    if n > gf256.FIELD_SIZE:
        raise ValueError(f"n={n} exceeds GF(2^8) field size")
    r = n - k
    cauchy = np.zeros((r, k), dtype=np.uint8)
    for i in range(r):
        for j in range(k):
            cauchy[i, j] = gf256.gf_inv(i ^ (r + j))
    # Scale each row so column 0 is all ones, then each column so row 0
    # is all ones (column 0 stays ones because entry (0, 0) is then 1).
    for i in range(r):
        cauchy[i] = gf256.gf_mul_bytes(gf256.gf_inv(int(cauchy[i, 0])), cauchy[i])
    for j in range(k):
        scale = gf256.gf_inv(int(cauchy[0, j]))
        for i in range(r):
            cauchy[i, j] = gf256.gf_mul(scale, int(cauchy[i, j]))
    out = np.zeros((n, k), dtype=np.uint8)
    out[:k] = np.eye(k, dtype=np.uint8)
    out[k:] = cauchy
    return out


@dataclass(frozen=True)
class CodeParams:
    """Erasure code parameters ``(n, k)``.

    ``n`` is the total number of blocks per stripe and ``k`` the number of
    data blocks; the code tolerates ``n - k`` lost blocks.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if not (0 < self.k < self.n):
            raise ValueError(f"invalid code parameters {self}")

    @property
    def parity(self) -> int:
        """Number of parity blocks per stripe."""
        return self.n - self.k

    @property
    def optimal_overhead(self) -> float:
        """The optimal storage overhead ``(n - k) / k`` (e.g. 0.5 for RS(9,6))."""
        return (self.n - self.k) / self.k

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"RS({self.n},{self.k})"


#: The paper's default code.
RS_9_6 = CodeParams(9, 6)
#: The paper's alternative wide code.
RS_14_10 = CodeParams(14, 10)


class ReedSolomon:
    """Encoder/decoder for one ``(n, k)`` systematic Reed-Solomon code."""

    def __init__(self, params: CodeParams) -> None:
        self.params = params
        self.matrix = build_encoding_matrix(params.n, params.k)
        # Recovery matrices memoised per surviving-shard set: repair and
        # degraded reads hit the same few loss patterns over and over,
        # and GF(2^8) Gaussian elimination dominates small-stripe decode.
        # At most C(n, k) entries (84 for RS(9,6)), so no bound needed.
        self._inversion_cache: dict[tuple[int, ...], np.ndarray] = {}

    def _recovery_matrix(self, rows: tuple[int, ...]) -> np.ndarray:
        """Inverse of the encoding submatrix for one surviving-shard set."""
        inv = self._inversion_cache.get(rows)
        if inv is None:
            inv = gf256.gf_mat_inv(self.matrix[list(rows), :])
            self._inversion_cache[rows] = inv
        return inv

    def recover(
        self, rows: tuple[int, ...], survivors: np.ndarray, missing: list[int]
    ) -> np.ndarray:
        """Data rows ``missing`` from ``survivors``, the ``(k, size)``
        stack of the shards at stripe positions ``rows``."""
        return gf256.gf_matmul_blocks(self._recovery_matrix(rows)[missing], survivors)

    def encode(self, data_blocks: list[np.ndarray] | np.ndarray) -> list[np.ndarray]:
        """Compute the ``n - k`` parity blocks for ``k`` equal-sized blocks.

        ``data_blocks`` may be a list of ``k`` equal-sized uint8 arrays or
        an already-stacked ``(k, size)`` matrix (the stripe layer builds
        the padded matrix directly to avoid one copy).  Returns only the
        parity blocks; the data blocks are stored verbatim (the code is
        systematic).  All parity for the stripe is produced by a single
        GF(2^8) matrix product over the whole stacked stripe.
        """
        k = self.params.k
        if isinstance(data_blocks, np.ndarray) and data_blocks.ndim == 2:
            if data_blocks.shape[0] != k:
                raise ValueError(f"expected {k} data blocks, got {data_blocks.shape[0]}")
            stacked = np.ascontiguousarray(data_blocks, dtype=np.uint8)
        else:
            if len(data_blocks) != k:
                raise ValueError(f"expected {k} data blocks, got {len(data_blocks)}")
            sizes = {block.size for block in data_blocks}
            if len(sizes) != 1:
                raise ValueError(f"data blocks must be equal-sized, got sizes {sorted(sizes)}")
            stacked = np.empty((k, data_blocks[0].size), dtype=np.uint8)
            for i, block in enumerate(data_blocks):
                stacked[i] = block
        parity = gf256.gf_matmul_blocks(self.matrix[k:], stacked)
        return [parity[i] for i in range(self.params.parity)]

    def decode(self, shards: list[np.ndarray | None]) -> list[np.ndarray]:
        """Reconstruct the ``k`` data blocks from any ``k`` surviving shards.

        ``shards`` is the full stripe in index order (data blocks first, then
        parity); missing blocks are ``None``.  Returns the ``k`` recovered
        data blocks.  Only the *missing* data rows are recomputed (one
        matrix product of the relevant inverse rows against the stacked
        survivors); surviving data blocks pass through untouched, so a
        single-shard repair does ~k× less field arithmetic than a full
        stripe re-solve.
        """
        n, k = self.params.n, self.params.k
        if len(shards) != n:
            raise ValueError(f"expected {n} shards, got {len(shards)}")
        present = [i for i, s in enumerate(shards) if s is not None]
        if len(present) < k:
            raise DecodeError(
                f"unrecoverable stripe: only {len(present)} of {n} shards "
                f"survive but {k} are required"
            )

        # Fast path: all data blocks intact.
        if all(shards[i] is not None for i in range(k)):
            return [np.ascontiguousarray(shards[i], dtype=np.uint8) for i in range(k)]

        rows = tuple(present[:k])
        size = shards[rows[0]].size  # type: ignore[union-attr]
        survivors = np.empty((k, size), dtype=np.uint8)
        for j, shard_idx in enumerate(rows):
            survivors[j] = shards[shard_idx]
        missing = [i for i in range(k) if shards[i] is None]
        recovered = self.recover(rows, survivors, missing)
        out: list[np.ndarray] = []
        cursor = 0
        for i in range(k):
            if shards[i] is None:
                out.append(recovered[cursor])
                cursor += 1
            else:
                out.append(np.ascontiguousarray(shards[i], dtype=np.uint8))
        return out

    def verify(self, shards: list[np.ndarray]) -> bool:
        """Check that a full stripe is consistent (parity matches data)."""
        if len(shards) != self.params.n:
            return False
        expected = self.encode(list(shards[: self.params.k]))
        return all(
            np.array_equal(expected[i], shards[self.params.k + i])
            for i in range(self.params.parity)
        )


_CODER_CACHE: dict[CodeParams, ReedSolomon] = {}


def get_coder(params: CodeParams) -> ReedSolomon:
    """Return a cached coder for ``params`` (matrix construction is costly)."""
    coder = _CODER_CACHE.get(params)
    if coder is None:
        coder = ReedSolomon(params)
        _CODER_CACHE[params] = coder
    return coder

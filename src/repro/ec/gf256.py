"""Galois field GF(2^8) arithmetic.

This module provides finite-field arithmetic over GF(2^8) with the
conventional Rijndael/ISA-L generator polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11D).  All bulk operations are table-driven and vectorised with numpy so
that erasure coding of multi-megabyte blocks stays fast in pure Python.

The field is exposed both as scalar helpers (``gf_mul``, ``gf_inv``) used by
matrix construction/inversion, and as bulk helpers (``gf_mul_bytes``,
``gf_addmul_bytes``) used on data buffers during encoding and recovery.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

#: The irreducible polynomial x^8 + x^4 + x^3 + x^2 + 1 used for reduction.
PRIMITIVE_POLY = 0x11D

#: Number of elements in the field.
FIELD_SIZE = 256

#: Generator element used to build the exp/log tables.
GENERATOR = 2


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exponentiation and logarithm tables for GF(2^8).

    Returns ``(exp, log)`` where ``exp`` has 512 entries (doubled so that
    ``exp[log[a] + log[b]]`` never needs an explicit modulo) and ``log`` has
    256 entries with ``log[0]`` left as 0 (log of zero is undefined; callers
    must special-case zero).
    """
    exp = np.zeros(2 * FIELD_SIZE, dtype=np.int32)
    log = np.zeros(FIELD_SIZE, dtype=np.int32)
    x = 1
    for i in range(FIELD_SIZE - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    for i in range(FIELD_SIZE - 1, 2 * FIELD_SIZE):
        exp[i] = exp[i - (FIELD_SIZE - 1)]
    return exp, log


_EXP, _LOG = _build_tables()

#: 256x256 multiplication table; ``_MUL[a, b] == a * b`` in GF(2^8).
_MUL = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
_a = np.arange(FIELD_SIZE)
for _row in range(1, FIELD_SIZE):
    _MUL[_row, 1:] = _EXP[_LOG[_row] + _LOG[_a[1:]]].astype(np.uint8)
del _a, _row

#: ``_MUL`` rows as ``bytes.translate`` tables: ``_MUL_ROWS[c]`` maps
#: every byte ``b`` to ``c * b``.
_MUL_ROWS = [row.tobytes() for row in _MUL]


def gf_add(a: int, b: int) -> int:
    """Add two field elements (XOR in characteristic 2)."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b``; raises ``ZeroDivisionError`` when ``b`` is 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(_EXP[_LOG[a] - _LOG[b] + (FIELD_SIZE - 1)])


def gf_inv(a: int) -> int:
    """Multiplicative inverse of ``a``; raises for 0."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return int(_EXP[(FIELD_SIZE - 1) - _LOG[a]])


def gf_pow(a: int, n: int) -> int:
    """Raise ``a`` to the integer power ``n`` (n >= 0)."""
    if n == 0:
        return 1
    if a == 0:
        return 0
    return int(_EXP[(_LOG[a] * n) % (FIELD_SIZE - 1)])


def gf_mul_bytes(coeff: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``data`` by the scalar ``coeff``.

    ``data`` must be a uint8 array; a new uint8 array is returned.
    """
    if coeff == 0:
        return np.zeros_like(data)
    if coeff == 1:
        return data.copy()
    return _MUL[coeff][data]


def gf_addmul_bytes(acc: np.ndarray, coeff: int, data: np.ndarray) -> None:
    """In-place ``acc ^= coeff * data`` over uint8 arrays.

    This is the inner loop of Reed-Solomon encoding: accumulating one
    source block scaled by one matrix coefficient into a parity block.
    """
    if coeff == 0:
        return
    if coeff == 1:
        np.bitwise_xor(acc, data, out=acc)
        return
    np.bitwise_xor(acc, _MUL[coeff][data], out=acc)


#: Lazily-built 65536-entry lane tables for the whole-stripe matmul.  The
#: key is a tuple of 1, 2, or up to 4 coefficients; entry ``v`` holds, in
#: consecutive 16-bit lanes, the products of each coefficient with the
#: little-endian byte *pair* ``v``.  Gathering pairs halves the element
#: count versus a per-byte ``_MUL`` gather, and packing up to four output
#: rows per lane-table means one gather feeds four parity shards at once
#: (XOR lanes never carry into each other).  A table is 128-512 KiB, and
#: while an encoding matrix has a handful of distinct columns, decode's
#: inverse rows bring new coefficients with almost every erasure pattern
#: (every RS(14,10) pattern once: 8,066 tables, 3.5 GiB).  So the memo is
#: an LRU bounded to ``_LANE_TABLE_BYTES``.  Only products at least one
#: tile wide use it (the data plane's multi-MB shards); at the perf
#: benchmark's size scale Fusion's stripes and the baseline's blocks are
#: narrower, so a run of its ``degraded_repair`` builds none.
_LANE_TABLES: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()

_LANE_TABLE_BYTES = 48 << 20

_LANE_DTYPES = {1: np.uint16, 2: np.uint32, 3: np.uint64, 4: np.uint64}

#: Row plans of :func:`gf_matmul_blocks`, keyed by coefficient matrix
#: (shape and bytes).  Its callers pass the code's fixed parity rows
#: and the inverse rows of each erasure pattern, so a handful of plans
#: serve every call.  Plans hold lane tables: evicting a table drops every
#: plan, so no plan pins one; at ``_MAX_PLANS`` the memo starts over.
_PLANS: dict[tuple[tuple[int, int], bytes], tuple[list, list]] = {}

_MAX_PLANS = 1024

_LITTLE_ENDIAN = np.dtype(np.uint16).newbyteorder("=") == np.dtype("<u2")

#: Byte-pairs per matmul tile (128 KiB of shard data).  Gathers are only
#: fast while the 256-512 KiB lane table stays cache-resident; streaming
#: whole multi-MB shards through one gather evicts it between lookups
#: (measured ~3x slower at 4 MiB shards), so the product is computed in
#: column tiles whose index/accumulator working set fits alongside it.
#: A product narrower than one tile (``2 * _TILE_PAIRS`` columns) skips
#: the lane tables altogether (:func:`_translate_product`).
_TILE_PAIRS = 1 << 16


def _lane_table(coeffs: tuple[int, ...]) -> np.ndarray:
    table = _LANE_TABLES.get(coeffs)
    if table is not None:
        _LANE_TABLES.move_to_end(coeffs)
        return table
    dtype = _LANE_DTYPES[len(coeffs)]
    table = np.zeros(FIELD_SIZE * FIELD_SIZE, dtype=dtype)
    for lane, coeff in enumerate(coeffs):
        row = _MUL[coeff].astype(np.uint16)
        pair = np.tile(row, FIELD_SIZE) | (np.repeat(row, FIELD_SIZE) << 8)
        table |= pair.astype(dtype) << dtype(16 * lane)
    _LANE_TABLES[coeffs] = table
    held = sum(t.nbytes for t in _LANE_TABLES.values())
    while held > _LANE_TABLE_BYTES:
        held -= _LANE_TABLES.popitem(last=False)[1].nbytes
        _PLANS.clear()
    return table


def _matmul_plan(matrix: np.ndarray) -> tuple[list, list]:
    """The row plan of one coefficient matrix, memoised.

    Rows whose coefficients are all 0/1 (the all-ones Cauchy parity row,
    identity-derived inverse rows) need no gathers at all, just an XOR of
    the inputs they select.  The other rows go in groups of up to four
    lanes, each with one lane table per input shard it reads."""
    key = (matrix.shape, matrix.tobytes())
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    rows = matrix.tolist()
    dense = [i for i, row in enumerate(rows) if max(row, default=0) > 1]
    xor_rows = []
    for i, row in enumerate(rows):
        if i not in dense:
            picked = [j for j, c in enumerate(row) if c]
            # All k inputs (the all-ones row): a view, not a gathered copy.
            xor_rows.append((i, slice(None) if len(picked) == len(row) else picked))
    groups = []
    for base in range(0, len(dense), 4):
        group = dense[base : base + 4]
        terms = []
        for j in range(matrix.shape[1]):
            coeffs = tuple(rows[i][j] for i in group)
            if any(coeffs):
                terms.append((j, _lane_table(coeffs)))
        groups.append((group, terms))
    if len(_PLANS) >= _MAX_PLANS:
        _PLANS.clear()
    plan = _PLANS[key] = (xor_rows, groups)
    return plan


def _translate_product(matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The product for shards narrower than one tile.

    Each output row is the XOR of its input rows, each passed through
    ``bytes.translate`` with the 256-byte table of its coefficient (1
    copies the row, 0 skips it).  The tables stay in cache whatever the
    coefficients, where a narrow lane-table product gathers from a cold
    128-512 KiB table per term, and nothing is memoised."""
    out = np.zeros((matrix.shape[0], blocks.shape[1]), dtype=np.uint8)
    shards = [row.tobytes() for row in blocks]
    for acc, coeffs in zip(out, matrix.tolist()):
        for j, coeff in enumerate(coeffs):
            if coeff == 1:
                np.bitwise_xor(acc, blocks[j], out=acc)
            elif coeff:
                term = shards[j].translate(_MUL_ROWS[coeff])
                np.bitwise_xor(acc, np.frombuffer(term, dtype=np.uint8), out=acc)
    return out


def gf_matmul_blocks(matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """GF(2^8) product of a small coefficient matrix with a block matrix.

    ``matrix`` is ``(r, k)`` uint8 coefficients and ``blocks`` a ``(k, L)``
    uint8 matrix whose rows are whole shards.  Returns the ``(r, L)``
    product.  This is the Reed-Solomon inner loop.  Shards narrower than
    one tile (Fusion's stripes, and the baseline's blocks at the perf
    benchmark's size scale) take :func:`_translate_product`.  Wider ones
    produce output rows in groups of up to four, each group accumulated
    with one lane-table gather per input shard over uint16 byte-pairs,
    with the row plan derived once per matrix (:func:`_matmul_plan`).
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
    if matrix.ndim != 2 or blocks.ndim != 2 or matrix.shape[1] != blocks.shape[0]:
        raise ValueError(f"shape mismatch: {matrix.shape} @ {blocks.shape}")
    r, k = matrix.shape
    L = blocks.shape[1]
    if r == 0 or L == 0:
        return np.zeros((r, L), dtype=np.uint8)
    if L < 2 * _TILE_PAIRS:
        return _translate_product(matrix, blocks)
    if not _LITTLE_ENDIAN:
        return gf_matmul(matrix, blocks)
    xor_rows, groups = _matmul_plan(matrix)
    if L & 1:
        work = np.zeros((k, L + 1), dtype=np.uint8)
        work[:, :L] = blocks
    else:
        work = blocks
    pairs = work.view(np.uint16)
    half = pairs.shape[1]
    out = np.empty((r, half), dtype=np.uint16)
    for i, sel in xor_rows:
        if sel:
            np.bitwise_xor.reduce(pairs[sel], axis=0, out=out[i])
        else:
            out[i] = 0
    # Dense groups run tile by tile so tables and accumulators stay
    # cache-resident.  Gather indices are cast to intp once per shard per
    # tile and shared by every group (numpy would otherwise re-cast per
    # gather); a lane's 16 bits are a uint16 view of the accumulator.
    for lo in range(0, half, _TILE_PAIRS):
        hi = min(lo + _TILE_PAIRS, half)
        indices: list[np.ndarray | None] = [None] * k
        for group, terms in groups:
            acc = None
            for j, table in terms:
                idx = indices[j]
                if idx is None:
                    idx = indices[j] = pairs[j, lo:hi].astype(np.intp)
                if acc is None:
                    acc = table.take(idx)
                else:
                    acc ^= table.take(idx)
            lanes = acc.view(np.uint16).reshape(hi - lo, -1)
            out[group, lo:hi] = lanes[:, : len(group)].T
    result = out.view(np.uint8)[:, :L]
    return result if result.flags.c_contiguous else np.ascontiguousarray(result)


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two GF(2^8) matrices given as uint8 2-D arrays."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        row = np.zeros(b.shape[1], dtype=np.uint8)
        for k in range(a.shape[1]):
            coeff = int(a[i, k])
            if coeff:
                gf_addmul_bytes(row, coeff, b[k])
        out[i] = row
    return out


def gf_mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(2^8) matrix by Gauss-Jordan elimination.

    Raises ``ValueError`` when the matrix is singular.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    # Work on an augmented [M | I] matrix of Python ints for clarity.
    aug = np.zeros((n, 2 * n), dtype=np.uint8)
    aug[:, :n] = matrix
    aug[:, n:] = np.eye(n, dtype=np.uint8)

    for col in range(n):
        # Find a pivot row.
        pivot = -1
        for row in range(col, n):
            if aug[row, col] != 0:
                pivot = row
                break
        if pivot < 0:
            raise ValueError("matrix is singular over GF(2^8)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        # Normalise the pivot row.
        inv = gf_inv(int(aug[col, col]))
        aug[col] = gf_mul_bytes(inv, aug[col])
        # Eliminate the column from all other rows.
        for row in range(n):
            if row != col and aug[row, col] != 0:
                coeff = int(aug[row, col])
                gf_addmul_bytes(aug[row], coeff, aug[col])
    return aug[:, n:].copy()


def gf_vandermonde(rows: int, cols: int) -> np.ndarray:
    """Build a ``rows x cols`` Vandermonde matrix ``V[i, j] = i^j``."""
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = gf_pow(i, j)
    return out

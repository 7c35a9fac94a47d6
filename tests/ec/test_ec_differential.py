"""Production erasure coding against its straight-line references.

``tests/ec/_ec_reference.py`` keeps the code the production paths
replaced: a matmul that runs its lane-table plan at every width, and the
decode -> re-encode -> compare stripe check.  The production matmul
(translate tables below one tile, lane tables from it) must equal the
scalar ``gf_matmul``, and ``stripe_codeword`` - through ``localise_stripe``
and ``check_stripe`` - must accept and reject exactly the stripes the
reference does, and return the same codeword.  A repair round's batched
solve (``stripe_codewords``, and ``localise_stripes`` over it) must give
every stripe of a batch what the one-stripe functions give it alone.
"""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.repair import RepairError, localise_stripe, localise_stripes
from repro.core.scrub import check_stripe
from repro.ec import RS_9_6, CodeParams, encode_stripe, gf256
from repro.ec import stripe as stripe_module
from repro.ec.stripe import stripe_codeword, stripe_codewords
from tests.ec import _ec_reference as ref

CODES = [RS_9_6, CodeParams(5, 3), CodeParams(6, 4)]


def _same_codeword(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RepairError:
        return RepairError


def _assert_same_localisation(params, shards, sizes) -> None:
    got = _outcome(localise_stripe, params, shards, sizes)
    want = _outcome(ref.localise_stripe, params, shards, sizes)
    if want is RepairError:
        assert got is RepairError
        return
    assert got is not RepairError
    assert got[0] == want[0]
    assert _same_codeword(got[1], want[1])


def _assert_same_verdict(params, shards, sizes) -> None:
    k = params.k
    for data_sizes in (sizes, None):
        assert check_stripe(params, shards[:k], shards[k:], data_sizes) == ref.check_stripe(
            params, shards[:k], shards[k:], data_sizes
        )


@st.composite
def damaged_stripes(draw):
    """An encoded stripe with erasures, byte flips and a resized shard."""
    params = draw(st.sampled_from(CODES))
    n, k = params.n, params.k
    sizes = draw(
        st.lists(st.integers(0, 40), min_size=k, max_size=k).filter(lambda s: max(s) > 0)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = [rng.integers(0, 256, size, dtype=np.uint8) for size in sizes]
    shards: list = encode_stripe(params, data)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=params.parity)):
        shards[i] = None
    readable = [i for i, s in enumerate(shards) if s is not None and s.size]
    for _ in range(draw(st.integers(0, 2))):
        if readable:
            i = draw(st.sampled_from(readable))
            shard = shards[i] = shards[i].copy()
            shard[draw(st.integers(0, shard.size - 1))] ^= draw(st.integers(1, 255))
    resize = draw(st.sampled_from([None, "truncate", "extend"]))
    present = [i for i, s in enumerate(shards) if s is not None]
    if resize == "extend" and present:
        i = draw(st.sampled_from(present))
        shards[i] = np.append(shards[i], np.uint8(draw(st.integers(0, 255))))
    elif resize == "truncate" and readable:
        i = draw(st.sampled_from(readable))
        shards[i] = shards[i][:-1].copy()
    return params, shards, sizes


#: Put-time sizes ``[0, 0, 1]``, nothing missing, and data shard 0
#: stored as one zero byte.  The stored bytes encode to the stored
#: parity, so the reference's verdict is "ok"; a check that solved a
#: whole stripe at its Put-time sizes would reject shard 0's length and
#: answer "corrupt".
_ZERO_BYTE_SHARD = (
    CodeParams(5, 3),
    encode_stripe(
        CodeParams(5, 3),
        [np.zeros(1, dtype=np.uint8), np.zeros(0, dtype=np.uint8), np.array([7], dtype=np.uint8)],
    ),
    [0, 0, 1],
)


class TestStripeCodeword:
    @settings(max_examples=150, deadline=None)
    @given(damaged_stripes())
    @example(_ZERO_BYTE_SHARD)
    def test_localise_and_scrub_match_the_reference(self, case):
        params, shards, sizes = case
        _assert_same_localisation(params, shards, sizes)
        _assert_same_verdict(params, shards, sizes)

    @settings(max_examples=60, deadline=None)
    @given(damaged_stripes(), st.data())
    def test_codeword_matches_the_reference_for_any_erasures(self, case, data):
        params, shards, sizes = case
        erased = frozenset(data.draw(st.sets(st.integers(0, params.n - 1), max_size=params.parity)))
        assert _same_codeword(
            stripe_codeword(params, shards, sizes, erased),
            ref.codeword(params, shards, sizes, erased),
        )

    @pytest.mark.parametrize("flips", [0, 1, 2])
    def test_every_erasure_set_within_the_budget(self, flips):
        """RS(9,6), zero-size, width-1 and odd-width bins: every erasure
        set of at most n - k positions, clean or with flipped bytes."""
        params, sizes = RS_9_6, [37, 0, 1, 37, 12, 0]
        rng = np.random.default_rng(flips)
        data = [rng.integers(0, 256, size, dtype=np.uint8) for size in sizes]
        clean = encode_stripe(params, data)
        for r in range(params.parity + 1):
            for erased in combinations(range(params.n), r):
                shards = [None if i in erased else s for i, s in enumerate(clean)]
                written = [i for i in range(params.n) if i not in erased and clean[i].size]
                for i in written[:flips]:
                    shards[i] = clean[i].copy()
                    shards[i][-1] ^= 0x5A
                assert _same_codeword(
                    stripe_codeword(params, shards, sizes, frozenset(erased)),
                    ref.codeword(params, shards, sizes, frozenset(erased)),
                )
                _assert_same_localisation(params, shards, sizes)
                _assert_same_verdict(params, shards, sizes)

    def test_stored_positions_are_fresh_arrays(self):
        """Positions the caller erased come back as their own arrays (a
        repair stores them), never views of a stacked buffer."""
        data = [np.arange(s, dtype=np.uint8) for s in (40, 9, 0, 40, 3, 17)]
        shards = encode_stripe(RS_9_6, data)
        shards[0] = shards[7] = None
        codeword = stripe_codeword(RS_9_6, shards, [40, 9, 0, 40, 3, 17])
        for i in (0, 7):
            assert codeword[i].base is None
        assert np.array_equal(codeword[0], data[0])


@st.composite
def round_stripe(draw, params: CodeParams):
    """One stripe of a repair round: zero-size and odd-width data
    positions, 0 to n - k + 1 missing positions, maybe a one-byte
    corruption of a readable shard and maybe a shard of the wrong
    length."""
    n, k = params.n, params.k
    sizes = draw(
        st.lists(st.integers(0, 24), min_size=k, max_size=k).filter(lambda s: max(s) > 0)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = [rng.integers(0, 256, size, dtype=np.uint8) for size in sizes]
    shards: list = encode_stripe(params, data)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=params.parity + 1)):
        shards[i] = None
    readable = [i for i, s in enumerate(shards) if s is not None and s.size]
    if readable and draw(st.booleans()):
        i = draw(st.sampled_from(readable))
        shard = shards[i] = shards[i].copy()
        shard[draw(st.integers(0, shard.size - 1))] ^= draw(st.integers(1, 255))
    present = [i for i, s in enumerate(shards) if s is not None]
    if present and draw(st.integers(0, 5)) == 0:
        i = draw(st.sampled_from(present))
        shards[i] = np.append(shards[i], np.uint8(7))
    return shards, sizes


@st.composite
def repair_rounds(draw):
    """One code and 1 to 8 stripes of mixed widths, as one round; the
    column bound of a batched solve is drawn too, so some rounds are
    solved in several slices."""
    params = draw(st.sampled_from(CODES))
    stripes = draw(st.lists(round_stripe(params), min_size=1, max_size=8))
    columns = draw(st.sampled_from([stripe_module._SOLVE_COLUMNS, 24, 50]))
    return params, stripes, columns


class TestRoundSolve:
    @settings(max_examples=150, deadline=None)
    @given(repair_rounds())
    def test_batched_solve_matches_one_stripe_at_a_time(self, case):
        params, stripes, columns = case
        with mock.patch.object(stripe_module, "_SOLVE_COLUMNS", columns):
            codewords = stripe_codewords(params, stripes)
            localised = localise_stripes(params, stripes)
        assert len(codewords) == len(localised) == len(stripes)
        for (shards, sizes), got, outcome in zip(stripes, codewords, localised):
            assert _same_codeword(got, stripe_codeword(params, shards, sizes))
            want = _outcome(localise_stripe, params, shards, sizes)
            if want is RepairError:
                assert isinstance(outcome, RepairError)
                continue
            assert not isinstance(outcome, RepairError)
            assert outcome[0] == want[0]
            assert _same_codeword(outcome[1], want[1])

    def test_a_stripe_beyond_the_code_fails_alone(self):
        """More than n - k positions lost: that stripe has no codeword and
        localises to a RepairError; its batch-mates are solved."""
        params, sizes = RS_9_6, [40, 9, 0, 40, 3, 17]
        rng = np.random.default_rng(5)
        clean = encode_stripe(
            params, [rng.integers(0, 256, size, dtype=np.uint8) for size in sizes]
        )
        lost = [None if i < params.parity + 1 else s for i, s in enumerate(clean)]
        damaged = list(clean)
        damaged[8] = None
        stripes = [(lost, sizes), (damaged, sizes), (list(clean), sizes)]
        codewords = stripe_codewords(params, stripes)
        assert codewords[0] is None
        assert all(_same_codeword(c, clean) for c in codewords[1:])
        outcomes = localise_stripes(params, stripes)
        assert isinstance(outcomes[0], RepairError)
        with pytest.raises(RepairError):
            localise_stripe(params, *stripes[0])
        assert [outcome[0] for outcome in outcomes[1:]] == [{8}, set()]


def _coefficient_matrix(draw, r: int, k: int) -> np.ndarray:
    rows = []
    for _ in range(r):
        kind = draw(st.sampled_from(["zero", "binary", "dense"]))
        top = {"zero": 0, "binary": 1, "dense": 255}[kind]
        rows.append(draw(st.lists(st.integers(0, top), min_size=k, max_size=k)))
    matrix = np.array(rows, dtype=np.uint8).reshape(r, k)
    for j in draw(st.sets(st.integers(0, k - 1), max_size=k)):
        matrix[:, j] = 0
    return matrix


#: Shards narrower than one tile take the translate product, wider ones
#: the lane tables: draw both sides of the cut, odd widths included.
TILE = 2 * gf256._TILE_PAIRS


class TestMatmulPlan:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 8),
        st.sampled_from([1, 2, 3, 64, 711, TILE - 1, TILE, TILE + 1]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_matches_scalar_product(self, r, k, length, seed, data):
        matrix = _coefficient_matrix(data.draw, r, k)
        blocks = np.random.default_rng(seed).integers(0, 256, (k, length), dtype=np.uint8)
        want = gf256.gf_matmul(matrix, blocks)
        for _ in range(2):  # build the lane tables, then reuse them
            got = gf256.gf_matmul_blocks(matrix, blocks)
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(ref.gf_matmul_blocks(matrix, blocks), want)

    def test_same_bytes_other_shape_is_another_plan(self):
        blocks = np.arange(12, dtype=np.uint8).reshape(2, 6)
        wide = np.array([[3, 7]], dtype=np.uint8)
        tall = np.array([[3], [7]], dtype=np.uint8)
        assert np.array_equal(gf256.gf_matmul_blocks(wide, blocks), gf256.gf_matmul(wide, blocks))
        assert np.array_equal(
            gf256.gf_matmul_blocks(tall, blocks[:1]), gf256.gf_matmul(tall, blocks[:1])
        )

"""Differential tests: the vectorised query kernels against row-at-a-time oracles.

``execute_local`` shares ``eval_leaf`` / ``evaluate_group_by`` / ``plain_size``
with both stores, so store-versus-reference equality cannot catch a wrong
kernel.  The oracles in ``_scalar_reference`` are the loops those kernels
replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.format.schema import ColumnType
from repro.format.table import Column, Field, plain_size
from repro.sql import Between, CompareOp, Comparison, InList, Like, parse
from repro.sql.grouping import evaluate_group_by
from repro.sql.predicate import eval_leaf
from tests.sql import _scalar_reference as ref

#: Multi-byte UTF-8, every character some matcher could mistake for a
#: wildcard or a regex/glob metacharacter, and newlines.
ALPHABET = "ab%_[]*?\\.^$|(){}+-!\n é漢🙂"
text = st.text(alphabet=ALPHABET, max_size=6)


def strings(values) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


CHUNKS = [
    [],  # empty chunk
    ["é%"],  # one row
    ["same", "same", "same"],  # all equal
    ["", "a", "ab", "b", "a\nb", "%", "_", "a_b", "a%b", "[a]", "a*", "a?", "a\\b", "a.b", "漢字", "🙂"],
]


def string_leaves(literal: str, other: str):
    low, high = sorted((literal, other))
    yield from (Comparison("c", op, literal) for op in CompareOp)
    yield Between("c", low, high)
    yield Between("c", high, low)  # empty range unless equal
    yield InList("c", (literal,))
    yield InList("c", (literal, other, ""))


class TestStringPredicates:
    @pytest.mark.parametrize("chunk", CHUNKS, ids=["empty", "one", "all-equal", "mixed"])
    def test_every_op_on_fixed_chunks(self, chunk):
        values = strings(chunk)
        for literal in ["", "a", "same", "a\nb", "é%", "漢字", "zz"]:
            for leaf in string_leaves(literal, "b"):
                got = eval_leaf(leaf, ColumnType.STRING, values)
                assert got.dtype == np.bool_ and got.shape == (len(chunk),)
                assert got.tolist() == ref.eval_string_leaf(leaf, values).tolist(), leaf

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(text, max_size=20), literal=text, other=text)
    def test_every_op_randomised(self, values, literal, other):
        arr = strings(values)
        for leaf in string_leaves(literal, other):
            got = eval_leaf(leaf, ColumnType.STRING, arr)
            assert got.dtype == np.bool_
            assert got.tolist() == ref.eval_string_leaf(leaf, arr).tolist(), leaf


#: One pattern per shape the matcher compiles differently.
LIKE_PATTERNS = [
    "ab",  # exact
    "ab%",  # prefix
    "%ab",  # suffix
    "%ab%",  # contains
    "a%b",  # inner %
    "%a%b%",
    "a_b",  # _
    "_",
    "__%",
    "%_",
    "a_%b_",
    "%",  # only %
    "%%",
    "%%%a",
    "",  # empty
    "a.b%",  # regex metacharacters stay literal
    "%[a]%",
    "a*%",
    "%a?",
    "a\\b",
    "%a\nb%",  # newline in the core
    "a%\n",
    "漢_",
    "%🙂",
]


class TestLike:
    @pytest.mark.parametrize("pattern", LIKE_PATTERNS)
    @pytest.mark.parametrize("chunk", CHUNKS, ids=["empty", "one", "all-equal", "mixed"])
    def test_every_pattern_shape(self, pattern, chunk):
        values = strings(chunk + [pattern, pattern.replace("%", "xy").replace("_", "z")])
        leaf = Like("c", pattern)
        got = eval_leaf(leaf, ColumnType.STRING, values)
        assert got.dtype == np.bool_
        assert got.tolist() == ref.eval_string_leaf(leaf, values).tolist()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(text, max_size=20), pattern=st.text(alphabet=ALPHABET + "%%__", max_size=7))
    def test_randomised(self, values, pattern):
        arr = strings(values + [pattern])
        leaf = Like("c", pattern)
        got = eval_leaf(leaf, ColumnType.STRING, arr)
        assert got.tolist() == ref.eval_string_leaf(leaf, arr).tolist()

    def test_percent_crosses_newlines_and_end_is_strict(self):
        arr = strings(["a\nb", "ab\n", "ab"])
        assert eval_leaf(Like("c", "a%b"), ColumnType.STRING, arr).tolist() == [True, False, True]
        assert eval_leaf(Like("c", "ab"), ColumnType.STRING, arr).tolist() == [False, False, True]
        assert eval_leaf(Like("c", "a_b"), ColumnType.STRING, arr).tolist() == [True, False, False]


class TestPlainSize:
    @pytest.mark.parametrize("chunk", CHUNKS, ids=["empty", "one", "all-equal", "mixed"])
    def test_fixed_chunks(self, chunk):
        values = strings(chunk)
        assert plain_size(ColumnType.STRING, values) == ref.plain_string_bytes(values)
        assert Column(Field("c", ColumnType.STRING), values).plain_size() == ref.plain_string_bytes(values)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.text(max_size=8), max_size=30))
    def test_randomised(self, values):
        # st.text() draws from all of Unicode bar surrogates: 1- to 4-byte UTF-8.
        assert plain_size(ColumnType.STRING, strings(values)) == ref.plain_string_bytes(values)


class TestColumnCoercion:
    def test_object_array_of_str_is_accepted_as_is(self):
        values = strings(["a", "b"])
        assert Column(Field("c", ColumnType.STRING), values).values is values

    @pytest.mark.parametrize("bad", [1, None, b"x", 1.5])
    def test_non_str_in_object_array_still_names_the_row(self, bad):
        values = np.empty(3, dtype=object)
        values[:] = ["a", bad, "c"]
        with pytest.raises(TypeError, match="at row 1"):
            Column(Field("c", ColumnType.STRING), values)

    def test_str_subclass_is_a_str(self):
        values = np.empty(1, dtype=object)
        values[0] = np.str_("x")
        assert Column(Field("c", ColumnType.STRING), values).values[0] == "x"


# -- GROUP BY ------------------------------------------------------------------

KEY_TYPES = {
    "s": ColumnType.STRING,
    "i": ColumnType.INT64,
    "d": ColumnType.DOUBLE,
    "t": ColumnType.DATE,
    "b": ColumnType.BOOL,
    "x": ColumnType.DOUBLE,
}
SELECT = "count(*), sum(x), min(x), max(i), avg(x)"


def group_columns(draw_rows) -> dict[str, np.ndarray]:
    """Typed column arrays from a list of row tuples (s, i, d, t, b, x)."""
    s, i, d, t, b, x = (list(col) for col in zip(*draw_rows)) if draw_rows else ([],) * 6
    return {
        "s": strings(s),
        "i": np.asarray(i, dtype=np.int64),
        "d": np.asarray(d, dtype=np.float64),
        "t": np.asarray(t, dtype=ColumnType.DATE.numpy_dtype),
        "b": np.asarray(b, dtype=np.bool_),
        "x": np.asarray(x, dtype=np.float64),
    }


def assert_same_groups(sql: str, columns: dict[str, np.ndarray]) -> None:
    query = parse(sql)
    got = evaluate_group_by(query, KEY_TYPES, columns)
    want = ref.evaluate_group_by(query, KEY_TYPES, columns)
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    for a, b in zip(got.columns, want.columns):
        assert a.values.dtype == b.values.dtype, a.name
        if a.values.dtype == object:
            assert a.values.tolist() == b.values.tolist(), a.name
        else:
            # Same rows reach each aggregate in the same order, so even
            # the float sums are bit-equal; NaN keys compare positionally.
            np.testing.assert_array_equal(a.values, b.values, err_msg=a.name)


row = st.tuples(
    st.sampled_from(["", "a", "b", "é", "a\nb", "漢"]),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.5, -1.5, float("inf")]),
    st.integers(0, 3),
    st.booleans(),
    st.floats(-10, 10, allow_nan=False),
)
KEY_SETS = ["s", "i", "d", "t", "b", "s, i", "i, s", "d, b", "t, d", "b, s", "s, i, d"]


class TestGroupBy:
    @pytest.mark.parametrize("keys", KEY_SETS)
    def test_zero_rows(self, keys):
        assert_same_groups(f"SELECT {keys}, {SELECT} FROM t GROUP BY {keys}", group_columns([]))
        got = evaluate_group_by(
            parse(f"SELECT {keys}, count(*) FROM t GROUP BY {keys}"), KEY_TYPES, group_columns([])
        )
        assert got.num_rows == 0

    @pytest.mark.parametrize("keys", KEY_SETS)
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(row, min_size=1, max_size=40))
    def test_one_two_and_three_keys_of_mixed_types(self, keys, rows):
        assert_same_groups(f"SELECT {keys}, {SELECT} FROM t GROUP BY {keys}", group_columns(rows))

    def test_groups_ascend_by_key_tuple(self):
        rows = [("b", 1, 0.0, 0, False, 1.0), ("a", 2, 0.0, 0, False, 2.0), ("a", -1, 0.0, 0, True, 3.0)]
        got = evaluate_group_by(
            parse("SELECT s, i, count(*) FROM t GROUP BY s, i"), KEY_TYPES, group_columns(rows * 2)
        )
        assert list(zip(got["s"].tolist(), got["i"].tolist())) == [("a", -1), ("a", 2), ("b", 1)]
        assert got["count(*)"].tolist() == [2, 2, 2]

    def test_key_not_in_select_list(self):
        rows = [("a", 1, 0.0, 0, False, 1.0), ("b", 1, 0.0, 0, False, 2.0), ("a", 1, 0.0, 0, False, 4.0)]
        assert_same_groups("SELECT sum(x) FROM t GROUP BY s", group_columns(rows))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.lists(st.sampled_from([float("nan"), 1.0, 2.0, -1.0]), min_size=1, max_size=12),
        second_key=st.booleans(),
    )
    def test_nan_keys_keep_the_scalar_behaviour(self, d, second_key):
        # NaN != NaN: every NaN row is its own group, and the groups come
        # out in the order sorting the (unordered) key tuples leaves them.
        rows = [("a", n % 2, v, 0, False, float(n)) for n, v in enumerate(d)]
        keys = "d, i" if second_key else "d"
        assert_same_groups(f"SELECT {keys}, count(*), sum(x) FROM t GROUP BY {keys}", group_columns(rows))

    def test_many_high_cardinality_keys_do_not_overflow(self):
        n = 3000
        rng = np.random.default_rng(5)
        columns = {
            "s": strings([f"k{v}" for v in rng.integers(0, n, n)]),
            "i": rng.integers(-(2**62), 2**62, n),
            "d": rng.random(n),
            "t": rng.integers(0, n, n).astype(ColumnType.DATE.numpy_dtype),
            "b": rng.random(n) < 0.5,
            "x": rng.random(n),
        }
        assert_same_groups("SELECT count(*), sum(x) FROM t GROUP BY s, i, d, t, b", columns)

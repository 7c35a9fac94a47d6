"""SQL lexer and parser: grammar coverage and error reporting."""

import pytest

from repro.sql import (
    Aggregate,
    AggregateFunc,
    And,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    InList,
    Not,
    Or,
    SqlSyntaxError,
    leaves,
    parse,
    tokenize,
)
from repro.sql.lexer import TokenType


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a, b FROM t WHERE a < 5")
        kinds = [t.type for t in tokens]
        assert kinds[-1] is TokenType.EOF
        assert tokens[0].is_keyword("select")

    def test_operators_normalised(self):
        tokens = tokenize("a == 1 and b <> 2")
        ops = [t.value for t in tokens if t.type is TokenType.OP]
        assert ops == ["=", "!="]

    def test_string_literal(self):
        tokens = tokenize("name = 'Bob Smith'")
        strings = [t for t in tokens if t.type is TokenType.STRING]
        assert strings[0].value == "Bob Smith"

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlSyntaxError, match="unterminated"):
            tokenize("name = 'oops")

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e6 -3")
        nums = [t.value for t in tokens if t.type is TokenType.NUMBER]
        assert nums == ["1", "2.5", "1e6", "-3"]

    def test_unexpected_character_raises(self):
        with pytest.raises(SqlSyntaxError, match="unexpected"):
            tokenize("a ; b")

    def test_case_insensitive_keywords(self):
        tokens = tokenize("SeLeCt x FrOm t")
        assert tokens[0].is_keyword("select")
        assert tokens[2].is_keyword("from")


class TestParser:
    def test_simple_select(self):
        q = parse("SELECT a, b FROM t WHERE a < 5")
        assert [i.name for i in q.select] == ["a", "b"]
        assert q.table == "t"
        assert q.where == Comparison("a", CompareOp.LT, 5)

    def test_select_star(self):
        q = parse("SELECT * FROM t")
        assert q.select == (ColumnRef("*"),)
        assert q.where is None

    def test_aggregates(self):
        q = parse("SELECT count(*), avg(x), sum(y), min(z), max(z) FROM t")
        funcs = [i.func for i in q.select]
        assert funcs == [
            AggregateFunc.COUNT,
            AggregateFunc.AVG,
            AggregateFunc.SUM,
            AggregateFunc.MIN,
            AggregateFunc.MAX,
        ]
        assert q.select[0].column is None
        assert q.select[1].column == "x"

    def test_and_or_precedence(self):
        q = parse("SELECT a FROM t WHERE a < 1 OR b < 2 AND c < 3")
        # AND binds tighter: a<1 OR (b<2 AND c<3)
        assert isinstance(q.where, Or)
        assert isinstance(q.where.right, And)

    def test_parentheses_override(self):
        q = parse("SELECT a FROM t WHERE (a < 1 OR b < 2) AND c < 3")
        assert isinstance(q.where, And)
        assert isinstance(q.where.left, Or)

    def test_not(self):
        q = parse("SELECT a FROM t WHERE NOT a = 1")
        assert isinstance(q.where, Not)

    def test_between(self):
        q = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 10")
        assert q.where == Between("a", 1, 10)

    def test_in_list(self):
        q = parse("SELECT a FROM t WHERE tag IN ('x', 'y', 'z')")
        assert q.where == InList("tag", ("x", "y", "z"))

    def test_not_in(self):
        q = parse("SELECT a FROM t WHERE tag NOT IN (1, 2)")
        assert isinstance(q.where, Not)
        assert q.where.operand == InList("tag", (1, 2))

    def test_literal_types(self):
        q = parse("SELECT a FROM t WHERE a = 5 AND b = 2.5 AND c = 'x' AND d = true")
        values = [leaf.value for leaf in leaves(q.where)]
        assert values == [5, 2.5, "x", True]
        assert isinstance(values[0], int)
        assert isinstance(values[1], float)

    def test_leaves_order(self):
        q = parse("SELECT a FROM t WHERE a < 1 AND (b < 2 OR c < 3)")
        assert [l.column for l in leaves(q.where)] == ["a", "b", "c"]

    def test_where_columns(self):
        q = parse("SELECT a FROM t WHERE b < 1 AND (c < 2 OR NOT b IN (3)) AND d LIKE 'x%'")
        assert q.where.columns() == {"b", "c", "d"}

    def test_projection_columns_dedup(self):
        q = parse("SELECT a, b, a FROM t")
        assert q.projection_columns() == ["a", "b"]

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT FROM t",
            "SELECT a t",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t WHERE a",
            "SELECT a FROM t WHERE a <",
            "SELECT a FROM t extra",
            "SELECT a FROM t WHERE a BETWEEN 1",
            "SELECT a FROM t WHERE a IN ()",
            "SELECT count( FROM t",
            "",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SqlSyntaxError):
            parse(bad)

    def test_avg_star_rejected(self):
        with pytest.raises(ValueError):
            Aggregate(func=AggregateFunc.AVG, column=None)

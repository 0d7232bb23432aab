"""Tests for the SQL parser."""

import pytest

from repro.errors import SqlParseError
from repro.sql import (
    AggFunc,
    Aggregate,
    And,
    Between,
    ColumnRef,
    CompOp,
    Comparison,
    Exists,
    InPredicate,
    Like,
    Literal,
    Or,
    Placeholder,
    Star,
    Subquery,
    parse,
    try_parse,
)


class TestBasicSelect:
    def test_select_star(self):
        q = parse("SELECT * FROM patients")
        assert q.select == (Star(),)
        assert q.from_tables == ("patients",)
        assert q.where is None

    def test_select_columns(self):
        q = parse("SELECT name, age FROM patients")
        assert q.select == (ColumnRef("name"), ColumnRef("age"))

    def test_qualified_column(self):
        q = parse("SELECT patients.name FROM patients")
        assert q.select == (ColumnRef("name", table="patients"),)

    def test_distinct(self):
        assert parse("SELECT DISTINCT name FROM t").distinct

    def test_multiple_tables(self):
        q = parse("SELECT * FROM a, b")
        assert q.from_tables == ("a", "b")

    def test_join_placeholder_table(self):
        q = parse("SELECT * FROM @JOIN")
        assert q.uses_join_placeholder


class TestAggregates:
    def test_count_star(self):
        q = parse("SELECT COUNT(*) FROM t")
        assert q.select == (Aggregate(AggFunc.COUNT, Star()),)

    def test_avg_column(self):
        q = parse("SELECT AVG(age) FROM t")
        assert q.select == (Aggregate(AggFunc.AVG, ColumnRef("age")),)

    def test_count_distinct(self):
        q = parse("SELECT COUNT(DISTINCT name) FROM t")
        assert q.select[0].distinct

    def test_qualified_agg_arg(self):
        q = parse("SELECT MAX(t.age) FROM t")
        assert q.select[0].arg == ColumnRef("age", table="t")


class TestPredicates:
    def test_comparison_with_literal(self):
        q = parse("SELECT * FROM t WHERE age = 20")
        assert q.where == Comparison(ColumnRef("age"), CompOp.EQ, Literal(20))

    def test_comparison_with_placeholder(self):
        q = parse("SELECT * FROM t WHERE age > @AGE")
        assert q.where == Comparison(ColumnRef("age"), CompOp.GT, Placeholder("AGE"))

    def test_string_literal(self):
        q = parse("SELECT * FROM t WHERE name = 'bob'")
        assert q.where.right == Literal("bob")

    def test_float_literal(self):
        q = parse("SELECT * FROM t WHERE x = 1.5")
        assert q.where.right == Literal(1.5)

    def test_and_chain(self):
        q = parse("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3")
        assert isinstance(q.where, And)
        assert len(q.where.operands) == 3

    def test_or_precedence(self):
        q = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(q.where, Or)
        assert isinstance(q.where.operands[1], And)

    def test_parenthesized_or(self):
        q = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(q.where, And)
        assert isinstance(q.where.operands[0], Or)

    def test_between(self):
        q = parse("SELECT * FROM t WHERE age BETWEEN 10 AND 20")
        assert q.where == Between(ColumnRef("age"), Literal(10), Literal(20))

    def test_in_values(self):
        q = parse("SELECT * FROM t WHERE x IN (1, 2, 3)")
        assert isinstance(q.where, InPredicate)
        assert q.where.values == (Literal(1), Literal(2), Literal(3))

    def test_not_in(self):
        q = parse("SELECT * FROM t WHERE x NOT IN (1)")
        assert q.where.negated

    def test_like(self):
        q = parse("SELECT * FROM t WHERE name LIKE 'a%'")
        assert q.where == Like(ColumnRef("name"), Literal("a%"))

    def test_not_like(self):
        assert parse("SELECT * FROM t WHERE name NOT LIKE 'a%'").where.negated

    def test_join_condition(self):
        q = parse("SELECT * FROM a, b WHERE a.x = b.y")
        assert q.where == Comparison(
            ColumnRef("x", table="a"), CompOp.EQ, ColumnRef("y", table="b")
        )


class TestSubqueries:
    def test_scalar_subquery(self):
        q = parse(
            "SELECT name FROM t WHERE age = (SELECT MAX(age) FROM t)"
        )
        assert isinstance(q.where.right, Subquery)
        assert q.is_nested

    def test_in_subquery(self):
        q = parse("SELECT * FROM a WHERE x IN (SELECT y FROM b)")
        assert q.where.subquery is not None

    def test_exists(self):
        q = parse("SELECT * FROM a WHERE EXISTS (SELECT * FROM b WHERE z = 1)")
        assert isinstance(q.where, Exists)

    def test_not_exists(self):
        q = parse("SELECT * FROM a WHERE NOT EXISTS (SELECT * FROM b)")
        assert q.where.negated

    def test_inner_query_with_filter(self):
        q = parse(
            "SELECT name FROM m WHERE h = (SELECT MAX(h) FROM m WHERE s = @S)"
        )
        inner = q.where.right.query
        assert inner.where is not None


class TestClauses:
    def test_group_by(self):
        q = parse("SELECT d, COUNT(*) FROM t GROUP BY d")
        assert q.group_by == (ColumnRef("d"),)

    def test_group_by_multiple(self):
        q = parse("SELECT a, b FROM t GROUP BY a, b")
        assert len(q.group_by) == 2

    def test_having(self):
        q = parse("SELECT d FROM t GROUP BY d HAVING COUNT(*) > 2")
        assert isinstance(q.having, Comparison)
        assert isinstance(q.having.left, Aggregate)

    def test_order_by(self):
        q = parse("SELECT * FROM t ORDER BY age DESC, name")
        assert q.order_by[0].desc
        assert not q.order_by[1].desc

    def test_order_by_aggregate(self):
        q = parse("SELECT d FROM t GROUP BY d ORDER BY COUNT(*) DESC")
        assert isinstance(q.order_by[0].expr, Aggregate)

    def test_order_by_asc_keyword(self):
        q = parse("SELECT * FROM t ORDER BY age ASC")
        assert not q.order_by[0].desc

    def test_limit(self):
        assert parse("SELECT * FROM t LIMIT 5").limit == 5


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT",
            "SELECT FROM t",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t WHERE age >",
            "SELECT * FROM t GROUP age",
            "SELECT * FROM t LIMIT x",
            "SELECT * FROM t trailing",
            "UPDATE t SET x = 1",
            "SELECT * FROM t WHERE NOT",
            "SELECT * FROM t WHERE 1 BETWEEN 2 AND 3",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(SqlParseError):
            parse(bad)

    def test_try_parse_returns_none(self):
        assert try_parse("garbage input") is None

    @pytest.mark.parametrize("limit", ["2.5", "-1", "x", "@N", ""])
    def test_limit_takes_a_non_negative_integer(self, limit):
        from repro.errors import E_SQL_PARSE

        sql = f"SELECT name FROM patients LIMIT {limit}"
        assert try_parse(sql) is None
        with pytest.raises(SqlParseError, match="LIMIT takes a non-negative integer") as info:
            parse(sql)
        assert info.value.code == E_SQL_PARSE

    def test_limit_zero_parses(self):
        assert parse("SELECT name FROM patients LIMIT 0").limit == 0

    @pytest.mark.parametrize(
        "agg",
        [
            "SUM(*)",
            "AVG(*)",
            "MIN(*)",
            "MAX(*)",
            "MIN(DISTINCT *)",
            "SUM(DISTINCT *)",
            "COUNT(DISTINCT *)",
        ],
    )
    def test_only_plain_count_takes_star(self, agg):
        from repro.errors import E_SQL_PARSE

        for sql in (
            f"SELECT {agg} FROM patients",
            f"SELECT name FROM patients GROUP BY name HAVING {agg} > 1",
        ):
            assert try_parse(sql) is None
            with pytest.raises(SqlParseError, match="only COUNT") as info:
                parse(sql)
            assert info.value.code == E_SQL_PARSE

    @pytest.mark.parametrize(
        "func, distinct",
        [
            (AggFunc.SUM, False),
            (AggFunc.AVG, False),
            (AggFunc.MAX, True),
            (AggFunc.COUNT, True),
        ],
    )
    def test_a_code_built_star_aggregate_is_refused_too(self, func, distinct):
        with pytest.raises(SqlParseError, match="only COUNT"):
            Aggregate(func, Star(), distinct)

    def test_try_parse_returns_query(self):
        assert try_parse("SELECT * FROM t") is not None

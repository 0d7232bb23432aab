"""Tests for SQL AST node helpers."""

import dataclasses

import pytest

from repro.sql import (
    AggFunc,
    Aggregate,
    ColumnRef,
    CompOp,
    Comparison,
    Literal,
    Placeholder,
    Star,
    conjoin,
    conjuncts,
    parse,
)
from repro.errors import E_SQL_PARSE, SqlParseError
from repro.sql.ast import And


class TestCompOp:
    def test_flipped_involution(self):
        for op in CompOp:
            assert op.flipped().flipped() is op

    def test_negated_involution(self):
        for op in CompOp:
            assert op.negated().negated() is op

    def test_flip_examples(self):
        assert CompOp.LT.flipped() is CompOp.GT
        assert CompOp.LE.flipped() is CompOp.GE
        assert CompOp.EQ.flipped() is CompOp.EQ

    def test_negate_examples(self):
        assert CompOp.EQ.negated() is CompOp.NE
        assert CompOp.GT.negated() is CompOp.LE


class TestNodeStr:
    def test_column_ref(self):
        assert str(ColumnRef("age")) == "age"
        assert str(ColumnRef("age", table="p")) == "p.age"

    def test_literal_quoting(self):
        assert str(Literal(5)) == "5"
        assert str(Literal("o'brien")) == "'o''brien'"

    def test_placeholder(self):
        assert str(Placeholder("AGE")) == "@AGE"

    def test_placeholder_parts(self):
        dotted = Placeholder("STATE.NAME")
        assert dotted.table == "state"
        assert dotted.column == "name"
        plain = Placeholder("AGE")
        assert plain.table is None
        assert plain.column == "age"

    def test_aggregate(self):
        assert str(Aggregate(AggFunc.COUNT, Star())) == "COUNT(*)"
        assert (
            str(Aggregate(AggFunc.AVG, ColumnRef("age"), distinct=True))
            == "AVG(DISTINCT age)"
        )


class TestConjoin:
    def c(self, name, value):
        return Comparison(ColumnRef(name), CompOp.EQ, Literal(value))

    def test_empty(self):
        assert conjoin([]) is None

    def test_single(self):
        pred = self.c("a", 1)
        assert conjoin([pred]) is pred

    def test_multiple_flattens(self):
        nested = And((self.c("a", 1), self.c("b", 2)))
        result = conjoin([nested, self.c("c", 3)])
        assert isinstance(result, And)
        assert len(result.operands) == 3

    def test_conjuncts_inverse(self):
        preds = [self.c("a", 1), self.c("b", 2), self.c("c", 3)]
        assert conjuncts(conjoin(preds)) == preds
        assert conjuncts(None) == []


class TestQueryHelpers:
    def test_placeholders_deterministic_order(self):
        q = parse("SELECT * FROM t WHERE a = @A AND b = @B")
        first = [p.name for p in q.placeholders()]
        second = [p.name for p in q.placeholders()]
        assert first == second
        assert set(first) == {"A", "B"}

    def test_placeholders_include_nested(self):
        q = parse(
            "SELECT name FROM t WHERE x = (SELECT MAX(x) FROM t WHERE s = @S)"
        )
        assert [p.name for p in q.placeholders()] == ["S"]

    def test_placeholders_in_between_and_in(self):
        q = parse(
            "SELECT * FROM t WHERE a BETWEEN @LO AND @HI AND b IN (@X, @Y)"
        )
        assert {p.name for p in q.placeholders()} == {"LO", "HI", "X", "Y"}

    def test_column_refs_cover_clauses(self):
        q = parse(
            "SELECT a, MAX(b) FROM t WHERE c = 1 GROUP BY a "
            "HAVING COUNT(*) > 2 ORDER BY d"
        )
        names = {r.column for r in q.column_refs()}
        assert {"a", "b", "c", "d"} <= names

    def test_referenced_tables(self):
        q = parse("SELECT a.x FROM @JOIN WHERE b.y = @B.Y")
        assert q.referenced_tables() == ["a", "b"]

    def test_aggregates_collected(self):
        q = parse(
            "SELECT d, AVG(x) FROM t GROUP BY d HAVING COUNT(*) > 1 "
            "ORDER BY MAX(x)"
        )
        funcs = sorted(a.func.value for a in q.aggregates())
        assert funcs == ["AVG", "COUNT", "MAX"]

    def test_is_nested(self):
        assert parse("SELECT x FROM t WHERE y = (SELECT MAX(y) FROM t)").is_nested
        assert not parse("SELECT x FROM t").is_nested

    def test_uses_join_placeholder(self):
        assert parse("SELECT a.x FROM @JOIN").uses_join_placeholder
        assert not parse("SELECT x FROM t").uses_join_placeholder

    def test_query_hashable_and_frozen(self):
        q = parse("SELECT * FROM t")
        with pytest.raises(AttributeError):
            q.limit = 5
        assert hash(q) == hash(parse("SELECT * FROM t"))

    @pytest.mark.parametrize("limit", [-1, 2.5, "3", True])
    def test_limit_built_in_code_must_be_a_non_negative_int(self, limit):
        query = parse("SELECT name FROM patients")
        with pytest.raises(SqlParseError) as excinfo:
            dataclasses.replace(query, limit=limit)
        assert excinfo.value.code == E_SQL_PARSE

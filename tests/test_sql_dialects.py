"""Printed SQL surface: identifier quoting and string literals.

Covers the audit of string-literal emission: values with single quotes
and backslashes, and reserved-word identifiers, must survive parse →
print → parse, with property tests drawn from the value index
vocabulary of generated databases.
"""

import pytest

pytestmark = pytest.mark.adapters

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.datagen import populate
from repro.db.index import ValueIndex
from repro.schema.catalog import load_schema
from repro.sql import parse, to_sql
from repro.sql.ast import ColumnRef, CompOp, Comparison, Literal, Query, Star


class TestDefaultSurfaceStability:
    """Printed SQL is the repo's exact-match surface: printing the
    catalog's well-behaved identifiers must not grow quotes."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT name, age FROM patients WHERE diagnosis = 'flu'",
            "SELECT a.x, b.y FROM a, b WHERE a.id = b.id",
            "SELECT d, COUNT(*) FROM t GROUP BY d HAVING COUNT(*) > 2",
            "SELECT * FROM t ORDER BY age DESC LIMIT 3",
            "SELECT AVG(patient.age) FROM @JOIN WHERE doctor.name = @DOCTOR.NAME",
        ],
    )
    def test_plain_identifiers_stay_bare(self, sql):
        assert to_sql(parse(sql)) == sql


class TestReservedWordIdentifiers:
    def test_reserved_table_name_quoted_and_roundtrips(self):
        query = Query(select=(Star(),), from_tables=("order",))
        printed = to_sql(query)
        assert printed == 'SELECT * FROM "order"'
        assert parse(printed) == query

    def test_reserved_column_name_quoted_and_roundtrips(self):
        query = Query(
            select=(ColumnRef("count", table="order"),),
            from_tables=("order",),
        )
        printed = to_sql(query)
        assert printed == 'SELECT "order"."count" FROM "order"'
        assert parse(printed) == query

    def test_quoted_identifier_with_embedded_quote_roundtrips(self):
        query = Query(select=(ColumnRef('we"ird'),), from_tables=("t",))
        printed = to_sql(query)
        assert '"we""ird"' in printed
        assert parse(printed) == query

    def test_group_and_order_positions_quote_too(self):
        query = Query(
            select=(ColumnRef("group"),),
            from_tables=("t",),
            group_by=(ColumnRef("group"),),
        )
        printed = to_sql(query)
        assert printed == 'SELECT "group" FROM t GROUP BY "group"'
        assert parse(printed) == query


def _literal_roundtrip(value: str) -> None:
    query = Query(
        select=(Star(),),
        from_tables=("t",),
        where=Comparison(ColumnRef("c"), CompOp.EQ, Literal(value)),
    )
    reparsed = parse(to_sql(query))
    assert reparsed.where.right.value == value


class TestStringLiteralEmission:
    @pytest.mark.parametrize(
        "value",
        [
            "o'brien",
            "it''s",
            "'",
            "''",
            "back\\slash",
            "\\",
            "\\'",
            "a 'quoted' word",
            "select",
            'double"quote',
        ],
    )
    def test_tricky_values_roundtrip(self, value):
        _literal_roundtrip(value)

    @settings(max_examples=200, deadline=None)
    @given(st.text(min_size=1, max_size=40))
    def test_arbitrary_text_roundtrips(self, value):
        _literal_roundtrip(value)

    def test_value_index_vocabulary_roundtrips(self):
        """Every text value datagen can put in a database must print to
        a literal that reparses to the same value (the vocabulary the
        corpus synthesizer draws slot fills from)."""
        for schema_name in ("patients", "geography", "retail"):
            schema = load_schema(schema_name)
            database = populate(schema, rows_per_table=30, seed=11)
            index = ValueIndex(database)
            vocabulary = {
                value
                for values in index._text_values.values()
                for value in values
            }
            assert vocabulary
            for value in sorted(vocabulary):
                _literal_roundtrip(value)

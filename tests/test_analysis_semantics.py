"""SQL semantic analyzer: every L1xx code, clean queries, and spans.

The mutation half of this file is the contract test for the analyzer:
each seeded defect must be caught with its *stable code* (the codes,
not the messages, are what the pipeline gate and ``repro lint`` JSON
consumers match on).
"""

from __future__ import annotations

import pytest

from repro.analysis import LINT_CODES, analyze_sql
from repro.analysis.diagnostics import Severity, make
from repro.schema.column import Column, ColumnType
from repro.schema.schema import Schema
from repro.schema.table import Table
from repro.sql.parser import parse
from repro.sql.printer import to_sql


@pytest.fixture(scope="module")
def disconnected():
    """Two tables with no foreign key between them."""
    return Schema(
        "disc",
        [
            Table(
                "a",
                [
                    Column("a_id", ColumnType.INTEGER, primary_key=True),
                    Column("x", ColumnType.INTEGER),
                ],
            ),
            Table(
                "b",
                [
                    Column("b_id", ColumnType.INTEGER, primary_key=True),
                    Column("y", ColumnType.INTEGER),
                ],
            ),
        ],
    )


# ----------------------------------------------------------------------
# Mutation matrix: one seeded defect per stable code
# ----------------------------------------------------------------------

PATIENTS_MUTATIONS = [
    ("L101", "SELECT * FROM nonexistent"),
    ("L102", "SELECT bogus FROM patients"),
    ("L105", "SELECT * FROM patients WHERE name > 'bob'"),
    ("L106", "SELECT * FROM patients WHERE age = 'forty'"),
    ("L107", "SELECT * FROM patients WHERE MAX(age) > 10"),
    ("L108", "SELECT name, age FROM patients GROUP BY name"),
    ("L109", "SELECT name FROM patients HAVING COUNT(*) > 2"),
    ("L111", "SELECT * FROM patients WHERE name BETWEEN 'a' AND 'b'"),
    ("L112", "SELECT SUM(name) FROM patients"),
    ("L113", "SELECT * FROM patients WHERE age LIKE 'x%'"),
    ("L114", "SELECT * FROM patients WHERE age = @BOGUS"),
    ("L115", "SELECT *, MIN(diagnosis) FROM patients"),
]


@pytest.mark.parametrize("code,sql", PATIENTS_MUTATIONS)
def test_patients_mutation_caught_with_stable_code(patients, code, sql):
    codes = [d.code for d in analyze_sql(sql, patients)]
    assert codes == [code]


def test_ambiguous_column_reference(geography):
    # state_name exists in both state and city.
    diags = analyze_sql("SELECT state_name FROM state, city", geography)
    assert [d.code for d in diags] == ["L103"]


def test_qualifier_outside_from_scope(geography):
    diags = analyze_sql("SELECT city.city_name FROM state", geography)
    assert [d.code for d in diags] == ["L104"]


def test_disconnected_from_tables(disconnected):
    diags = analyze_sql("SELECT * FROM a, b", disconnected)
    assert [d.code for d in diags] == ["L110"]


def test_every_sql_code_has_a_mutation():
    """The matrix above covers the full L1xx range — no code untested."""
    covered = {code for code, _sql in PATIENTS_MUTATIONS}
    covered |= {"L103", "L104", "L110"}
    sql_codes = {code for code in LINT_CODES if code.startswith("L1")}
    assert covered == sql_codes


# ----------------------------------------------------------------------
# Clean queries stay clean
# ----------------------------------------------------------------------

CLEAN_PATIENTS = [
    "SELECT * FROM patients",
    "SELECT name, age FROM patients WHERE age > 30",
    "SELECT AVG(length_of_stay) FROM patients WHERE diagnosis = @DIAGNOSIS",
    "SELECT gender, COUNT(*) FROM patients GROUP BY gender",
    "SELECT gender, AVG(age) FROM patients GROUP BY gender "
    "HAVING COUNT(*) > 5",
    "SELECT * FROM patients WHERE age BETWEEN @AGE.LOW AND @AGE.HIGH",
    "SELECT * FROM patients WHERE name LIKE 'a%'",
    "SELECT COUNT(*) FROM patients",
    "SELECT COUNT(*) FROM patients WHERE EXISTS "
    "(SELECT * FROM patients WHERE age > 30)",
]


@pytest.mark.parametrize("sql", CLEAN_PATIENTS)
def test_clean_patients_queries(patients, sql):
    assert analyze_sql(sql, patients) == []


def test_clean_join_query(geography):
    diags = analyze_sql(
        "SELECT city.city_name FROM state, city "
        "WHERE state.population > 1000000",
        geography,
    )
    assert diags == []


def test_join_placeholder_scope(geography):
    # @JOIN FROM clauses resolve against the FK-expanded table set.
    diags = analyze_sql(
        "SELECT city.city_name FROM @JOIN WHERE state.area > @AREA",
        geography,
    )
    assert diags == []


def test_severity_defaults_follow_registry():
    diag = make("L101", "boom")
    assert diag.severity is Severity.ERROR
    assert str(diag) == "[L101] boom"
    with pytest.raises(ValueError):
        make("L999", "no such code")


def test_diagnostics_carry_spans(patients):
    (diag,) = analyze_sql("SELECT bogus FROM patients", patients)
    assert diag.span is not None
    assert "SELECT bogus FROM patients"[diag.span.start : diag.span.end] == "bogus"


# ----------------------------------------------------------------------
# Satellite: parser spans + bit-identical round-trip
# ----------------------------------------------------------------------

ROUND_TRIP = [
    "SELECT * FROM patients",
    "SELECT name, age FROM patients WHERE age >= @AGE",
    "SELECT AVG(age) FROM patients WHERE diagnosis = @DIAGNOSIS "
    "AND gender = @GENDER",
    "SELECT gender, COUNT(*) FROM patients GROUP BY gender "
    "HAVING AVG(age) > @NUM",
    "SELECT * FROM patients WHERE age BETWEEN @AGE.LOW AND @AGE.HIGH "
    "ORDER BY age DESC",
    "SELECT name FROM patients WHERE age IN "
    "(SELECT age FROM patients WHERE gender = @GENDER)",
]


@pytest.mark.parametrize("sql", ROUND_TRIP)
def test_round_trip_is_bit_identical_with_spans(sql):
    query = parse(sql)
    assert to_sql(query) == to_sql(parse(to_sql(query)))
    assert query.span is not None
    assert query.span.start == 0


def test_spans_do_not_affect_equality():
    spanned = parse("SELECT name FROM patients WHERE age > @AGE")
    # Structural equality must ignore spans (they are compare=False),
    # so normalization/equivalence machinery is unaffected.
    assert spanned == parse("SELECT  name  FROM  patients  WHERE age > @AGE")


def test_column_ref_span_slices_source():
    sql = "SELECT name FROM patients WHERE age > @AGE"
    query = parse(sql)
    ref = query.select[0]
    assert sql[ref.span.start : ref.span.end] == "name"
    comparison = query.where
    assert sql[comparison.span.start : comparison.span.end] == "age > @AGE"

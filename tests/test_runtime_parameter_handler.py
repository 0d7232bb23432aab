"""Tests for the runtime parameter handler (constant anonymization)."""

import pytest

from repro.db import Database
from repro.runtime import ParameterHandler
from repro.runtime.parameter_handler import schema_words
from repro.schema import all_schemas


@pytest.fixture()
def handler(patients_db):
    return ParameterHandler(patients_db)


class TestNumericAnonymization:
    def test_number_becomes_column_placeholder(self, handler, patients_db):
        age = patients_db.rows("patients")[0]["age"]
        result = handler.anonymize(f"patients with age {age}")
        assert "@AGE" in result.nl
        assert result.bindings[0].value == age
        assert result.bindings[0].column == "age"

    def test_unknown_number_becomes_num(self, handler):
        result = handler.anonymize("groups with more than 100000 patients")
        assert "@NUM" in result.nl
        assert result.bindings[0].value == 100000

    def test_two_numbers_same_column_low_high(self, handler, patients_db):
        ages = sorted({r["age"] for r in patients_db.rows("patients")})
        low, high = ages[0], ages[-1]
        result = handler.anonymize(f"patients with age between {low} and {high}")
        assert "@AGE.LOW" in result.nl and "@AGE.HIGH" in result.nl
        by_name = {b.placeholder: b.value for b in result.bindings}
        assert by_name["AGE.LOW"] == low
        assert by_name["AGE.HIGH"] == high

    def test_low_high_order_independent(self, handler, patients_db):
        ages = sorted({r["age"] for r in patients_db.rows("patients")})
        low, high = ages[0], ages[-1]
        result = handler.anonymize(f"patients with age between {high} and {low}")
        # First token position gets HIGH because its value is larger.
        first = result.nl.split().index("@AGE.HIGH")
        second = result.nl.split().index("@AGE.LOW")
        assert first < second


class TestStringAnonymization:
    def test_exact_string_match(self, handler, patients_db):
        diagnosis = patients_db.rows("patients")[0]["diagnosis"]
        result = handler.anonymize(f"patients with {diagnosis}")
        assert "@DIAGNOSIS" in result.nl
        assert result.bindings[0].value == diagnosis

    def test_fuzzy_string_corrected(self, handler):
        result = handler.anonymize("patients with influenzza")
        assert "@DIAGNOSIS" in result.nl
        assert result.bindings[0].value == "influenza"

    def test_multiword_name_matched(self, handler, patients_db):
        name = patients_db.rows("patients")[0]["name"]  # "first last"
        result = handler.anonymize(f"show the age of {name}")
        assert "@NAME" in result.nl
        assert result.bindings[0].value == name

    def test_schema_words_not_anonymized(self, handler):
        result = handler.anonymize("show me the names of all patients")
        assert "@" not in result.nl

    def test_unmatchable_string_left_alone(self, handler):
        result = handler.anonymize("show qqqzzzxxx data")
        assert "qqqzzzxxx" in result.nl


class TestPreAnonymizedInput:
    def test_placeholders_pass_through(self, handler):
        result = handler.anonymize("patients with age @AGE")
        assert result.nl == "patients with age @AGE"
        assert result.bindings[0].placeholder == "AGE"

    def test_mixed_input(self, handler, patients_db):
        age = patients_db.rows("patients")[0]["age"]
        result = handler.anonymize(f"patients with age {age} and diagnosis @DIAGNOSIS")
        assert "@AGE" in result.nl and "@DIAGNOSIS" in result.nl


def _walk_is_schema_word(phrase, database):
    """Reference: walk the schema for one phrase (``schema_words`` precomputes it)."""
    phrase = phrase.lower()
    for table in database.schema.tables:
        if phrase in (p.lower() for p in table.nl_phrases):
            return True
        for column in table.columns:
            if phrase in (p.lower() for p in column.nl_phrases):
                return True
    return False


def test_schema_word_set_matches_schema_walk():
    schemas = all_schemas()
    probes = {
        probe
        for schema in schemas
        for table in schema.tables
        for element in (table, *table.columns)
        for phrase in (element.name, *element.nl_phrases)
        for probe in (phrase, phrase.upper(), phrase.title())
    }
    for schema in schemas:
        database = Database(schema)
        words = ParameterHandler(database)._schema_words
        assert words == schema_words(database)
        for probe in probes:
            assert (probe.lower() in words) == _walk_is_schema_word(probe, database), (
                schema.name,
                probe,
            )

"""Tests for the runtime parameter handler (constant anonymization)."""

import pytest

from repro.db import Database
from repro.runtime import ParameterHandler
from repro.runtime.parameter_handler import Binding, schema_words
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


def _two_lookup_match(handler, tokens, position):
    """``_match_string`` as it was: exact lookup, then a fuzzy lookup
    that repeats the exact one, and the schema-word test last."""
    if not tokens[position].isalpha():
        return None
    for length in (3, 2, 1):
        if position + length > len(tokens):
            continue
        phrase = " ".join(tokens[position : position + length])
        hits = handler.index.lookup(phrase)
        if not hits:
            hits = [h for h in handler.index.fuzzy_lookup(phrase) if h.score >= 0.55]
        if hits and phrase.lower() not in handler._schema_words:
            hit = hits[0]
            return (
                Binding(hit.column.upper(), hit.value, hit.table, hit.column),
                length,
            )
    return None


class TestStringMatchPath:
    def test_schema_words_never_reach_the_index(self, handler):
        phrases = []
        fuzzy = handler.index.fuzzy_lookup

        def recording(phrase):
            phrases.append(phrase)
            return fuzzy(phrase)

        handler.index.fuzzy_lookup = recording
        try:
            handler.anonymize("show me the names of all patients")
        finally:
            del handler.index.fuzzy_lookup
        assert phrases
        assert not [p for p in phrases if p in handler._schema_words]

    def test_same_answers_as_two_lookup_match(self, handler, patients_db):
        from repro.bench import build_patients_benchmark

        questions = [item.nl for item in build_patients_benchmark().items[::4]]
        names = [r["name"] for r in patients_db.rows("patients")][:5]
        questions += [f"patients named {n}" for n in names]
        questions += [f"patients named {n.lower()[:-1]}" for n in names]
        got = [handler.anonymize(q) for q in questions]
        handler._match_string = lambda tokens, position: _two_lookup_match(
            handler, tokens, position
        )
        try:
            want = [handler.anonymize(q) for q in questions]
        finally:
            del handler._match_string
        assert got == want

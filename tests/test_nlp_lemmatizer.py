"""Tests for the rule-based lemmatizer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.templates import Family, TrainingPair
from repro.nlp import lemmatize, lemmatize_tokens, lemmatize_word, tokenize
from repro.sql.parser import parse


class TestIrregulars:
    @pytest.mark.parametrize(
        "word,lemma",
        [
            ("is", "be"),
            ("are", "be"),
            ("am", "be"),
            ("was", "be"),
            ("were", "be"),
            ("has", "have"),
            ("had", "have"),
            ("does", "do"),
            ("did", "do"),
            ("went", "go"),
            ("people", "person"),
            ("children", "child"),
            ("diagnoses", "diagnosis"),
            ("showed", "show"),
            ("stayed", "stay"),
            ("diagnosed", "diagnose"),
        ],
    )
    def test_mapping(self, word, lemma):
        assert lemmatize_word(word) == lemma


class TestSuffixRules:
    @pytest.mark.parametrize(
        "word,lemma",
        [
            ("cars", "car"),
            ("cities", "city"),
            ("patients", "patient"),
            ("diseases", "disease"),
            ("classes", "class"),
            ("boxes", "box"),
            ("wishes", "wish"),
            ("churches", "church"),
            ("ages", "age"),
            ("stopped", "stop"),
            ("running", "run"),
            ("spinning", "spin"),
            ("stored", "store"),
            ("listed", "list"),
            ("counting", "count"),
        ],
    )
    def test_mapping(self, word, lemma):
        assert lemmatize_word(word) == lemma


class TestComparatives:
    @pytest.mark.parametrize(
        "word,lemma",
        [
            ("older", "old"),
            ("oldest", "old"),
            ("higher", "high"),
            ("largest", "large"),
            ("biggest", "big"),
            ("cheapest", "cheap"),
        ],
    )
    def test_gradable_adjectives(self, word, lemma):
        assert lemmatize_word(word) == lemma

    def test_non_gradable_er_words_untouched(self):
        assert lemmatize_word("under") == "under"
        assert lemmatize_word("number") == "number"


class TestProtections:
    @pytest.mark.parametrize(
        "word", ["during", "this", "less", "address", "status", "always", "series"]
    )
    def test_protected_words(self, word):
        assert lemmatize_word(word) == word

    def test_short_words_untouched(self):
        assert lemmatize_word("his") == "his"
        assert lemmatize_word("as") == "as"

    def test_placeholder_passthrough(self):
        assert lemmatize_word("@AGE") == "@AGE"

    def test_number_passthrough(self):
        assert lemmatize_word("42") == "42"


class TestSentences:
    def test_possessive_stripped(self):
        assert lemmatize("the car's wheels") == "the car wheel"

    def test_full_sentence(self):
        assert (
            lemmatize("What are the names of all patients?")
            == "what be the name of all patient ?"
        )

    def test_placeholders_survive(self):
        assert lemmatize("patients with age @AGE") == "patient with age @AGE"

    def test_idempotent(self):
        text = "show me the longest rivers"
        assert lemmatize(lemmatize(text)) == lemmatize(text)


#: Pieces that stress the tokenizer's alternatives: possessives and bare
#: apostrophes, dotted placeholders, decimals, operators, symbols.
PIECES = st.sampled_from(
    [
        "car's", "cars'", "'", "'s", "it's", "o'neil's", "don't", "_'s",
        "@AGE", "@STATE.NAME", "@age.", "@", "@1", "3.5", "1.", ".5", "42",
        "<>", "<=", "!=", "==", "!", "?", ",", "-", "$", "%", "(", ")",
        "Patients", "cities", "running", "largest", "is", "a_b", "_",
    ]
)
SEPARATORS = st.sampled_from(["", " ", "  ", "\t"])
ASCII_TEXT = st.text(
    alphabet="abcXYZ019 '@._<>=!?,-$s", max_size=40
) | st.lists(st.tuples(PIECES, SEPARATORS), max_size=12).map(
    lambda parts: "".join(piece + sep for piece, sep in parts)
)


class TestRetokenizeProperty:
    """Joined lemmas re-tokenize to themselves.

    Synthesis keeps each lemmatized sentence's token list as
    ``TrainingPair.tokens`` and ``RetrievalModel.fit`` reads it instead
    of re-tokenizing the joined sentence; that is sound exactly when
    ``tokenize(" ".join(L)) == L``.
    """

    @given(ASCII_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_joined_lemmas_retokenize_to_themselves(self, text):
        lemmas = lemmatize_tokens(tokenize(text))
        assert tokenize(" ".join(lemmas)) == lemmas

    @given(st.text(max_size=30) | ASCII_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_lemmatized_pair_tokens_equal_tokenize(self, text):
        """Any text, including non-ASCII whose lower-casing changes
        length: the memoized tokens always equal ``tokenize(nl)``."""
        pair = TrainingPair(
            nl=text,
            sql=parse("SELECT COUNT(*) FROM patients"),
            template_id="t1",
            family=Family.AGGREGATE,
            schema_name="patients",
        )
        lemmatized = pair.lemmatized()
        assert lemmatized.nl == lemmatize(text)
        assert lemmatized.tokens == tuple(tokenize(lemmatized.nl))

    def test_non_ascii_lowercasing_that_splits_a_token(self):
        # "İ" lower-cases to "i" plus a combining dot: two tokens once
        # re-tokenized, so the pair must not keep the one-token list.
        pair = TrainingPair(
            nl="İ",
            sql=parse("SELECT COUNT(*) FROM patients"),
            template_id="t1",
            family=Family.AGGREGATE,
            schema_name="patients",
        ).lemmatized()
        assert "tokens" not in pair.__dict__
        assert pair.tokens == tuple(tokenize(pair.nl))

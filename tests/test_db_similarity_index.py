"""Tests for string similarity and the value index."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import repro.db.similarity as similarity
from repro.bench import build_patients_benchmark, spider_test_workload
from repro.bench.spider import TEST_SCHEMAS
from repro.db import (
    Database,
    ValueIndex,
    best_match,
    jaccard_tokens,
    jaccard_trigram,
    populate,
)
from repro.db.index import ValueHit
from repro.schema import (
    Schema,
    Table,
    all_schemas,
    integer,
    load_schema,
    patients_schema,
    text,
)
from repro.serving.repair import QueryRepairer


class TestJaccard:
    def test_identity(self):
        assert jaccard_trigram("boston", "boston") == 1.0
        assert jaccard_tokens("new york", "new york") == 1.0

    def test_disjoint(self):
        assert jaccard_trigram("abc", "xyz") == 0.0

    def test_case_insensitive(self):
        assert jaccard_trigram("Boston", "boston") == 1.0

    def test_partial_overlap_ranks_correctly(self):
        close = jaccard_trigram("influenza", "influenzza")
        far = jaccard_trigram("influenza", "fracture")
        assert close > far > 0.0 or far == 0.0

    @given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
    def test_symmetry(self, a, b):
        assert jaccard_trigram(a, b) == jaccard_trigram(b, a)

    @given(st.text(min_size=0, max_size=20))
    def test_reflexive(self, a):
        assert jaccard_trigram(a, a) == 1.0

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_bounds(self, a, b):
        assert 0.0 <= jaccard_trigram(a, b) <= 1.0


class TestBestMatch:
    def test_picks_best(self):
        match, score = best_match("influenzza", ["fracture", "influenza", "asthma"])
        assert match == "influenza"
        assert score > 0.5

    def test_threshold(self):
        match, score = best_match("zzzzzz", ["influenza"], threshold=0.5)
        assert match is None and score == 0.0

    def test_empty_candidates(self):
        assert best_match("x", []) == (None, 0.0)


class TestValueIndex:
    def test_exact_lookup(self, patients_db):
        value = patients_db.rows("patients")[0]["diagnosis"]
        hits = ValueIndex(patients_db).lookup(value)
        assert any(h.column == "diagnosis" and h.score == 1.0 for h in hits)

    def test_numeric_lookup(self, patients_db):
        age = patients_db.rows("patients")[0]["age"]
        hits = ValueIndex(patients_db).lookup(str(age))
        assert any(h.column == "age" for h in hits)

    def test_lookup_normalizes_case(self, patients_db):
        value = patients_db.rows("patients")[0]["name"]
        hits = ValueIndex(patients_db).lookup(value.upper())
        assert hits

    def test_fuzzy_lookup_corrects_typo(self, patients_db):
        index = ValueIndex(patients_db)
        hits = index.fuzzy_lookup("influenzza")
        assert hits and hits[0].value == "influenza"

    def test_fuzzy_lookup_below_threshold_empty(self, patients_db):
        index = ValueIndex(patients_db, similarity_threshold=0.9)
        assert index.fuzzy_lookup("qqqqqwwww") == []

    def test_columns_for(self, patients_db):
        index = ValueIndex(patients_db)
        value = patients_db.rows("patients")[0]["gender"]
        assert ("patients", "gender") in index.columns_for(value)

    def test_fuzzy_hits_sorted_by_score(self, patients_db):
        index = ValueIndex(patients_db)
        hits = index.fuzzy_lookup("influenz")
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestPopulate:
    def test_deterministic(self):
        first = populate(patients_schema(), rows_per_table=10, seed=5)
        second = populate(patients_schema(), rows_per_table=10, seed=5)
        assert first.rows("patients") == second.rows("patients")

    def test_seed_changes_data(self):
        first = populate(patients_schema(), rows_per_table=10, seed=5)
        second = populate(patients_schema(), rows_per_table=10, seed=6)
        assert first.rows("patients") != second.rows("patients")

    def test_row_counts(self, geography_db):
        for table in geography_db.schema.tables:
            assert geography_db.row_count(table.name) == 25

    def test_foreign_keys_reference_parents(self, geography_db):
        states = set(geography_db.column_values("state", "state_name"))
        cities = geography_db.rows("city")
        assert all(row["state_name"] in states for row in cities)

    def test_domain_ranges_respected(self, patients_db):
        ages = patients_db.column_values("patients", "age")
        assert all(1 <= a <= 99 for a in ages)

    def test_primary_keys_sequential(self, patients_db):
        pids = patients_db.column_values("patients", "patient_id")
        assert pids == list(range(1, 31))

    def test_all_catalog_schemas_populate(self):
        from repro.schema import all_schemas

        for schema in all_schemas():
            db = populate(schema, rows_per_table=5, seed=1)
            for table in schema.tables:
                assert db.row_count(table.name) == 5


# -- reference: the full scan, with no size window ---------------------
# Every stored text value is scored against the phrase, each pair
# building both trigram sets.


def _scan_ngrams(text: str, n: int = 3) -> set[str]:
    padded = f"  {text.lower()} "
    if len(padded) < n:
        return {padded}
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


def scan_jaccard(left: str, right: str) -> float:
    left_set = _scan_ngrams(left)
    right_set = _scan_ngrams(right)
    union = left_set | right_set
    if not union:
        return 1.0
    return len(left_set & right_set) / len(union)


def scan_best_match(needle, candidates, similarity=scan_jaccard, threshold=0.0):
    best_candidate = None
    best_score = 0.0
    for candidate in candidates:
        score = similarity(needle, candidate)
        if score > best_score:
            best_candidate = candidate
            best_score = score
    if best_candidate is None or best_score < threshold:
        return None, 0.0
    return best_candidate, best_score


def _stored_text_values(database) -> dict[tuple[str, str], list[str]]:
    return {
        (table.name, column.name): [
            str(v)
            for v in dict.fromkeys(database.column_values(table.name, column.name))
        ]
        for table in database.schema.tables
        for column in table.columns
        if not column.is_numeric
    }


def scan_fuzzy_lookup(index, text_values, constant, threshold, scores=None):
    """The pre-window ``fuzzy_lookup``; ``scores`` may carry this
    constant's already-computed ``scan_jaccard`` scores by value."""
    exact = index.lookup(constant)
    if exact:
        return exact
    if scores is None:
        score_of = scan_jaccard
    else:
        def score_of(_needle, value):
            if value not in scores:
                scores[value] = scan_jaccard(constant, value)
            return scores[value]
    hits = []
    for (table, column), values in text_values.items():
        match, score = scan_best_match(constant, values, score_of, threshold)
        if match is not None:
            hits.append(ValueHit(table, column, match, score))
    hits.sort(key=lambda h: (-h.score, h.table, h.column))
    return hits


THRESHOLDS = (0.0, 0.4, 0.45, 0.5, 0.9)


class _Corpus:
    """One database's indexes at every test threshold, with its values."""

    def __init__(self, database) -> None:
        self.text_values = _stored_text_values(database)
        self.indexes = {
            t: ValueIndex(database, similarity_threshold=t) for t in THRESHOLDS
        }

    def assert_exact(self, phrases) -> None:
        mismatches = []
        for phrase in phrases:
            scores: dict[str, float] = {}
            for t, index in self.indexes.items():
                expected = scan_fuzzy_lookup(index, self.text_values, phrase, t, scores)
                if index.fuzzy_lookup(phrase) != expected:
                    mismatches.append((phrase, t))
        assert not mismatches, mismatches[:5]


def _phrases(items, schema_name: str) -> set[str]:
    out: set[str] = set()
    for item in items:
        if item.schema_name != schema_name:
            continue
        words = item.nl.split()
        for n in (1, 2, 3):
            out.update(" ".join(words[i : i + n]) for i in range(len(words) - n + 1))
    return out


def _near_miss(value: str) -> str:
    """A near miss that no exact lookup answers."""
    return value[:-1] + "q" if len(value) > 1 else value + "q"


@pytest.fixture(scope="module")
def benchmark_corpora():
    schemas = ("patients", *TEST_SCHEMAS)
    return {
        name: _Corpus(populate(load_schema(name), rows_per_table=20, seed=3))
        for name in schemas
    }


@pytest.fixture(scope="module")
def patients_index_corpus():
    return _Corpus(populate(patients_schema(), rows_per_table=30, seed=3))


TRICKY = [" ", "\t", "İ", "K", "ẞ", "Σ", "ﬃ", "a", "B", "z", "ö", "-", "'"]


class TestFuzzyLookupMatchesScan:
    """``fuzzy_lookup`` with the size window returns exactly the full
    scan's hits: order, values and scores, compared with ``==``."""

    @pytest.mark.parametrize("schema_name", ("patients", *TEST_SCHEMAS))
    def test_benchmark_question_phrases(self, benchmark_corpora, schema_name):
        items = list(build_patients_benchmark()) + list(spider_test_workload())
        phrases = sorted(_phrases(items, schema_name))
        benchmark_corpora[schema_name].assert_exact(phrases)

    @pytest.mark.parametrize("schema_name", ("patients", *TEST_SCHEMAS))
    def test_stored_values_and_near_misses(self, benchmark_corpora, schema_name):
        corpus = benchmark_corpora[schema_name]
        values = {v for vs in corpus.text_values.values() for v in vs}
        corpus.assert_exact(sorted(values | {_near_miss(v) for v in values}))

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet=st.sampled_from(TRICKY), max_size=6),
            st.text(max_size=12),
            st.sampled_from(["influenza", "Fracture", "ALICE smith", "boston"]).map(
                lambda v: v.swapcase()
            ),
        ),
        st.sampled_from(THRESHOLDS),
    )
    def test_random_strings(self, patients_index_corpus, phrase, threshold):
        corpus = patients_index_corpus
        index = corpus.indexes[threshold]
        expected = scan_fuzzy_lookup(index, corpus.text_values, phrase, threshold)
        assert index.fuzzy_lookup(phrase) == expected

    @pytest.mark.parametrize("threshold", [t for t in THRESHOLDS if t > 0])
    def test_scores_on_the_window_edge(self, threshold):
        """A value with exactly ``|A|/t`` or ``t·|A|`` trigrams that scores
        exactly ``t`` is a hit, and ties keep the first value per column
        and sort by (table, column) across columns."""
        short, long_a, long_b, too_long = _edge_strings(threshold)
        for value in (long_a, long_b):
            assert scan_jaccard(short, value) == threshold
        assert scan_jaccard(short, too_long) < threshold
        cases = [
            (  # |B| = |A| / t: the stored values are the long ones
                short,
                {
                    ("a", "x"): [too_long, long_a, long_b],
                    ("a", "y"): [long_b, long_a, too_long],
                },
                [
                    ValueHit("a", "x", long_a, threshold),
                    ValueHit("a", "y", long_b, threshold),
                ],
            ),
            (  # |B| = t·|A|: the stored value is the short one
                long_a,
                {("b", "x"): [short], ("b", "w"): [short]},
                [
                    ValueHit("b", "w", short, threshold),
                    ValueHit("b", "x", short, threshold),
                ],
            ),
        ]
        for phrase, columns, expected in cases:
            database = _database(columns)
            index = ValueIndex(database, similarity_threshold=threshold)
            scanned = scan_fuzzy_lookup(
                index, _stored_text_values(database), phrase, threshold
            )
            assert scanned == expected
            assert index.fuzzy_lookup(phrase) == expected

    def test_other_metrics_score_every_stored_value(self, patients_db):
        calls: Counter = Counter()

        def counting(left, right):
            calls[right] += 1
            return jaccard_tokens(left, right)

        index = ValueIndex(patients_db, similarity=counting, similarity_threshold=0.9)
        assert index.fuzzy_lookup("qqqq wwww") == []
        stored = Counter(
            v for vs in _stored_text_values(patients_db).values() for v in vs
        )
        assert calls == stored

    @pytest.mark.parametrize("threshold", (0.4, 0.9))
    def test_no_trigram_set_for_a_value_outside_the_window(
        self, geography_db, monkeypatch, threshold
    ):
        index = ValueIndex(geography_db, similarity_threshold=threshold)
        built: list[str] = []
        original = similarity._trigrams

        def recording(value):
            built.append(value)
            return original(value)

        monkeypatch.setattr(similarity, "_trigrams", recording)
        phrase = "springfieldx"
        index.fuzzy_lookup(phrase)
        assert built[0] == phrase
        size = len(original(phrase))
        values = [v for vs in _stored_text_values(geography_db).values() for v in vs]

        def in_window(value):
            count = len(original(value))
            return min(size, count) / max(size, count) >= threshold

        assert all(in_window(v) for v in built[1:])
        assert Counter(built[1:]) == Counter(v for v in values if in_window(v))
        assert len(built) - 1 < len(values)


def _edge_strings(threshold: float) -> tuple[str, str, str, str]:
    """``short``; two strings whose trigram sets contain ``short``'s, with
    ``|short| / |long| == threshold`` exactly; and one such string with a
    trigram more."""
    ratio = Fraction(threshold).limit_denominator(100)
    scale = 2 if ratio.numerator == 1 else 1  # no string has 1 trigram but ""
    small, large = ratio.numerator * scale, ratio.denominator * scale
    letters = "abcdefghijklmnopqrstuvwxyz0123456789"
    short = letters[: small - 1]  # n distinct letters make n + 1 trigrams
    fresh = letters[small - 1 :]
    tails = [fresh[:k] for k in range(1, len(fresh) + 1)]
    tails += [fresh[::-1][:k] for k in range(1, len(fresh) + 1)]
    rests = ["", *tails, short, f"{short} {short}", *(f"{short} {t}" for t in tails)]
    grams = _scan_ngrams(short)
    assert len(grams) == small

    def containing(size):
        return [
            value
            for value in dict.fromkeys(f"{short} {rest}" for rest in rests)
            if value.strip() != short
            and grams <= _scan_ngrams(value)
            and len(_scan_ngrams(value)) == size
        ]

    long_a, long_b = containing(large)[:2]
    return short, long_a, long_b, containing(large + 1)[0]


def _database(columns: dict[tuple[str, str], list[str]]) -> Database:
    """Text columns holding ``columns[(table, column)]`` row by row (the
    columns of one table are equally long)."""
    tables: dict[str, dict[str, list[str]]] = {}
    for (table, column), values in columns.items():
        tables.setdefault(table, {})[column] = values
    schema = Schema(
        "edges",
        [
            Table(name, [integer("id", primary_key=True), *map(text, cols)])
            for name, cols in tables.items()
        ],
    )
    database = Database(schema)
    for name, cols in tables.items():
        for row_id, row in enumerate(zip(*cols.values()), start=1):
            database.insert(name, {"id": row_id, **dict(zip(cols, row))})
    return database


def _typos(word: str) -> list[str]:
    """A dropped, a doubled and a transposed letter, and a case change."""
    middle = len(word) // 2
    head, letter, tail = word[:middle], word[middle : middle + 1], word[middle + 1 :]
    typos = [head + tail, head + letter * 2 + tail, word.upper()]
    if len(word) > 2:
        typos.append(head[:-1] + letter + head[-1] + tail)
    return [t for t in typos if t]


def scan_phrase_score(needle: str, name: str, phrases) -> float:
    """The repairer's name/phrase score with two-set ``scan_jaccard`` calls."""
    target = needle.replace("_", " ")
    score = max(scan_jaccard(needle, name), QueryRepairer._edit_ratio(needle, name))
    for phrase in phrases:
        score = max(score, scan_jaccard(target, phrase))
    return score


@pytest.mark.parametrize("schema", all_schemas(), ids=lambda s: s.name)
def test_repair_phrase_score_matches_pairwise_jaccard(schema):
    elements = [(t.name, t.nl_phrases) for t in schema.tables]
    elements += [(c.name, c.nl_phrases) for t in schema.tables for c in t.columns]
    words = {name for name, _ in elements} | {p for _, ps in elements for p in ps}
    needles = sorted({typo for word in words for typo in _typos(word)})
    mismatches = [
        (needle, name)
        for needle in needles
        for name, phrases in elements
        if QueryRepairer._phrase_score(needle, name, phrases)
        != scan_phrase_score(needle, name, phrases)
    ]
    assert not mismatches, mismatches[:5]

"""Tests for the runtime post-processor (§4.2, §5.1)."""

import pytest

from repro.runtime import PostProcessor
from repro.runtime.parameter_handler import Binding
from repro.sql import parse, to_sql


@pytest.fixture()
def post(geography):
    return PostProcessor(geography)


@pytest.fixture()
def patients_post(patients):
    return PostProcessor(patients)


class TestParsing:
    def test_unparseable_returns_none(self, post):
        assert post.process("garbage output !!") is None
        assert post.process(None) is None
        assert post.process("") is None

    def test_clean_query_unchanged(self, post):
        result = post.process("SELECT * FROM city")
        assert result.sql == "SELECT * FROM city"
        assert not result.repaired


class TestJoinExpansion:
    def test_direct_join_expanded(self, post):
        result = post.process(
            "SELECT city.city_name FROM @JOIN WHERE state.population > @STATE.POPULATION"
        )
        assert result.repaired
        assert set(result.query.from_tables) == {"city", "state"}
        # The FK condition was added.
        assert "city.state_name = state.state_name" in result.sql

    def test_multi_hop_join_adds_intermediate(self, post):
        result = post.process(
            "SELECT city.city_name FROM @JOIN WHERE mountain.height > @MOUNTAIN.HEIGHT"
        )
        assert set(result.query.from_tables) == {"city", "state", "mountain"}

    def test_placeholder_table_hints_used(self, post):
        # Only the placeholder mentions the second table.
        result = post.process(
            "SELECT city.city_name FROM @JOIN WHERE state_name = @STATE.STATE_NAME"
        )
        assert "state" in result.query.from_tables

    def test_unexpandable_join_kept(self, patients_post):
        # No qualified refs at all: repair cannot infer tables.
        result = patients_post.process("SELECT * FROM @JOIN WHERE age = @AGE")
        assert result.query.uses_join_placeholder


class TestFromRepair:
    def test_missing_table_added(self, post):
        result = post.process(
            "SELECT city.city_name FROM state WHERE city.population > @CITY.POPULATION"
        )
        assert set(result.query.from_tables) == {"city", "state"}
        assert result.repaired

    def test_unqualified_column_resolves_table(self, patients_post):
        # Model emitted the wrong table name entirely.
        result = patients_post.process("SELECT diagnosis FROM patients")
        assert result.query.from_tables == ("patients",)

    def test_wrong_single_table_replaced(self, post):
        # 'length' only exists in river.
        result = post.process("SELECT length FROM state")
        # state has no 'length'; river added via join path.
        assert "river" in result.query.from_tables


class TestPlaceholderRestoration:
    def test_exact_name_binding(self, patients_post):
        result = patients_post.process(
            "SELECT * FROM patients WHERE age = @AGE",
            [Binding(placeholder="AGE", value=30, column="age")],
        )
        assert result.sql == "SELECT * FROM patients WHERE age = 30"

    def test_column_segment_binding(self, post):
        result = post.process(
            "SELECT * FROM @JOIN WHERE state.population > @STATE.POPULATION",
            [Binding(placeholder="POPULATION", value=5000, column="population")],
        )
        assert "> 5000" in result.sql

    def test_positional_fallback(self, patients_post):
        result = patients_post.process(
            "SELECT * FROM patients WHERE diagnosis = @DIAGNOSIS",
            [Binding(placeholder="NUM", value="flu")],
        )
        assert "= 'flu'" in result.sql

    def test_low_high_bindings(self, patients_post):
        result = patients_post.process(
            "SELECT COUNT(*) FROM patients WHERE age BETWEEN @AGE.LOW AND @AGE.HIGH",
            [
                Binding(placeholder="AGE.LOW", value=20, column="age"),
                Binding(placeholder="AGE.HIGH", value=60, column="age"),
            ],
        )
        assert "BETWEEN 20 AND 60" in result.sql

    def test_unresolved_placeholder_kept_visible(self, patients_post):
        result = patients_post.process("SELECT * FROM patients WHERE age = @AGE", [])
        assert "@AGE" in result.sql

    def test_nested_query_bindings(self, patients_post):
        result = patients_post.process(
            "SELECT name FROM patients WHERE length_of_stay = "
            "(SELECT MAX(length_of_stay) FROM patients WHERE diagnosis = @DIAGNOSIS)",
            [Binding(placeholder="DIAGNOSIS", value="flu", column="diagnosis")],
        )
        assert "'flu'" in result.sql

    def test_each_binding_used_once(self, patients_post):
        result = patients_post.process(
            "SELECT * FROM patients WHERE age > @AGE OR length_of_stay > @LENGTH_OF_STAY",
            [
                Binding(placeholder="AGE", value=30, column="age"),
                Binding(placeholder="LENGTH_OF_STAY", value=7, column="length_of_stay"),
            ],
        )
        assert "age > 30" in result.sql
        assert "length_of_stay > 7" in result.sql


class TestEndToEndRepairedExecution:
    def test_expanded_join_executes(self, post, geography_db):
        from repro.db import execute

        result = post.process(
            "SELECT city.city_name FROM @JOIN WHERE state.population > @STATE.POPULATION",
            [Binding(placeholder="STATE.POPULATION", value=0, column="population")],
        )
        rows = execute(result.query, geography_db)
        assert rows  # every city joins to some state with population > 0


class TestRestorePlaceholders:
    """Direct coverage for the public ``restore_placeholders`` entry."""

    def test_empty_binding_map_leaves_placeholders_visible(self):
        from repro.runtime.postprocess import restore_placeholders

        query = parse("SELECT name FROM patients WHERE age > @AGE")
        restored = restore_placeholders(query, [])
        assert to_sql(restored) == "SELECT name FROM patients WHERE age > @AGE"

    def test_repeated_placeholder_consumes_bindings_in_order(self):
        from repro.runtime.postprocess import restore_placeholders

        query = parse(
            "SELECT name FROM patients WHERE age > @AGE AND age < @AGE"
        )
        restored = restore_placeholders(
            query,
            [
                Binding(placeholder="AGE", value=20, column="age"),
                Binding(placeholder="AGE", value=60, column="age"),
            ],
        )
        assert to_sql(restored) == (
            "SELECT name FROM patients WHERE age > 20 AND age < 60"
        )

    def test_repeated_placeholder_with_one_binding_partial(self):
        from repro.runtime.postprocess import restore_placeholders

        query = parse(
            "SELECT name FROM patients WHERE age > @AGE AND age < @AGE"
        )
        restored = restore_placeholders(
            query, [Binding(placeholder="AGE", value=20, column="age")]
        )
        # One slot restored, the other stays visible — never silently
        # reused.
        assert to_sql(restored) == (
            "SELECT name FROM patients WHERE age > 20 AND age < @AGE"
        )

    def test_placeholder_text_inside_string_literal_untouched(self):
        from repro.runtime.postprocess import restore_placeholders

        query = parse("SELECT name FROM patients WHERE name = '@AGE'")
        restored = restore_placeholders(
            query, [Binding(placeholder="AGE", value=30, column="age")]
        )
        # The literal merely *looks* like a placeholder; restoration
        # operates on AST Placeholder nodes, not on text.
        assert to_sql(restored) == "SELECT name FROM patients WHERE name = '@AGE'"

    def test_dotted_head_segments_match_column_binding(self):
        from repro.runtime.postprocess import restore_placeholders

        query = parse(
            "SELECT name FROM patients WHERE age > @PATIENTS.AGE"
        )
        restored = restore_placeholders(
            query, [Binding(placeholder="AGE", value=41, column="age")]
        )
        assert to_sql(restored) == "SELECT name FROM patients WHERE age > 41"

    def test_bare_placeholder_matches_dotted_binding(self):
        from repro.runtime.postprocess import restore_placeholders

        query = parse("SELECT name FROM patients WHERE age > @AGE")
        restored = restore_placeholders(
            query,
            [
                Binding(
                    placeholder="PATIENTS.AGE",
                    value=55,
                    table="patients",
                    column="age",
                )
            ],
        )
        assert to_sql(restored) == "SELECT name FROM patients WHERE age > 55"


# ----------------------------------------------------------------------
# The memo: a repeated (SQL text, bindings) is post-processed once
# ----------------------------------------------------------------------


def _served_pairs(nlidb, questions):
    """``(model output, bindings)`` as the serving path passes them in."""
    pairs = []
    for nl in questions:
        pre = nlidb.preprocessor.preprocess(nl)
        pairs.append((nlidb.model.translate(pre.model_input), pre.bindings))
    return pairs


def _fields(processed):
    if processed is None:
        return None
    # repr, not ==: AST equality cannot tell the literal 5 from 5.0.
    return repr(processed.query), processed.sql, processed.repaired


def _assert_memo_exact(nlidb, questions):
    """Memoized ``process`` equals a fresh post-processor on every output.

    The outputs are every answer the model gives the questions plus
    every SQL text it can return (its training pairs), each with the
    question's bindings (a memo hit on repeat), another question's
    bindings and none.
    """
    schema = nlidb.database.schema
    pairs = _served_pairs(nlidb, questions)
    trained = dict.fromkeys(sql for _nl, sql in nlidb.model._examples)
    cases = [(sql, bindings) for sql, bindings in pairs]
    cases += [(sql, pairs[i % len(pairs)][1]) for i, sql in enumerate(trained)]
    memo = PostProcessor(schema)
    for i, (sql, bindings) in enumerate(cases):
        other = pairs[(i + 1) % len(pairs)][1]
        for use in (bindings, bindings, other, (), bindings):
            expected = _fields(PostProcessor(schema).process(sql, use))
            assert _fields(memo.process(sql, use)) == expected, (sql, use)
    assert memo._memo.cache_info().hits >= len(cases)


def test_memo_exact_on_patients_corpus(retrieval_nlidb):
    from repro.bench import build_patients_benchmark

    questions = [item.nl for item in build_patients_benchmark().items]
    _assert_memo_exact(retrieval_nlidb, questions)


def test_memo_exact_on_spider_corpus():
    from repro.bench import spider_test_workload
    from repro.bench.spider import spider_schemas
    from repro.core import GenerationConfig
    from repro.db import populate
    from repro.neural import RetrievalModel
    from repro.runtime import DBPal

    workload = spider_test_workload()
    for schema in spider_schemas()[1]:
        nlidb = DBPal(populate(schema, rows_per_table=20, seed=7))
        nlidb.train(RetrievalModel(), config=GenerationConfig(size_slotfills=2), seed=0)
        questions = [i.nl for i in workload.items if i.schema_name == schema.name]
        assert questions
        _assert_memo_exact(nlidb, questions)


def test_binding_value_type_is_part_of_the_key(patients_post):
    sql = "SELECT name FROM patients WHERE age = @AGE"
    printed = [
        patients_post.process(sql, [Binding("AGE", value, "patients", "age")]).sql
        for value in (5, 5.0, "5")
    ]
    assert printed == [
        "SELECT name FROM patients WHERE age = 5",
        "SELECT name FROM patients WHERE age = 5.0",
        "SELECT name FROM patients WHERE age = '5'",
    ]
    # AST equality cannot tell 5 from 5.0, hence the typed key.
    assert parse(printed[0]) == parse(printed[1])


def test_each_call_gets_its_own_result(patients_post):
    sql = "SELECT name FROM patients WHERE age = @AGE"
    bindings = [Binding("AGE", 30, "patients", "age")]
    first = patients_post.process(sql, bindings)
    first.sql = "mutated by a caller"
    assert patients_post.process(sql, bindings).sql.endswith("age = 30")


def test_pickles_without_its_memo(patients_post):
    import pickle

    sql = "SELECT name FROM patients WHERE age = @AGE"
    bindings = [Binding("AGE", 30, "patients", "age")]
    expected = _fields(patients_post.process(sql, bindings))
    copy = pickle.loads(pickle.dumps(patients_post))
    assert _fields(copy.process(sql, bindings)) == expected

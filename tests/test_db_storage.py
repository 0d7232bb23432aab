"""Tests for in-memory row storage."""

import itertools
import os
import types

import pytest

from repro.db import Database
from repro.db.planner import _CachedResult
from repro.db.storage import _row_builder, _row_builder_source, rows_from_values
from repro.errors import ExecutionError, SchemaError
from repro.schema import Schema, Table, floating, integer, text


def make_db():
    schema = Schema(
        "s",
        [Table("t", [integer("a", primary_key=True), text("b"), floating("c")])],
    )
    return Database(schema)


class TestInsert:
    def test_insert_and_read(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x", "c": 2.5})
        assert db.rows("t") == [{"a": 1, "b": "x", "c": 2.5}]

    def test_missing_columns_become_null(self):
        db = make_db()
        db.insert("t", {"a": 1})
        assert db.rows("t")[0]["b"] is None

    def test_unknown_column_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.insert("t", {"a": 1, "zz": 2})

    def test_integer_coercion(self):
        db = make_db()
        db.insert("t", {"a": "7"})
        assert db.rows("t")[0]["a"] == 7

    def test_float_coercion(self):
        db = make_db()
        db.insert("t", {"a": 1, "c": 3})
        assert db.rows("t")[0]["c"] == 3.0

    def test_bad_type_rejected(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            db.insert("t", {"a": "not a number"})
        with pytest.raises(ExecutionError):
            db.insert("t", {"a": 1, "b": 42})
        with pytest.raises(ExecutionError):
            db.insert("t", {"a": True})

    def test_insert_many(self):
        db = make_db()
        db.insert_many("t", [{"a": i} for i in range(5)])
        assert db.row_count("t") == 5


class TestRead:
    def test_rows_are_copies(self):
        db = make_db()
        db.insert("t", {"a": 1})
        db.rows("t")[0]["a"] = 999
        assert db.rows("t")[0]["a"] == 1

    def test_unknown_table_raises(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.rows("missing")
        with pytest.raises(SchemaError):
            db.row_count("missing")

    def test_column_values_skip_nulls(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x"})
        db.insert("t", {"a": 2})
        assert db.column_values("t", "b") == ["x"]

    def test_column_values_unknown_column(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.column_values("t", "zz")

    def test_repr_shows_sizes(self):
        db = make_db()
        db.insert("t", {"a": 1})
        assert "'t': 1" in repr(db)


class TestScan:
    """The zero-copy read path behind the executors."""

    def test_scan_returns_live_views_not_copies(self):
        db = make_db()
        db.insert("t", {"a": 1})
        view = db.scan("t")
        assert view[0] is db.scan("t")[0]  # same underlying dict, no copy

    def test_scan_view_is_cached_per_version(self):
        db = make_db()
        db.insert("t", {"a": 1})
        assert db.scan("t") is db.scan("t")
        db.insert("t", {"a": 2})
        assert len(db.scan("t")) == 2

    def test_scan_unknown_table_raises(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.scan("missing")

    def test_version_bumps_on_insert_only(self):
        db = make_db()
        before = db.version
        db.rows("t")
        db.scan("t")
        assert db.version == before
        db.insert("t", {"a": 1})
        assert db.version == before + 1

    def test_rows_still_returns_mutation_safe_copies(self):
        db = make_db()
        db.insert("t", {"a": 1})
        copies = db.rows("t")
        copies[0]["a"] = 999
        assert db.scan("t")[0]["a"] == 1

class TestColumnStore:
    """The lazily built columnar view behind the vectorized executor."""

    def test_store_is_cached_per_version(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x", "c": 1.5})
        store = db.column_store("t")
        assert db.column_store("t") is store
        db.insert("t", {"a": 2, "b": "y", "c": 2.5})
        rebuilt = db.column_store("t")
        assert rebuilt is not store
        assert rebuilt.length == 2

    def test_column_kinds_and_null_mask(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x", "c": 1.5})
        db.insert("t", {"a": 2, "c": 2.5})
        store = db.column_store("t")
        assert store.column("a").kind == "int"
        assert store.column("a").nulls is None
        b = store.column("b")
        assert b.kind == "str"
        assert list(b.nulls) == [False, True]
        assert store.column("c").kind == "float"

    def test_unknown_column_raises(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.column_store("t").column("zz")
        with pytest.raises(SchemaError):
            db.column_store("missing")

    def test_insert_coercion_keeps_float_column_exact(self):
        db = make_db()
        db.insert("t", {"a": 1, "c": 1.5})
        db.insert("t", {"a": 2, "c": 2})  # coerced to 2.0 on insert
        store = db.column_store("t")
        # Mixed types can only enter by bypassing insert(); the coerced
        # column stays exact (the dtype-edge suite covers the bypass).
        assert store.column("c").exact
        assert store.column("a").exact

    def test_factorize_codes_and_null_top_code(self):
        db = make_db()
        for b in ("x", "y", None, "x"):
            db.insert("t", {"a": db.row_count("t"), "b": b})
        codes, card, dictionary = db.column_store("t").factorize("b")
        # Dictionary over the fill-valued array: the "" NULL-fill slot
        # is present but unused (NULL rows take the top code instead).
        assert card == 4
        assert list(dictionary) == ["", "x", "y"]
        assert codes[0] == codes[3] != codes[1]
        assert codes[2] == card - 1  # NULL takes the dedicated top code

    def test_factorize_is_cached(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x"})
        store = db.column_store("t")
        first = store.factorize("b")
        assert store.factorize("b") is first

    def test_column_values_served_from_store_matches_rows(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x"})
        db.insert("t", {"a": 2})
        before = db.column_values("t", "b")  # row path: no store yet
        store = db.column_store("t")
        store.non_null_values("b")  # populate the cached list
        assert db.column_values("t", "b") == before == ["x"]

    def test_column_values_invalidated_by_insert(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x"})
        db.column_store("t").non_null_values("b")
        assert db.column_values("t", "b") == ["x"]
        db.insert("t", {"a": 2, "b": "y"})  # drops the cached store
        assert db.column_values("t", "b") == ["x", "y"]


def _reference(labels, values):
    return [dict(zip(labels, v)) for v in values]


def _assert_same_rows(labels, values):
    actual = rows_from_values(labels, values)
    expected = _reference(labels, values)
    assert actual == expected
    # Key order too: a dict compares equal whatever its insertion order.
    assert [list(row.items()) for row in actual] == [
        list(row.items()) for row in expected
    ]
    return actual


def _code_objects(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


#: Labels that are not Python identifiers, or that would be code if a
#: builder formatted them into its source.
HOSTILE_LABELS = (
    "it's",
    'say "hi"',
    "{k0}",
    "}",
    "{",
    "line\nbreak",
    "",
    "größe",
    "名前",
    "__import__('os').system('x')",
    "v0",
    "k1",
    "values",
)


class TestRowsFromValues:
    """``rows_from_values`` builds what ``dict(zip(labels, v))`` builds."""

    @pytest.mark.parametrize("arity", range(13))
    def test_arities(self, arity):
        labels = tuple(f"c{i}" for i in range(arity))
        values = [tuple(r * 100 + i for i in range(arity)) for r in range(5)]
        rows = _assert_same_rows(labels, values)
        assert len(rows) == 5
        assert _assert_same_rows(labels, []) == []

    def test_each_row_is_a_fresh_dict(self):
        rows = rows_from_values(("a", "b"), [(1, 2), (1, 2)])
        rows[0]["a"] = 9
        assert rows[1] == {"a": 1, "b": 2} and rows[0] is not rows[1]

    def test_values_may_be_any_iterable(self):
        columns = [[1, 2, 3], ["x", "y", "z"]]
        assert rows_from_values(("n", "s"), zip(*columns)) == _reference(
            ("n", "s"), list(zip(*columns))
        )

    @pytest.mark.parametrize("label", HOSTILE_LABELS)
    def test_hostile_labels_stay_data(self, label, monkeypatch):
        ran = []
        monkeypatch.setattr(os, "system", lambda command: ran.append(command))
        labels = ("id", label, "tail")
        rows = _assert_same_rows(labels, [(1, "a", None), (2, "b", 3.5)])
        assert ran == []
        assert list(rows[0]) == ["id", label, "tail"]

    def test_all_hostile_labels_in_one_row(self):
        values = [tuple(range(len(HOSTILE_LABELS)))] * 3
        _assert_same_rows(HOSTILE_LABELS, values)

    @pytest.mark.parametrize(
        "labels, values",
        [
            (("age", "age"), [(18, 18), (4, 5)]),
            (("a", "b", "a"), [(1, 2, 3)]),
            (("x",) * 4, [(1, 2, 3, 4)]),
        ],
    )
    def test_repeated_labels_keep_dict_zip_semantics(self, labels, values):
        # The last value wins and the key keeps its first position.
        _assert_same_rows(labels, values)

    def test_repeated_sqlite_column(self, patients_db):
        from repro.adapters import SqliteAdapter
        from repro.sql import parse

        with SqliteAdapter.from_database(patients_db) as sqlite_arm:
            raw = sqlite_arm.connection.execute("SELECT age, age FROM patients")
            labels = [description[0] for description in raw.description]
            expected = _reference(labels, raw.fetchall())
            assert labels == ["age", "age"]
            served = sqlite_arm.execute(parse("SELECT age, age FROM patients"))
            assert served == expected

    @pytest.mark.parametrize("max_rows", [None, 0, 1, 100])
    def test_cached_result_rows_honour_max_rows(self, max_rows):
        labels = ("id", "name", "score")
        values = [(i, f"n{i}", i / 2) for i in range(40)]
        cached = _CachedResult(labels, values)
        rows = cached.rows(max_rows)
        assert rows == _reference(labels, values[:max_rows])
        assert len(rows) == (40 if max_rows is None else min(max_rows, 40))
        assert cached.rows(max_rows) is not rows

    def test_one_builder_per_arity(self):
        assert _row_builder(3) is _row_builder(3)
        assert _row_builder(3) is not _row_builder(4)

    @pytest.mark.parametrize("arity", [1, 2, 5, len(HOSTILE_LABELS)])
    def test_no_label_reaches_a_builders_code(self, arity):
        labels = tuple(itertools.islice(itertools.cycle(HOSTILE_LABELS), arity))
        rows_from_values(labels, [tuple(range(arity))])
        code = _row_builder(arity).__code__
        codes = list(_code_objects(code))
        constants = [
            c for co in codes for c in co.co_consts if not isinstance(c, types.CodeType)
        ]
        names = {n for co in codes for n in co.co_names + co.co_varnames}
        assert code.co_filename == f"<row builder, arity {arity}>"
        assert code.co_argcount == arity + 1
        source = _row_builder_source(arity)
        for label in labels:
            assert label not in constants
            # One-character labels such as "{" are the source's own
            # punctuation, and generated names are its own identifiers.
            if len(label) > 1 and label not in names:
                assert label not in source
        # Parameter and local names come from the arity alone.
        assert names <= {"values", ".0"} | {f"k{i}" for i in range(arity)} | {
            f"v{i}" for i in range(arity)
        }

"""Dtype edges of the vectorized columnar engine.

The columnar arm promises bit-identical output to the planned row arm
*including* on data the array layer cannot represent faithfully: NULLs,
values smuggled past ``insert()``'s coercion (mixed int/float, strings
in numeric columns), NaN, integers beyond int64, strings with embedded
quotes or NUL bytes.  Representable edges must stay vectorized and
agree; unrepresentable ones must be *refused* by the column builder so
the per-step row fallback runs — this suite pins both the agreement and
the fallback decision (via :class:`ColumnarTrace` / session stats), so
a regression that silently vectorizes an unsafe dtype fails loudly.
"""

from __future__ import annotations

import pytest

from repro.db import COLUMNAR_MIN_ROWS, Database
from repro.db.planner import ExecutorSession, execute_planned, explain
from repro.schema import Schema, Table, floating, integer, text
from repro.sql.parser import parse


def make_db() -> Database:
    schema = Schema(
        "edge",
        [
            Table(
                "t",
                [
                    integer("a", primary_key=True),
                    text("b"),
                    floating("c"),
                    integer("d"),
                ],
            ),
            Table("u", [integer("a", primary_key=True), text("label")]),
        ],
    )
    return Database(schema)


def inject(db: Database, table: str, row: dict) -> None:
    """Bypass ``insert()`` coercion — how mixed-type rows really arrive
    (tests, external loaders poking ``_rows``)."""
    db._rows[table].append(row)
    db._views.pop(table, None)
    db._column_stores.pop(table, None)
    db._version += 1


def assert_columnar_identical(db: Database, sql: str) -> ExecutorSession:
    """Forced-columnar output must equal the planned row arm's, value
    for value and row for row.  Returns the session for trace checks."""
    query = parse(sql)
    expected = execute_planned(query, db, columnar=False)
    session = ExecutorSession(db, columnar=True)
    assert session.execute(query) == expected, sql
    return session


def fallback_reasons(session: ExecutorSession) -> dict[str, int]:
    return session.stats()["columnar"]["fallback_reasons"]


class TestNullEdges:
    """NULLs are representable: these stay vectorized and agree."""

    def fill(self, db):
        rows = [
            (0, "x", 1.5, 7),
            (1, None, 2.5, None),
            (2, "y", None, 3),
            (3, "x", 0.5, None),
            (4, None, None, 7),
        ]
        for a, b, c, d in rows:
            db.insert("t", {"a": a, "b": b, "c": c, "d": d})

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE d = 7",
            "SELECT a FROM t WHERE d > 0 ORDER BY a",
            "SELECT a, b FROM t ORDER BY b, a",
            "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b",
            "SELECT b, SUM(d) FROM t GROUP BY b",
            "SELECT DISTINCT b FROM t",
            "SELECT COUNT(d), COUNT(*) FROM t",
            "SELECT a FROM t WHERE d BETWEEN 3 AND 9",
            "SELECT a FROM t WHERE b IN ('x', 'z')",
        ],
    )
    def test_nulls_identical_and_vectorized(self, sql):
        db = make_db()
        self.fill(db)
        session = assert_columnar_identical(db, sql)
        assert session.columnar_vectorized_steps > 0
        assert not fallback_reasons(session)

    def test_null_join_keys_match_nothing(self):
        db = make_db()
        self.fill(db)
        for a, label in [(7, "seven"), (3, "three")]:
            db.insert("u", {"a": a, "label": label})
        session = assert_columnar_identical(
            db,
            "SELECT t.a, u.label FROM t, u WHERE t.d = u.a ORDER BY t.a",
        )
        assert session.columnar_vectorized_steps > 0
        assert not fallback_reasons(session)


class TestUnrepresentableDtypes:
    """Refused by ``_build_column``: row fallback, identical output."""

    def seed(self, db):
        db.insert("t", {"a": 0, "b": "x", "c": 1.5, "d": 1})
        db.insert("t", {"a": 1, "b": "y", "c": 2.5, "d": 2})

    def check(self, db, sql, expected_reason_fragment):
        session = assert_columnar_identical(db, sql)
        reasons = fallback_reasons(session)
        assert any(
            expected_reason_fragment in reason for reason in reasons
        ), (sql, reasons)
        return session

    def test_mixed_str_and_int_column(self):
        db = make_db()
        self.seed(db)
        inject(db, "t", {"a": 2, "b": 99, "c": 3.5, "d": 3})
        self.check(
            db, "SELECT a, b FROM t ORDER BY a", "not vectorizable"
        )

    def test_mixed_int_float_column_projection_falls_back(self):
        db = make_db()
        self.seed(db)
        inject(db, "t", {"a": 2, "b": "z", "c": 2, "d": 3})  # int in FLOAT
        # The array holds 2.0 where storage holds int 2 — materializing
        # from it would change the value's type, so projection refuses.
        self.check(db, "SELECT c FROM t ORDER BY a", "inexact")

    def test_nan_refused(self):
        db = make_db()
        self.seed(db)
        db.insert("t", {"a": 2, "b": "z", "c": float("nan"), "d": 3})
        self.check(
            db, "SELECT a FROM t WHERE c > 0 ORDER BY a", "not vectorizable"
        )

    def test_huge_int_refused(self):
        db = make_db()
        self.seed(db)
        db.insert("t", {"a": 2, "b": "z", "c": 3.5, "d": 2**66})
        self.check(
            db, "SELECT a, d FROM t WHERE d > 0", "not vectorizable"
        )

    def test_embedded_nul_string_refused(self):
        db = make_db()
        self.seed(db)
        db.insert("t", {"a": 2, "b": "nul\x00byte", "c": 3.5, "d": 3})
        self.check(db, "SELECT DISTINCT b FROM t", "not vectorizable")

    def test_oversized_string_refused(self):
        db = make_db()
        self.seed(db)
        db.insert("t", {"a": 2, "b": "w" * 600, "c": 3.5, "d": 3})
        self.check(db, "SELECT a, b FROM t ORDER BY b", "not vectorizable")

    def test_fallback_join_key_still_identical(self):
        db = make_db()
        self.seed(db)
        inject(db, "t", {"a": 2, "b": "z", "c": 3.5, "d": "three"})
        db.insert("u", {"a": 1, "label": "one"})
        db.insert("u", {"a": 3, "label": "three"})
        self.check(
            db,
            "SELECT t.a, u.label FROM t, u WHERE t.d = u.a ORDER BY t.a",
            "not vectorizable",
        )


class TestRepresentableOddStrings:
    """Quotes and unicode round-trip the U-dtype: stay vectorized."""

    def test_embedded_quotes_sort_group_distinct(self):
        db = make_db()
        values = ['he said "hi"', "O'Brien", 'mix "of\' both', "plain", ""]
        for i, b in enumerate(values + values):
            db.insert("t", {"a": i, "b": b, "c": 0.5, "d": i})
        for sql in [
            "SELECT a, b FROM t ORDER BY b, a",
            "SELECT DISTINCT b FROM t ORDER BY b",
            "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b",
        ]:
            session = assert_columnar_identical(db, sql)
            assert session.columnar_vectorized_steps > 0
            assert not fallback_reasons(session)


class TestModeAndExplain:
    def big_db(self):
        db = make_db()
        db.insert_many(
            "t",
            (
                {"a": i, "b": f"b{i % 5}", "c": i / 2, "d": i % 3}
                for i in range(COLUMNAR_MIN_ROWS + 10)
            ),
        )
        return db

    def test_auto_threshold(self):
        small = make_db()
        small.insert("t", {"a": 0, "b": "x", "c": 1.5, "d": 1})
        session = ExecutorSession(small)  # auto
        session.execute(parse("SELECT a FROM t"))
        assert session.last_columnar_trace is None  # below threshold

        session = ExecutorSession(self.big_db())  # auto, above threshold
        session.execute(parse("SELECT a FROM t WHERE d = 1"))
        assert session.last_columnar_trace is not None
        assert session.columnar_vectorized_steps > 0
        assert session.stats()["columnar"]["mode"] == "auto"

    def test_off_mode_never_engages(self):
        session = ExecutorSession(self.big_db(), columnar=False)
        session.execute(parse("SELECT a FROM t WHERE d = 1"))
        assert session.last_columnar_trace is None
        assert session.stats()["columnar"]["mode"] == "off"

    def test_explain_annotates_arms(self):
        """A vectorizable join runs every step vectorized, as its trace
        records; the plan itself claims no arm."""
        db = self.big_db()
        db.insert_many(
            "u", ({"a": i, "label": f"l{i}"} for i in range(4))
        )
        query = parse(
            "SELECT t.a, u.label FROM t, u WHERE t.d = u.a AND t.b = 'b1'"
        )
        plan = explain(query, db)
        assert "[vectorized]" not in plan
        assert plan.splitlines()[-1] == "  columnar auto: engaged"
        session = ExecutorSession(db)  # auto, above threshold
        session.execute(query)
        assert session.last_columnar_trace.steps == [
            ("scan", "vectorized", ""),
            ("join", "vectorized", ""),
            ("finish", "vectorized", ""),
        ]

    def test_explain_annotates_row_fallback(self):
        db = self.big_db()
        inject(
            db,
            "t",
            {"a": -1, "b": 5, "c": 0.0, "d": 0},  # int in TEXT column
        )
        query = parse("SELECT a FROM t WHERE b = 'b1'")
        assert "[row: " not in explain(query, db)
        session = ExecutorSession(db)
        session.execute(query)
        assert session.last_columnar_trace.steps[0] == ("scan", "row", "column t.b")

    @pytest.mark.parametrize(
        "sql, reason",
        [
            (
                "SELECT a FROM t WHERE a = 9223372036854775000",
                "integer constant out of int64 range",
            ),
            (
                "SELECT a FROM t WHERE c = 90071992547409930",
                "int constant not exact as float64",
            ),
        ],
    )
    def test_explain_claims_no_arm_the_run_did_not_take(self, sql, reason):
        """The column vectorizes but the constant does not: only the run
        can tell, and its trace is the one record of the arm taken."""
        db = self.big_db()
        query = parse(sql)
        plan = explain(query, db)
        assert "[vectorized]" not in plan and "[row:" not in plan
        session = assert_columnar_identical(db, sql)
        assert session.last_columnar_trace.steps[0] == ("scan", "row", reason)

    def test_cli_execute_prints_the_arm_each_step_took(self, capsys):
        from repro.cli import main

        code = main(
            [
                "db",
                "explain",
                "patients",
                "SELECT name FROM patients WHERE age = 9223372036854775000",
                "--rows-per-table",
                str(COLUMNAR_MIN_ROWS),
                "--execute",
                "--columnar",
                "on",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any("[vectorized]" in line for line in lines)
        steps = lines[lines.index("columnar trace:") + 1 :]
        assert steps[:2] == [
            "  scan: row (integer constant out of int64 range)",
            "  finish: vectorized",
        ]
        assert steps[2].startswith("columnar steps: 1 vectorized, 1 row")

    def test_explain_below_threshold(self):
        db = make_db()
        db.insert("t", {"a": 0, "b": "x", "c": 1.5, "d": 1})
        plan = explain(parse("SELECT a FROM t"), db)
        assert f"below threshold ({COLUMNAR_MIN_ROWS} rows)" in plan

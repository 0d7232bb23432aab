"""The executor session's result cache: one compact entry per result.

``ExecutorSession`` caches each result as its column labels plus one
tuple of values per row, and every call (miss or hit) builds fresh
dicts for only the first ``max_rows`` rows.  These tests pin that the
cache changes nothing a caller can see: cached and uncached execution
agree on values, labels and row order over every distinct query of the
Patients and Spider-substitute benchmark sets, and no mutation of a
returned row or list reaches a later result.  A ``tracemalloc`` check
pins the point of the representation: a large join's entry retains
well under what a list of row dicts would.

The cache keys on the printed SQL, and it remembers an
``ExecutionError`` under the text that raised it.  The failure-cache
tests pin that a replay raises a fresh error of the same class, message
and code without running the planner, and that text changes, inserts,
disabled caching and other exceptions all go through execution as
before.  No lookup, miss or replay canonicalizes anything.
"""

from __future__ import annotations

import gc
import sys
import threading
import traceback
import tracemalloc

import pytest

from repro.analysis.equivalence import _ConstantBinder
from repro.bench import build_patients_benchmark, spider_test_workload
from repro.db import planner, populate
from repro.db.planner import ExecutorSession, execute_planned
from repro.errors import ExecutionError, ReproError
from repro.runtime.postprocess import PostProcessor, _transform_query
from repro.schema import load_schema
from repro.sql import canonical
from repro.sql.canonical import canonical_sql
from repro.sql.parser import parse
from repro.sql.printer import to_sql

#: The serving benchmark's database sizes and seed.
ROWS = {"patients": 40}
SPIDER_ROWS = 200
DB_SEED = 3

#: A served flights answer: the aircraft model is not unique, so the
#: join fans out to 3,612 one-column rows at 200 rows per table.
FLIGHTS_JOIN = (
    "SELECT duration FROM aircraft, flight "
    "WHERE aircraft.aircraft_model = flight.aircraft_model "
    "AND aircraft.aircraft_model IN "
    "(SELECT aircraft_model FROM aircraft WHERE capacity <= 53)"
)


@pytest.fixture(scope="module")
def databases():
    names = ("patients", "flights", "automotive", "social", "geography")
    return {
        name: populate(load_schema(name), ROWS.get(name, SPIDER_ROWS), seed=DB_SEED)
        for name in names
    }


@pytest.fixture(scope="module")
def benchmark_queries(databases):
    """Every distinct benchmark SQL, ``@JOIN`` expanded and constants
    bound to values in the database, plus the large flights join."""
    items = list(build_patients_benchmark()) + list(spider_test_workload())
    queries, seen = [], set()
    for item in items:
        database = databases[item.schema_name]
        processed = PostProcessor(database.schema).process(to_sql(item.sql))
        assert processed is not None, to_sql(item.sql)
        query = _transform_query(processed.query, _ConstantBinder(database))
        key = (item.schema_name, to_sql(query))
        if key not in seen:
            seen.add(key)
            queries.append((item.schema_name, query))
    queries.append(("flights", parse(FLIGHTS_JOIN)))
    return queries


def _uncached(query, database):
    try:
        return execute_planned(query, database), None
    except ReproError as exc:
        return None, str(exc)


def _items(rows):
    """Row values *and* label order, row by row."""
    return [list(row.items()) for row in rows]


@pytest.mark.parametrize("max_rows", [None, 0, 1, 100])
def test_cached_equals_uncached_on_miss_and_hit(databases, benchmark_queries, max_rows):
    executed = 0
    for schema_name, query in benchmark_queries:
        database = databases[schema_name]
        expected, error = _uncached(query, database)
        session = ExecutorSession(database)
        if error is not None:
            for _attempt in ("miss", "hit"):
                with pytest.raises(ReproError) as info:
                    session.execute(query, max_rows=max_rows)
                assert str(info.value) == error
            continue
        miss = session.execute(query, max_rows=max_rows)
        misses, hits = session.cache_misses, session.cache_hits
        hit = session.execute(query, max_rows=max_rows)
        # A hit runs nothing, so nested subqueries count no new lookups.
        assert (session.cache_misses, session.cache_hits) == (misses, hits + 1)
        assert _items(miss) == _items(expected[:max_rows]), to_sql(query)
        assert _items(hit) == _items(expected[:max_rows]), to_sql(query)
        executed += 1
    # Most of the set executes; the rest must fail the same way cached.
    assert executed > 100
    assert len(benchmark_queries) > 140


@pytest.mark.parametrize(
    "sql",
    [
        FLIGHTS_JOIN,
        "SELECT * FROM aircraft ORDER BY range",
        "SELECT city, COUNT(*) FROM airport GROUP BY city",
    ],
)
def test_mutating_results_never_changes_a_later_result(databases, sql):
    query = parse(sql)
    database = databases["flights"]
    expected = _items(execute_planned(query, database))
    session = ExecutorSession(database)
    misses = None
    for max_rows in (None, 2, None, 2):  # a miss, then hits
        rows = session.execute(query, max_rows=max_rows)
        misses = session.cache_misses if misses is None else misses
        assert _items(rows) == expected[:max_rows]
        for row in rows:
            for label in list(row):
                row[label] = "mutated"
            row["extra"] = 1
        rows[0].clear()
        rows.append({"bogus": 1})
        rows.reverse()
    assert _items(session.execute(query)) == expected
    assert session.cache_misses == misses


def test_cached_join_retains_under_half_of_its_row_dicts(databases):
    database = databases["flights"]
    query = parse(FLIGHTS_JOIN)
    session = ExecutorSession(database)
    # Warm the database's views outside the measurement, through an
    # uncached session; only the cache entry is counted.
    ExecutorSession(database, cache_size=0).execute(query)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session.execute(query)
        gc.collect()
        cached = tracemalloc.get_traced_memory()[0] - base

        base = tracemalloc.get_traced_memory()[0]
        as_dicts = [dict(row) for row in session.execute(query)]
        gc.collect()
        dicts = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(as_dicts) == 3612
    assert cached < dicts / 2, (cached, dicts)


# ----------------------------------------------------------------------
# Remembered failures
# ----------------------------------------------------------------------


def _failure(run):
    with pytest.raises(ReproError) as info:
        run()
    return info.value


def _identity(error):
    return type(error), str(error), error.code


def _failing(databases, benchmark_queries):
    failing = []
    for schema_name, query in benchmark_queries:
        database = databases[schema_name]
        try:
            execute_planned(query, database)
        except ExecutionError as error:
            failing.append((database, query, _identity(error)))
    return failing


def test_a_repeated_failure_replays_without_running(
    databases, benchmark_queries, planner_runs
):
    failing = _failing(databases, benchmark_queries)
    assert len(failing) >= 10
    for database, query, expected in failing:
        session = ExecutorSession(database)
        first = _failure(lambda: session.execute(query))
        assert _identity(first) == expected, to_sql(query)
        entries = session.stats()["cache_size"]
        runs, hits, misses = len(planner_runs), session.cache_hits, session.cache_misses
        # The session runs every query unsliced, so no max_rows avoids it.
        for max_rows in (None, 0, 1, 100):
            replay = _failure(lambda: session.execute(query, max_rows=max_rows))
            assert _identity(replay) == expected, to_sql(query)
            assert replay is not first
        assert len(planner_runs) == runs, to_sql(query)
        assert (session.cache_hits, session.cache_misses) == (hits + 4, misses)
        assert session.stats()["cache_size"] == entries


def test_each_replay_raises_a_new_error_with_a_flat_traceback():
    database = populate(load_schema("patients"), 20, seed=DB_SEED)
    query = parse("SELECT name FROM patients WHERE age = @AGE")
    session = ExecutorSession(database)
    errors = [_failure(lambda: session.execute(query)) for _attempt in range(101)]
    assert session.cache_hits == 100
    assert len({id(error) for error in errors}) == len(errors)
    assert len({str(error) for error in errors}) == 1
    # The first raise unwinds from inside the planner; every replay
    # raises from the session, at one depth that does not grow.
    replays = {len(traceback.extract_tb(e.__traceback__)) for e in errors[1:]}
    assert len(replays) == 1
    assert all(error.__context__ is None for error in errors[1:])


def test_each_text_replays_its_own_failure(planner_runs):
    database = populate(load_schema("patients"), 20, seed=DB_SEED)
    age_first = parse("SELECT name FROM patients WHERE age = @AGE AND gender = @GENDER")
    gender_first = parse("SELECT name FROM patients WHERE gender = @GENDER AND age = @AGE")
    assert canonical_sql(age_first) == canonical_sql(gender_first)
    session = ExecutorSession(database)
    # The unresolved-placeholder message names the first placeholder,
    # so the two texts fail differently, each under its own key.
    assert "@AGE" in str(_failure(lambda: session.execute(age_first)))
    assert "@GENDER" in str(_failure(lambda: session.execute(gender_first)))
    assert "@GENDER" in str(_failure(lambda: session.execute(gender_first)))
    assert "@AGE" in str(_failure(lambda: session.execute(age_first)))
    assert planner_runs == [to_sql(age_first), to_sql(gender_first)]
    assert (session.cache_misses, session.cache_hits) == (2, 2)
    assert session.stats()["cache_size"] == 2


def test_no_lookup_miss_or_replay_canonicalizes(monkeypatch):
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(canonical, "normalize", counting(canonical.normalize))
    monkeypatch.setattr(planner, "canonical_sql", counting(planner.canonical_sql))
    database = populate(load_schema("patients"), 20, seed=DB_SEED)
    session = ExecutorSession(database)
    texts = (
        "SELECT name FROM patients WHERE age > 30",
        "SELECT name FROM patients WHERE 30 < age",
        "SELECT name FROM patients WHERE age = @AGE",
    )
    for _round in ("misses", "hits"):
        for sql in texts[:2]:
            session.execute(parse(sql))
        _failure(lambda: session.execute(parse(texts[2])))
    assert calls == []
    assert (session.cache_misses, session.cache_hits) == (3, 3)


def test_an_insert_forgets_a_failure():
    database = populate(load_schema("patients"), 20, seed=DB_SEED)
    # AVG over names fails whenever a row survives the constant filter.
    query = parse(
        "SELECT AVG(name) FROM patients "
        "WHERE NOT EXISTS (SELECT * FROM patients WHERE age = 999)"
    )
    session = ExecutorSession(database)
    for _attempt in ("miss", "hit"):
        assert "non-numeric" in str(_failure(lambda: session.execute(query)))
    row = dict(database.scan("patients")[0], patient_id=999, age=999)
    database.insert("patients", row)
    assert session.execute(query) == execute_planned(query, database)
    assert session.execute(query) == [{"AVG(name)": None}]


def test_disabled_caching_never_remembers_a_failure(planner_runs):
    database = populate(load_schema("patients"), 20, seed=DB_SEED)
    query = parse("SELECT name FROM patients WHERE age = @AGE")
    session = ExecutorSession(database, cache_size=0)
    messages = {str(_failure(lambda: session.execute(query))) for _attempt in range(3)}
    assert len(messages) == 1
    assert len(planner_runs) == 3
    assert session.stats()["cache_size"] == 0
    assert session.cache_hits == 0


def test_other_exceptions_are_not_remembered(monkeypatch):
    database = populate(load_schema("patients"), 20, seed=DB_SEED)
    query = parse("SELECT name FROM patients WHERE age = @AGE")
    calls = []

    def flaky(query, database, **kwargs):
        calls.append(query)
        if len(calls) == 1:
            raise RuntimeError("injected planner crash")
        return execute_planned(query, database, **kwargs)

    monkeypatch.setattr(planner, "execute_planned", flaky)
    session = ExecutorSession(database)
    with pytest.raises(RuntimeError):
        session.execute(query)
    assert session.stats()["cache_size"] == 0
    with pytest.raises(ExecutionError, match="@AGE"):
        session.execute(query)
    with pytest.raises(ExecutionError, match="@AGE"):
        session.execute(query)
    assert len(calls) == 2
    assert (session.cache_misses, session.cache_hits) == (2, 1)


def test_a_replay_keeps_the_error_code(monkeypatch):
    # No executor error carries a code today; the replay must keep one.
    database = populate(load_schema("patients"), 20, seed=DB_SEED)
    query = parse("SELECT name FROM patients")
    calls = []

    def coded(query, database, **kwargs):
        calls.append(query)
        raise ExecutionError("injected", "failure", code="E_INJECTED")

    monkeypatch.setattr(planner, "execute_planned", coded)
    session = ExecutorSession(database)
    errors = [_failure(lambda: session.execute(query)) for _attempt in range(3)]
    assert len(calls) == 1
    assert {(e.args, e.code) for e in errors} == {(("injected", "failure"), "E_INJECTED")}


def test_threads_replaying_one_failure_all_raise_it():
    database = populate(load_schema("patients"), 20, seed=DB_SEED)
    query = parse("SELECT name FROM patients WHERE age = @AGE")
    session = ExecutorSession(database)
    barrier = threading.Barrier(8)
    messages, lock = [], threading.Lock()

    def worker():
        barrier.wait(timeout=30)
        for _attempt in range(25):
            try:
                session.execute(query)
            except ExecutionError as error:
                with lock:
                    messages.append(str(error))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(messages) == 200
    assert set(messages) == {str(_failure(lambda: execute_planned(query, database)))}
    assert session.cache_hits + session.cache_misses == 200
    assert session.stats()["cache_size"] == 1

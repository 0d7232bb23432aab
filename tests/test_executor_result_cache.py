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
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.analysis.equivalence import _ConstantBinder
from repro.bench import build_patients_benchmark, spider_test_workload
from repro.db import populate
from repro.db.planner import ExecutorSession, execute_planned
from repro.errors import ReproError
from repro.runtime.postprocess import PostProcessor, _transform_query
from repro.schema import load_schema
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
            for _attempt in ("miss", "miss again"):
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
    # Warm the session's lazy equality indexes and the database's
    # views outside the measurement; only the cache entry is counted.
    session.execute(query, use_cache=False)
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

"""The query planner and optimized executor (repro.db.planner)."""

from __future__ import annotations

import pytest

from repro.db import populate
from repro.db.executor import MAX_CROSS_PRODUCT, execute
from repro.db.index import ValueIndex
from repro.db.planner import (
    ExecutorSession,
    build_plan,
    execute_planned,
    explain,
)
from repro.errors import ExecutionError
from repro.sql.canonical import canonical_sql
from repro.sql.parser import parse


@pytest.fixture(scope="module")
def retail_db():
    from repro.schema import load_schema

    return populate(load_schema("retail"), rows_per_table=40, seed=11)


# ----------------------------------------------------------------------
# Plan shapes
# ----------------------------------------------------------------------


def test_single_table_filter_is_pushed_into_scan(retail_db):
    plan = build_plan(parse("SELECT name FROM customer WHERE age > 30"), retail_db)
    assert plan.base.table == "customer"
    assert len(plan.base.filters) == 1
    assert not plan.joins and not plan.residual


def test_equality_literal_becomes_eq_lookup(retail_db):
    plan = build_plan(
        parse("SELECT name FROM customer WHERE age = 34 AND city = 'salem'"),
        retail_db,
    )
    assert set(plan.base.eq_lookups) == {("age", 34), ("city", "salem")}
    assert not plan.base.filters


def test_fk_conjunct_becomes_hash_join(retail_db):
    plan = build_plan(
        parse(
            "SELECT customer.name FROM customer, orders "
            "WHERE orders.customer_id = customer.customer_id"
        ),
        retail_db,
    )
    (join,) = plan.joins
    assert join.is_hash_join
    ((bound, new),) = join.keys
    assert bound.table == "customer" and new.table == "orders"
    assert not plan.residual


def test_three_table_star_joins_in_from_order(retail_db):
    plan = build_plan(
        parse(
            "SELECT customer.name FROM customer, product, orders "
            "WHERE orders.customer_id = customer.customer_id "
            "AND orders.product_id = product.product_id"
        ),
        retail_db,
    )
    assert [j.scan.table for j in plan.joins] == ["product", "orders"]
    # product has no join key to customer: guarded cross product, then
    # orders hash-joins against both bound tables at once.
    assert not plan.joins[0].is_hash_join
    assert len(plan.joins[1].keys) == 2


def test_pushdown_keeps_predicate_on_its_table(retail_db):
    plan = build_plan(
        parse(
            "SELECT customer.name FROM customer, orders "
            "WHERE orders.customer_id = customer.customer_id "
            "AND orders.quantity > 2"
        ),
        retail_db,
    )
    assert not plan.base.filters
    assert len(plan.joins[0].scan.filters) == 1


def test_subquery_predicate_stays_residual(retail_db):
    plan = build_plan(
        parse(
            "SELECT name FROM customer "
            "WHERE age > (SELECT AVG(age) FROM customer)"
        ),
        retail_db,
    )
    assert not plan.base.filters and not plan.base.eq_lookups
    assert len(plan.residual) == 1


def test_unknown_column_stays_residual_and_raises_like_naive(retail_db):
    query = parse("SELECT name FROM customer WHERE customer.missing = 1")
    plan = build_plan(query, retail_db)
    assert len(plan.residual) == 1
    with pytest.raises(ExecutionError, match="unknown column"):
        execute_planned(query, retail_db)
    with pytest.raises(ExecutionError, match="unknown column"):
        execute(query, retail_db)


def test_duplicate_from_table_falls_back_to_naive(retail_db):
    plan = build_plan(parse("SELECT name FROM customer, customer"), retail_db)
    assert plan.uses_naive_fallback
    assert "duplicate" in plan.fallback_reason


# ----------------------------------------------------------------------
# Execution equivalence
# ----------------------------------------------------------------------

EQUIV_SQL = (
    "SELECT name FROM customer WHERE age > 30 ORDER BY age DESC, name",
    "SELECT customer.name, orders.order_id FROM customer, orders "
    "WHERE orders.customer_id = customer.customer_id",
    "SELECT customer.name, product.product_name FROM customer, product, orders "
    "WHERE orders.customer_id = customer.customer_id "
    "AND orders.product_id = product.product_id AND product.price > 15",
    "SELECT customer.city, COUNT(*) FROM customer, orders "
    "WHERE orders.customer_id = customer.customer_id GROUP BY customer.city",
    "SELECT DISTINCT product.category FROM product, orders "
    "WHERE orders.product_id = product.product_id ORDER BY product.category",
    "SELECT name FROM customer WHERE age = 34",
    "SELECT COUNT(*) FROM orders WHERE quantity > 1 AND quantity < 5",
)


@pytest.mark.parametrize("sql", EQUIV_SQL)
def test_planned_matches_naive_bit_for_bit(retail_db, sql):
    query = parse(sql)
    assert execute_planned(query, retail_db) == execute(query, retail_db)


def test_planned_with_session_matches_naive(retail_db):
    session = ExecutorSession(retail_db)
    for sql in EQUIV_SQL:
        query = parse(sql)
        assert session.execute(query) == execute(query, retail_db)


def test_cross_product_guard_names_count_and_missing_join():
    from repro.schema import load_schema

    database = populate(load_schema("retail"), rows_per_table=160, seed=1)
    query = parse("SELECT customer.name FROM customer, product, orders")
    with pytest.raises(ExecutionError) as excinfo:
        execute_planned(query, database)
    message = str(excinfo.value)
    assert f"limit {MAX_CROSS_PRODUCT:,}" in message
    assert "estimated" in message
    assert "add a join predicate" in message
    assert "orders.customer_id = customer.customer_id" in message


def test_planner_survives_where_cross_product_guard_trips():
    """The planned arm's reason to exist: a join query whose raw cross
    product trips the naive guard executes fine through hash joins."""
    from repro.schema import load_schema

    database = populate(load_schema("retail"), rows_per_table=160, seed=1)
    query = parse(
        "SELECT customer.name FROM customer, product, orders "
        "WHERE orders.customer_id = customer.customer_id "
        "AND orders.product_id = product.product_id"
    )
    with pytest.raises(ExecutionError):
        execute(query, database)  # 160^3 > MAX_CROSS_PRODUCT
    rows = execute_planned(query, database)
    assert len(rows) == database.row_count("orders")


# ----------------------------------------------------------------------
# Sessions: cache, indexes, value-index pruning
# ----------------------------------------------------------------------


def test_session_cache_keys_on_printed_sql(retail_db):
    session = ExecutorSession(retail_db)
    texts = (
        "SELECT name FROM customer WHERE age = 34",
        # Same canonical SQL, different text: a second entry.
        "SELECT name FROM customer WHERE 34 = age",
    )
    first, second = (session.execute(parse(sql)) for sql in texts)
    assert first == second
    assert (session.cache_misses, session.cache_hits) == (2, 0)
    for sql, expected in zip(texts, (first, second)):
        assert session.execute(parse(sql)) == expected
    assert (session.cache_misses, session.cache_hits) == (2, 2)
    assert list(session._cache) == list(texts)


def test_session_cache_returns_fresh_copies(retail_db):
    session = ExecutorSession(retail_db)
    query = parse("SELECT name FROM customer LIMIT 1")
    first = session.execute(query)
    first[0]["name"] = "mutated"
    assert session.execute(query)[0]["name"] != "mutated"


def test_session_cache_invalidated_by_insert(retail):
    database = populate(retail, rows_per_table=10, seed=2)
    session = ExecutorSession(database)
    query = parse("SELECT COUNT(*) FROM customer")
    before = session.execute(query)
    database.insert(
        "customer",
        {"customer_id": 9999, "name": "new", "city": "salem", "age": 1},
    )
    after = session.execute(query)
    assert next(iter(after[0].values())) == next(iter(before[0].values())) + 1
    assert session.cache_hits == 0 and session.cache_misses == 2


def test_session_cache_is_bounded(retail_db):
    session = ExecutorSession(retail_db, cache_size=2)
    for age in (20, 30, 40, 50):
        session.execute(parse(f"SELECT name FROM customer WHERE age = {age}"))
    assert len(session._cache) == 2


@pytest.mark.parametrize(
    "first, second",
    [
        (
            "SELECT patients.name, patients.age FROM patients WHERE patients.age > 30",
            "SELECT name, age FROM patients WHERE 30 < age",
        ),
        ("SELECT AVG(patients.age) FROM patients", "SELECT AVG(age) FROM patients"),
    ],
)
def test_session_cache_hit_keeps_the_querys_own_labels(patients_db, first, second):
    session = ExecutorSession(patients_db)
    for sql in (first, second):
        query = parse(sql)
        assert session.execute(query) == execute(query, patients_db)


def _ordered(rows):
    """Rows with their column order, which dict equality ignores."""
    return [list(row.items()) for row in rows]


def test_canonical_equivalents_keep_their_own_labels_and_from_order(retail_db):
    pairs = [
        (
            "SELECT * FROM customer, orders "
            "WHERE customer.customer_id = orders.customer_id",
            "SELECT * FROM orders, customer "
            "WHERE orders.customer_id = customer.customer_id",
        ),
        (
            "SELECT customer.name, customer.age FROM customer WHERE customer.age > 30",
            "SELECT name, age FROM customer WHERE 30 < age",
        ),
    ]
    session = ExecutorSession(retail_db)
    for first, second in pairs:
        assert canonical_sql(parse(first)) == canonical_sql(parse(second))
        # The second round hits each text's own entry.
        for sql in (first, second, first, second):
            query = parse(sql)
            assert _ordered(session.execute(query)) == _ordered(
                execute(query, retail_db)
            )


def test_canonical_memo_keys_int_and_float_literals_apart(patients_db):
    session = ExecutorSession(patients_db)
    texts = (
        "SELECT name FROM patients WHERE age = 5",
        "SELECT name FROM patients WHERE age = 5.0",
    )
    assert parse(texts[0]) == parse(texts[1])  # AST equality cannot tell
    for sql in texts:
        session.execute(parse(sql))
    assert list(session._cache) == list(texts)


def test_session_cache_is_thread_safe(retail_db):
    import sys
    import threading

    # Each thread repeats its own query: hits on one thread race the
    # evictions the other threads' stores cause in a one-entry cache.
    queries = [
        parse(f"SELECT name FROM customer WHERE age > {age}") for age in range(20, 60, 5)
    ]
    expected = [execute(query, retail_db) for query in queries]
    session = ExecutorSession(retail_db, cache_size=1)
    errors: list[Exception] = []

    def worker(index: int) -> None:
        try:
            for _ in range(40):
                assert session.execute(queries[index]) == expected[index]
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert session.cache_hits + session.cache_misses == 8 * 40


def test_value_index_prunes_impossible_constant(retail_db):
    index = ValueIndex(retail_db)
    session = ExecutorSession(retail_db, value_index=index)
    query = parse("SELECT name FROM customer WHERE city = 'xyzzy-nowhere'")
    assert session.execute(query) == execute(query, retail_db) == []


def test_value_index_does_not_prune_present_constant(retail_db):
    city = retail_db.column_values("customer", "city")[0]
    index = ValueIndex(retail_db)
    session = ExecutorSession(retail_db, value_index=index)
    query = parse(f"SELECT name FROM customer WHERE city = '{city}'")
    rows = session.execute(query)
    assert rows == execute(query, retail_db)
    assert rows  # the constant exists, so pruning must not fire


def test_session_records_stage_timings(retail_db):
    session = ExecutorSession(retail_db)
    session.execute(
        parse(
            "SELECT customer.city, COUNT(*) FROM customer, orders "
            "WHERE orders.customer_id = customer.customer_id "
            "GROUP BY customer.city ORDER BY customer.city"
        )
    )
    stages = session.stats()["stages"]
    assert {"scan", "join", "group", "sort"} <= set(stages)


# ----------------------------------------------------------------------
# ORDER BY type safety (satellite: no bare TypeError out of sort)
# ----------------------------------------------------------------------


def test_order_by_mixed_types_raises_execution_error():
    # Storage coerces column types, so mixed-type sort keys can only
    # come from upstream bugs or hand-built rows; the sorter must fail
    # with a named ExecutionError, not a bare TypeError off list.sort.
    from repro.db.executor import _order_rows

    query = parse("SELECT name FROM customer ORDER BY age")
    rows = [
        {"name": "a", "__order__age": 7},
        {"name": "b", "__order__age": "old"},
    ]
    with pytest.raises(ExecutionError, match="ORDER BY key 'age'"):
        _order_rows(rows, query)


def test_order_by_desc_mixed_types_raises_execution_error():
    from repro.db.executor import _order_rows

    query = parse("SELECT name FROM customer ORDER BY age DESC")
    rows = [
        {"name": "a", "__order__age": "old"},
        {"name": "b", "__order__age": 7},
    ]
    with pytest.raises(ExecutionError, match="ORDER BY key 'age'"):
        _order_rows(rows, query)


def test_order_by_nulls_sort_last_and_stably(retail):
    database = populate(retail, rows_per_table=6, seed=4)
    database.insert(
        "customer", {"customer_id": 888, "name": "n", "city": "salem", "age": None}
    )
    query = parse("SELECT name, age FROM customer ORDER BY age")
    rows = execute_planned(query, database)
    assert rows == execute(query, database)
    assert rows[-1]["age"] is None


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------


def test_explain_renders_plan_operators(retail_db):
    text = explain(
        parse(
            "SELECT customer.city, COUNT(*) FROM customer, orders "
            "WHERE orders.customer_id = customer.customer_id "
            "AND orders.quantity > 2 AND customer.city = 'salem' "
            "GROUP BY customer.city ORDER BY customer.city LIMIT 5"
        ),
        retail_db,
    )
    assert "plan for:" in text
    assert "scan customer" in text
    assert "index eq customer.city = 'salem'" in text
    assert "hash join" in text
    assert "orders.quantity > 2" in text
    assert "hash group by" in text
    assert "sort by" in text
    assert "limit 5" in text


def test_explain_shows_naive_fallback(retail_db):
    text = explain(parse("SELECT name FROM customer, customer"), retail_db)
    assert "naive cross-product execution" in text


def test_explain_marks_guarded_cross_product(retail_db):
    text = explain(parse("SELECT customer.name FROM customer, product"), retail_db)
    assert "cross product" in text and "guarded" in text


# ----------------------------------------------------------------------
# CLI: repro db explain
# ----------------------------------------------------------------------


def test_cli_db_explain(capsys):
    from repro.cli import main

    exit_code = main(
        [
            "db",
            "explain",
            "retail",
            "SELECT customer.name, orders.order_id FROM @JOIN "
            "WHERE orders.quantity > 1",
            "--rows-per-table",
            "12",
            "--execute",
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "hash join" in out
    assert "row(s)" in out
    assert "executor perf" in out


def test_cli_db_explain_rejects_bad_sql(capsys):
    from repro.cli import main

    exit_code = main(["db", "explain", "retail", "SELEC nonsense"])
    assert exit_code == 1
    assert "error" in capsys.readouterr().err

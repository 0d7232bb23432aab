"""Executor planning benchmark — writes ``BENCH_executor.json``.

Measures the planned executor (:mod:`repro.db.planner`: predicate
pushdown + hash joins + session result cache) against the naive
reference executor (:mod:`repro.db.executor`: filtered cross product)
in three arms over identical workloads:

* ``naive``          — :func:`repro.db.executor.execute` per query;
* ``planned``        — :func:`repro.db.planner.execute_planned`, fresh
  planning each call, no session state;
* ``planned_cached`` — one :class:`repro.db.planner.ExecutorSession`
  for the whole workload: lazy per-column equality indexes plus the
  bounded LRU result cache keyed on the printed SQL (the eval-harness
  shape, where every gold query repeats across a report).

Two workloads, each repeated ``repeats`` times:

* ``single_table`` — selective filters, aggregates, ORDER BY over one
  table (pushdown + eq-index probes);
* ``join_heavy``   — 2- and 3-table FK joins whose naive cross product
  sits just under the ``MAX_CROSS_PRODUCT`` guard (hash joins).

Every arm's results are property-checked bit-identical (row values
*and* row order) against the naive arm before timings are reported;
the record carries an ``identical`` flag per workload.  The acceptance
bar (ISSUE 3): planned ≥ 5× naive on the join-heavy workload.

Usage::

    PYTHONPATH=src python benchmarks/run_executor.py [--smoke]
        [--rows-single 400] [--rows-join 100] [--repeats 3]
        [--output BENCH_executor.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.db import Database, ExecutorSession, execute, execute_planned, populate
from repro.schema import load_schema
from repro.sql.parser import parse

SEED = 11

#: Single-table workload (retail): ``{...}`` slots are filled with
#: constants drawn from the populated database so filters actually hit.
SINGLE_TABLE_SQL = (
    "SELECT name FROM customer WHERE city = '{city}'",
    "SELECT name, age FROM customer WHERE age = {age}",
    "SELECT product_name FROM product WHERE category = '{category}' AND price > 10",
    "SELECT COUNT(*) FROM orders WHERE quantity = {quantity}",
    "SELECT category, AVG(price) FROM product GROUP BY category",
    "SELECT DISTINCT city FROM customer ORDER BY city",
    "SELECT name FROM customer WHERE age > 30 ORDER BY age DESC LIMIT 10",
)

#: Join-heavy workload (retail star schema): FK equi-joins the planner
#: turns into hash joins; the naive arm pays the full cross product.
JOIN_HEAVY_SQL = (
    "SELECT customer.name, orders.order_id FROM customer, orders "
    "WHERE orders.customer_id = customer.customer_id",
    "SELECT customer.name, product.product_name "
    "FROM customer, product, orders "
    "WHERE orders.customer_id = customer.customer_id "
    "AND orders.product_id = product.product_id",
    "SELECT customer.city, COUNT(*) FROM customer, product, orders "
    "WHERE orders.customer_id = customer.customer_id "
    "AND orders.product_id = product.product_id "
    "AND product.price > 20 GROUP BY customer.city",
    "SELECT product.category, SUM(orders.quantity) "
    "FROM product, orders "
    "WHERE orders.product_id = product.product_id "
    "GROUP BY product.category ORDER BY product.category",
    "SELECT customer.name, product.product_name "
    "FROM customer, product, orders "
    "WHERE orders.customer_id = customer.customer_id "
    "AND orders.product_id = product.product_id "
    "AND customer.city = '{city}' ORDER BY customer.name LIMIT 25",
)


def _fill(template: str, database: Database) -> str:
    """Substitute ``{slot}`` markers with constants present in the DB."""
    if "{" not in template:
        return template
    cities = sorted(set(database.column_values("customer", "city")))
    ages = sorted(set(database.column_values("customer", "age")))
    categories = sorted(set(database.column_values("product", "category")))
    quantities = sorted(set(database.column_values("orders", "quantity")))
    return template.format(
        city=cities[len(cities) // 2],
        age=ages[len(ages) // 2],
        category=categories[0],
        quantity=quantities[0],
    )


def build_workload(templates, database: Database, repeats: int):
    """(queries, distinct) — the repeated list every arm executes."""
    distinct = [parse(_fill(t, database)) for t in templates]
    return distinct * repeats, distinct


def check_identical(distinct, database: Database) -> bool:
    """Property check: planned ≡ naive row-for-row on every query."""
    session = ExecutorSession(database)
    for query in distinct:
        naive_rows = execute(query, database)
        planned_rows = execute_planned(query, database)
        cached_rows = session.execute(query)
        if planned_rows != naive_rows or cached_rows != naive_rows:
            return False
    return True


def time_arm(run, queries) -> dict:
    rows_seen = 0
    start = time.perf_counter()
    for query in queries:
        rows_seen += len(run(query))
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 4),
        "queries": len(queries),
        "rows": rows_seen,
        "qps": round(len(queries) / seconds, 1) if seconds > 0 else 0.0,
    }


def run_workload(name, templates, database: Database, repeats: int) -> dict:
    queries, distinct = build_workload(templates, database, repeats)
    identical = check_identical(distinct, database)

    # One untimed pass per arm warms scan views and code paths so a
    # single cold call cannot dominate a sub-millisecond workload.
    for query in distinct:
        execute(query, database)
        execute_planned(query, database)

    naive = time_arm(lambda q: execute(q, database), queries)
    planned = time_arm(lambda q: execute_planned(q, database), queries)
    session = ExecutorSession(database)
    cached = time_arm(lambda q: session.execute(q), queries)
    cached["cache_hits"] = session.cache_hits
    cached["cache_misses"] = session.cache_misses

    def ratio(a: float, b: float) -> float:
        return round(a / b, 2) if b > 0 else 0.0

    return {
        "workload": name,
        "distinct_queries": len(distinct),
        "repeats": repeats,
        "identical": identical,
        "arms": {"naive": naive, "planned": planned, "planned_cached": cached},
        "speedups": {
            "planned_vs_naive": ratio(naive["seconds"], planned["seconds"]),
            "cached_vs_naive": ratio(naive["seconds"], cached["seconds"]),
        },
        "stages": session.recorder.report(),
    }


def run_benchmark(
    rows_single: int = 400, rows_join: int = 100, repeats: int = 3
) -> dict:
    schema = load_schema("retail")
    single_db = populate(schema, rows_per_table=rows_single, seed=SEED)
    join_db = populate(schema, rows_per_table=rows_join, seed=SEED)

    # Single-table queries finish in microseconds; run many more passes
    # than the (expensive) join workload so the timings are stable.
    single = run_workload(
        "single_table", SINGLE_TABLE_SQL, single_db, repeats * 10
    )
    join = run_workload("join_heavy", JOIN_HEAVY_SQL, join_db, repeats)

    return {
        "benchmark": "executor_planning",
        "schema": schema.name,
        "rows_single": rows_single,
        "rows_join": rows_join,
        "repeats": repeats,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "identical": single["identical"] and join["identical"],
        "workloads": {"single_table": single, "join_heavy": join},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows-single", type=int, default=400)
    parser.add_argument("--rows-join", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run wired into the test suite so this script cannot rot",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_executor.json"),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows_single = min(args.rows_single, 60)
        args.rows_join = min(args.rows_join, 20)
        args.repeats = min(args.repeats, 2)
    record = run_benchmark(
        rows_single=args.rows_single,
        rows_join=args.rows_join,
        repeats=args.repeats,
    )
    output = Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    for name, workload in record["workloads"].items():
        arms = workload["arms"]
        print(
            f"  {name:<13} naive {arms['naive']['seconds']:>8.3f}s  "
            f"planned {arms['planned']['seconds']:>8.3f}s  "
            f"cached {arms['planned_cached']['seconds']:>8.3f}s  "
            f"identical={workload['identical']}"
        )
        for label, value in workload["speedups"].items():
            print(f"    speedup {label:<18} {value:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

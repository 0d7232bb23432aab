"""Query planning and the optimized executor.

The naive executor (:mod:`repro.db.executor`) materializes the full
cross product of the FROM tables and filters it with WHERE — fine for
one table, quadratic-or-worse for the join-shaped queries the
post-processor's ``@JOIN`` expansion makes common.  This module plans
before it executes:

* **conjunct split** — the WHERE clause is flattened into its top-level
  AND conjuncts;
* **predicate pushdown** — conjuncts touching exactly one table are
  evaluated inside that table's scan, before any join; equality
  conjuncts against constants probe a per-column hash index (built
  lazily by the :class:`ExecutorSession`) and are pre-screened against
  a :class:`~repro.db.index.ValueIndex` when one is available;
* **hash joins** — ``a.x = b.y`` conjuncts across tables become hash
  joins, executed in FROM order (build on the incoming table, probe
  with the rows joined so far), so the surviving combinations are
  enumerated in exactly the order the naive cross product would have
  produced them;
* **guarded fallback** — tables with no join conjunct to the rows
  bound so far extend via a cross product, guarded by
  ``MAX_CROSS_PRODUCT`` with an error that names the estimated row
  count and proposes the missing FK join predicate.

Everything after the join funnels through the executor's
:func:`~repro.db.executor.finish_rows`, so grouping / DISTINCT /
ordering / LIMIT cannot diverge between the two arms; the differential
suite (``tests/test_db_executor_diff.py``) property-checks row-for-row
identity over the seed corpus and randomized databases.

:class:`ExecutorSession` adds the serving-scale conveniences on top:
lazily built per-column equality indexes, a bounded LRU result cache
keyed on the printed SQL (the eval harness executes each distinct gold
query once per report), and :class:`~repro.perf.PerfRecorder` stage
timings for scan / join / filter / group / sort.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Sequence

from repro.db.executor import (
    MAX_CROSS_PRODUCT,
    cross_product_error,
    execute,
    finish_rows,
    make_subquery_resolver,
    validate_query,
)
from repro.db.expressions import JoinedRow, evaluate_predicate
from repro.db.index import ValueIndex
from repro.db.storage import Database, Row, rows_from_values
from repro.db.vectorized import (
    COLUMNAR_MIN_ROWS,
    ColumnarTrace,
    NotVectorizable,
    execute_columnar,
    probe_finish,
    probe_join,
    probe_scan,
    should_use_columnar,
)
from repro.db.vectorized import available as columnar_available
from repro.errors import ExecutionError
from repro.perf.instrumentation import PerfRecorder
from repro.sql.ast import (
    And,
    Between,
    ColumnRef,
    CompOp,
    Comparison,
    Exists,
    InPredicate,
    Like,
    Literal,
    Not,
    Or,
    Predicate,
    Query,
    conjuncts,
)
from repro.sql.canonical import canonical_sql
from repro.sql.printer import predicate_to_sql, to_sql


# ----------------------------------------------------------------------
# Plan shapes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScanStep:
    """One table scan with its pushed-down predicates.

    ``eq_lookups`` are ``column = constant`` conjuncts usable as hash
    probes; ``filters`` are the remaining single-table conjuncts,
    evaluated per row during the scan.
    """

    table: str
    eq_lookups: tuple[tuple[str, Any], ...] = ()
    filters: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class JoinStep:
    """Bind one more table to the rows joined so far.

    ``keys`` pairs (bound-side ref, new-side ref) for each equi-join
    conjunct consumed by this step; an empty ``keys`` means there is no
    join predicate and the step degrades to a guarded cross product.
    """

    scan: ScanStep
    keys: tuple[tuple[ColumnRef, ColumnRef], ...] = ()

    @property
    def is_hash_join(self) -> bool:
        return bool(self.keys)


@dataclass(frozen=True)
class QueryPlan:
    """The full plan: base scan, join steps, leftover predicates."""

    query: Query
    base: ScanStep | None  # None => execute naively (see fallback_reason)
    joins: tuple[JoinStep, ...] = ()
    residual: tuple[Predicate, ...] = ()  # multi-table / subquery conjuncts
    constants: tuple[Predicate, ...] = ()  # row-independent conjuncts
    fallback_reason: str = ""

    @property
    def uses_naive_fallback(self) -> bool:
        return self.base is None


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def build_plan(query: Query, database: Database) -> QueryPlan:
    """Plan ``query`` against ``database``'s schema (no rows touched)."""
    validate_query(query, database)
    from_tables = query.from_tables
    if len(set(from_tables)) != len(from_tables):
        # The naive path collapses duplicate FROM entries through its
        # dict(zip(...)); planning that faithfully is not worth it.
        return QueryPlan(
            query=query, base=None, fallback_reason="duplicate table in FROM"
        )

    columns_by_table = {
        t: set(database.schema.table(t).column_names) for t in from_tables
    }

    pushed: dict[str, list[Predicate]] = {t: [] for t in from_tables}
    eq_lookups: dict[str, list[tuple[str, Any]]] = {t: [] for t in from_tables}
    join_conjuncts: list[tuple[ColumnRef, ColumnRef]] = []  # qualified refs
    residual: list[Predicate] = []
    constants: list[Predicate] = []

    for pred in conjuncts(query.where):
        join_pair = _as_equi_join(pred, from_tables, columns_by_table)
        if join_pair is not None:
            join_conjuncts.append(join_pair)
            continue
        tables = _predicate_tables(pred, from_tables, columns_by_table)
        if tables is None:
            residual.append(pred)
        elif len(tables) == 1:
            table = next(iter(tables))
            lookup = _as_eq_lookup(pred, table, from_tables, columns_by_table)
            if lookup is not None:
                eq_lookups[table].append(lookup)
            else:
                pushed[table].append(pred)
        elif not tables:
            constants.append(pred)
        else:
            residual.append(pred)

    def scan_for(table: str) -> ScanStep:
        return ScanStep(
            table=table,
            eq_lookups=tuple(eq_lookups[table]),
            filters=tuple(pushed[table]),
        )

    base = scan_for(from_tables[0])
    joins: list[JoinStep] = []
    bound = {from_tables[0]}
    for table in from_tables[1:]:
        keys: list[tuple[ColumnRef, ColumnRef]] = []
        for left, right in join_conjuncts:
            if left.table == table and right.table in bound:
                keys.append((right, left))
            elif right.table == table and left.table in bound:
                keys.append((left, right))
        joins.append(JoinStep(scan=scan_for(table), keys=tuple(keys)))
        bound.add(table)

    return QueryPlan(
        query=query,
        base=base,
        joins=tuple(joins),
        residual=tuple(residual),
        constants=tuple(constants),
    )


def _resolve_table(
    ref: ColumnRef,
    from_tables: Sequence[str],
    columns_by_table: dict[str, set[str]],
) -> str | None:
    """The single FROM table ``ref`` resolves to, or None if it cannot
    be resolved statically (unknown / ambiguous — left to the runtime
    evaluator, which raises the same errors the naive path would)."""
    if ref.table is not None:
        columns = columns_by_table.get(ref.table)
        if columns is None or ref.column not in columns:
            return None  # unknown table/column: runtime raises, as naive does
        return ref.table
    candidates = [t for t in from_tables if ref.column in columns_by_table[t]]
    return candidates[0] if len(candidates) == 1 else None


def _operand_tables(
    operand,
    from_tables: Sequence[str],
    columns_by_table: dict[str, set[str]],
) -> set[str] | None:
    """Tables an operand touches; None marks it unpushable (subqueries,
    placeholders, unresolvable refs, aggregates in WHERE)."""
    if isinstance(operand, Literal):
        return set()
    if isinstance(operand, ColumnRef):
        table = _resolve_table(operand, from_tables, columns_by_table)
        return None if table is None else {table}
    # Subquery / Placeholder / Aggregate: never pushed down.
    return None


def _predicate_tables(
    pred: Predicate,
    from_tables: Sequence[str],
    columns_by_table: dict[str, set[str]],
) -> set[str] | None:
    """Union of tables a predicate touches, or None if unpushable."""

    def merge(parts) -> set[str] | None:
        union: set[str] = set()
        for part in parts:
            if part is None:
                return None
            union |= part
        return union

    def operand(op):
        return _operand_tables(op, from_tables, columns_by_table)

    if isinstance(pred, Comparison):
        return merge([operand(pred.left), operand(pred.right)])
    if isinstance(pred, Between):
        return merge([operand(pred.column), operand(pred.low), operand(pred.high)])
    if isinstance(pred, InPredicate):
        if pred.subquery is not None:
            return None
        return merge([operand(pred.column)] + [operand(v) for v in pred.values])
    if isinstance(pred, Like):
        return merge([operand(pred.column), operand(pred.pattern)])
    if isinstance(pred, Exists):
        return None
    if isinstance(pred, Not):
        return _predicate_tables(pred.operand, from_tables, columns_by_table)
    if isinstance(pred, (And, Or)):
        return merge(
            _predicate_tables(p, from_tables, columns_by_table)
            for p in pred.operands
        )
    return None


def _as_equi_join(
    pred: Predicate,
    from_tables: Sequence[str],
    columns_by_table: dict[str, set[str]],
) -> tuple[ColumnRef, ColumnRef] | None:
    """``a.x = b.y`` across two distinct FROM tables, refs qualified."""
    if not (
        isinstance(pred, Comparison)
        and pred.op is CompOp.EQ
        and isinstance(pred.left, ColumnRef)
        and isinstance(pred.right, ColumnRef)
    ):
        return None
    left_table = _resolve_table(pred.left, from_tables, columns_by_table)
    right_table = _resolve_table(pred.right, from_tables, columns_by_table)
    if left_table is None or right_table is None or left_table == right_table:
        return None
    return (
        ColumnRef(pred.left.column, left_table),
        ColumnRef(pred.right.column, right_table),
    )


def _as_eq_lookup(
    pred: Predicate,
    table: str,
    from_tables: Sequence[str],
    columns_by_table: dict[str, set[str]],
) -> tuple[str, Any] | None:
    """``col = literal`` on one table → (column, constant) hash probe."""
    if not (isinstance(pred, Comparison) and pred.op is CompOp.EQ):
        return None
    for ref_side, const_side in ((pred.left, pred.right), (pred.right, pred.left)):
        if isinstance(ref_side, ColumnRef) and isinstance(const_side, Literal):
            resolved = _resolve_table(ref_side, from_tables, columns_by_table)
            if resolved == table:
                return (ref_side.column, const_side.value)
    return None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def execute_planned(
    query: Query,
    database: Database,
    max_rows: int | None = None,
    session: "ExecutorSession | None" = None,
    recorder: PerfRecorder | None = None,
    columnar: bool | None = None,
) -> list[Row]:
    """Execute ``query`` through the planner.

    Bit-identical to :func:`repro.db.executor.execute` (row values *and*
    row order) on every query both can run; additionally runs queries
    whose filtered/joined intermediate fits even when the raw cross
    product would trip the naive guard.

    ``columnar`` selects the execution arm per query: ``None`` (auto)
    engages the vectorized columnar kernels when the largest planned
    table reaches :data:`~repro.db.vectorized.COLUMNAR_MIN_ROWS`,
    ``True`` forces them, ``False`` disables them.  The columnar arm is
    bit-identical by construction — any step it cannot vectorize falls
    back to the row code over the same intermediate — so the choice is
    purely a performance knob.  Unset, it inherits the session's
    ``columnar`` setting when a session is given.
    """
    if recorder is None and session is not None:
        recorder = session.recorder
    if columnar is None and session is not None:
        columnar = session.columnar
    plan = build_plan(query, database)
    if plan.uses_naive_fallback:
        return execute(query, database, max_rows=max_rows)

    if session is not None:
        exec_fn = lambda q, _db: session.execute(q)  # noqa: E731 - cached
    else:
        exec_fn = lambda q, db: execute_planned(q, db, recorder=recorder)  # noqa: E731
    subquery_values = make_subquery_resolver(database, exec_fn)

    def stage(name: str):
        return recorder.stage(name) if recorder is not None else nullcontext()

    # Row-independent conjuncts: one evaluation decides everything.
    if any(
        not evaluate_predicate(pred, {}, subquery_values)
        for pred in plan.constants
    ):
        return finish_rows(query, [], subquery_values, max_rows=max_rows,
                           recorder=recorder)

    if should_use_columnar(plan, database, columnar):
        trace = ColumnarTrace()
        try:
            result = execute_columnar(
                plan, database, session, subquery_values, recorder,
                max_rows, trace,
            )
        except NotVectorizable as exc:
            # Defensive: the columnar arm falls back per step, so this
            # should not escape — but if it does, run the row arm.
            trace.record("plan", "row", exc.reason)
            if session is not None:
                session.note_columnar(trace)
        else:
            if session is not None:
                session.note_columnar(trace)
            return result

    with stage("scan") as scan_stats:
        base_rows = _run_scan(plan.base, database, session, subquery_values)
        if scan_stats is not None:
            scan_stats.items += len(base_rows)
    joined: list[JoinedRow] = [{plan.base.table: row} for row in base_rows]

    for step in plan.joins:
        with stage("scan") as scan_stats:
            rows = _run_scan(step.scan, database, session, subquery_values)
            if scan_stats is not None:
                scan_stats.items += len(rows)
        with stage("join") as join_stats:
            if step.is_hash_join:
                joined = _hash_join(joined, rows, step)
            else:
                estimated = len(joined) * len(rows)
                if estimated > MAX_CROSS_PRODUCT:
                    bound_tables = [t for jr in joined[:1] for t in jr]
                    raise cross_product_error(
                        bound_tables + [step.scan.table],
                        estimated,
                        database.schema,
                    )
                table = step.scan.table
                joined = [
                    {**jr, table: row} for jr in joined for row in rows
                ]
            if join_stats is not None:
                join_stats.items += len(joined)

    if plan.residual:
        with stage("filter"):
            joined = [
                jr
                for jr in joined
                if all(
                    evaluate_predicate(pred, jr, subquery_values)
                    for pred in plan.residual
                )
            ]

    return finish_rows(
        query, joined, subquery_values, max_rows=max_rows, recorder=recorder
    )


def _run_scan(
    scan: ScanStep,
    database: Database,
    session: "ExecutorSession | None",
    subquery_values,
) -> list[Row]:
    """Rows of one table with pushed-down predicates applied, in
    storage order (order preservation keeps the two arms identical)."""
    rows: Sequence[Row]
    if scan.eq_lookups:
        column, constant = scan.eq_lookups[0]
        if session is not None:
            if not session.value_index_admits(scan.table, column, constant):
                return []
            rows = session.probe(scan.table, column, constant)
        else:
            rows = [
                row
                for row in database.scan(scan.table)
                if _eq_matches(row[column], constant)
            ]
        for column, constant in scan.eq_lookups[1:]:
            rows = [row for row in rows if _eq_matches(row[column], constant)]
    else:
        rows = database.scan(scan.table)

    if scan.filters:
        table = scan.table
        rows = [
            row
            for row in rows
            if all(
                evaluate_predicate(pred, {table: row}, subquery_values)
                for pred in scan.filters
            )
        ]
    return list(rows)


def _eq_matches(value: Any, constant: Any) -> bool:
    """SQL equality against a non-null constant (NULL never matches).

    Python ``==`` agrees with the executor's ``compare`` here: literal
    constants are always int/float/str, cross-kind (str vs numeric)
    comparisons are False both ways, and bools cannot be stored.
    """
    return value is not None and value == constant


def _hash_join(
    joined: list[JoinedRow], rows: Sequence[Row], step: JoinStep
) -> list[JoinedRow]:
    """Build a hash table on the incoming table, probe with ``joined``.

    Buckets keep storage order and the probe loop keeps ``joined``
    order, so the output enumerates surviving combinations exactly as
    the filtered cross product would.
    """
    table = step.scan.table
    new_cols = tuple(new_ref.column for _bound, new_ref in step.keys)
    bound_refs = tuple(bound for bound, _new in step.keys)

    buckets: dict[tuple, list[Row]] = {}
    for row in rows:
        key = tuple(row[c] for c in new_cols)
        if any(v is None for v in key):
            continue  # NULL join keys never match
        buckets.setdefault(key, []).append(row)

    output: list[JoinedRow] = []
    for jr in joined:
        probe = tuple(jr[ref.table][ref.column] for ref in bound_refs)
        if any(v is None for v in probe):
            continue
        bucket = buckets.get(probe)
        if bucket:
            output.extend({**jr, table: row} for row in bucket)
    return output


# ----------------------------------------------------------------------
# Sessions: indexes, result cache, stage timings
# ----------------------------------------------------------------------


class _CachedResult:
    """One cached result: its column labels and a tuple of values per row.

    A 3,612-row one-column join costs a 1-tuple and a list slot per row
    instead of a dict per row.  Every planner row of one result has the
    same keys in the same order (the projection builds them from the
    query alone), so the first row's keys label them all.
    """

    __slots__ = ("labels", "values")

    def __init__(self, labels: tuple[str, ...], values: list[tuple]) -> None:
        self.labels = labels
        self.values = values

    @classmethod
    def pack(cls, rows: list[Row]) -> "_CachedResult":
        labels = tuple(rows[0]) if rows else ()
        return cls(labels, [tuple(row.values()) for row in rows])

    def rows(self, max_rows: int | None) -> list[Row]:
        """Fresh dicts for the first ``max_rows`` rows (all when None)."""
        return rows_from_values(self.labels, self.values[:max_rows])


class _CachedFailure:
    """One remembered :class:`~repro.errors.ExecutionError`.

    Holds what a fresh copy of the error needs: its class, ``args`` and
    ``code``.  :meth:`rows` stands in for :meth:`_CachedResult.rows` on
    a hit and raises that copy.
    """

    __slots__ = ("error_type", "args", "code")

    def __init__(self, error: ExecutionError) -> None:
        self.error_type = type(error)
        self.args = error.args
        self.code = error.code

    def rows(self, max_rows: int | None) -> list[Row]:
        """Raise a fresh copy of the error, whatever ``max_rows`` is: the
        session runs every query unsliced, so slicing cannot avoid it."""
        raise self.error_type(*self.args, code=self.code)


class ExecutorSession:
    """A reusable execution context over one database.

    Holds lazily built per-column equality hash indexes, an optional
    :class:`~repro.db.index.ValueIndex` used to prune equality scans
    whose constant cannot appear in the column, a bounded LRU result
    cache keyed on the printed SQL (which remembers execution errors as
    well as results), and a :class:`PerfRecorder` with
    scan/join/filter/group/sort stage timings.  All caches observe
    :attr:`Database.version` and reset when rows are inserted.
    """

    def __init__(
        self,
        database: Database,
        value_index: ValueIndex | None = None,
        cache_size: int = 256,
        recorder: PerfRecorder | None = None,
        columnar: bool | None = None,
    ) -> None:
        self.database = database
        self.value_index = value_index
        self.recorder = recorder if recorder is not None else PerfRecorder()
        self._cache_size = cache_size
        self._cache: OrderedDict[str, _CachedResult | _CachedFailure] = (
            OrderedDict()
        )
        # Guards the cache and its counters; never held while executing.
        self._cache_lock = threading.Lock()
        self._eq_indexes: dict[tuple[str, str], dict[Any, list[Row]]] = {}
        self._db_version = database.version
        self.cache_hits = 0
        self.cache_misses = 0
        #: Columnar arm policy for every query run through this session:
        #: None = auto (row-count threshold), True = force, False = off.
        self.columnar = columnar
        self.columnar_vectorized_steps = 0
        self.columnar_row_steps = 0
        self._columnar_fallbacks: dict[str, int] = {}
        self.last_columnar_trace: ColumnarTrace | None = None

    # -- caching -------------------------------------------------------

    def _check_version(self) -> None:
        if self.database.version != self._db_version:
            with self._cache_lock:
                self._cache.clear()
            self._eq_indexes.clear()
            self._db_version = self.database.version

    def execute(self, query: Query, max_rows: int | None = None) -> list[Row]:
        """Planned execution with result caching.

        Cache entries key on :func:`~repro.sql.printer.to_sql`, the text
        memoized on the query.  It spells the SELECT labels that name the
        output columns, the FROM order that orders the rows, and ``5``
        apart from ``5.0``, so every query sharing a key runs alike.  An
        entry holds the result once, as its column labels and one tuple
        of values per row.  Every call returns fresh dicts for only the
        first ``max_rows`` rows — callers may mutate them freely.

        An :class:`~repro.errors.ExecutionError` is remembered too: a
        later call with the same text raises a fresh copy (same class,
        message and ``code``) without planning or running anything.
        Other exceptions are never remembered.  ``cache_size=0`` runs
        every call uncached.  Safe to call from many threads.
        """
        self._check_version()
        cached = None
        key = None
        if self._cache_size > 0:
            key = to_sql(query)
            with self._cache_lock:
                cached = self._cache.get(key)
                if cached is None:
                    self.cache_misses += 1
                else:
                    self.cache_hits += 1
                    self._cache.move_to_end(key)
        if cached is not None:
            return cached.rows(max_rows)
        try:
            rows = execute_planned(query, self.database, session=self)
        except ExecutionError as error:
            if key is not None:
                self._remember(key, _CachedFailure(error))
            raise
        if key is not None:
            self._remember(key, _CachedResult.pack(rows))
        # The planner built these dicts for this call and the cache holds
        # none of them, so they go out as they are.
        return rows[:max_rows]

    def _remember(self, key: str, entry: _CachedResult | _CachedFailure) -> None:
        with self._cache_lock:
            self._cache[key] = entry
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def note_columnar(self, trace: ColumnarTrace) -> None:
        """Fold one columnar execution's arm decisions into the session."""
        self.last_columnar_trace = trace
        self.columnar_vectorized_steps += trace.vectorized_steps
        self.columnar_row_steps += trace.row_steps
        for reason, count in trace.fallback_reasons().items():
            self._columnar_fallbacks[reason] = (
                self._columnar_fallbacks.get(reason, 0) + count
            )

    def stats(self) -> dict:
        """JSON-ready snapshot: cache counters + per-stage timings."""
        total = self.cache_hits + self.cache_misses
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (self.cache_hits / total) if total else 0.0,
            "cache_size": len(self._cache),
            "cache_capacity": self._cache_size,
            "stages": self.recorder.report(),
            "columnar": {
                "mode": {None: "auto", True: "on", False: "off"}[self.columnar],
                "vectorized_steps": self.columnar_vectorized_steps,
                "row_steps": self.columnar_row_steps,
                "fallback_reasons": dict(self._columnar_fallbacks),
            },
        }

    # -- scans ---------------------------------------------------------

    def probe(self, table: str, column: str, constant: Any) -> list[Row]:
        """Equality probe through the lazily built per-column index."""
        self._check_version()
        index = self._eq_indexes.get((table, column))
        if index is None:
            index = {}
            for row in self.database.scan(table):
                value = row[column]
                if value is not None:
                    index.setdefault(value, []).append(row)
            self._eq_indexes[(table, column)] = index
        if constant is None:
            return []
        return index.get(constant, [])

    def value_index_admits(self, table: str, column: str, constant: Any) -> bool:
        """ValueIndex pre-screen: False only when the constant provably
        never appears in ``table.column`` (normalized lookup misses are
        conservative — a hit still goes through the real probe)."""
        if self.value_index is None:
            return True
        # Pass the raw constant: ValueIndex normalization turns 5.0 and
        # 5 into the same key, but str(5.0) would not.
        hits = self.value_index.lookup(constant)
        if not hits:
            return False
        return any(h.table == table and h.column == column for h in hits)


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------


def explain(query: Query, database: Database) -> str:
    """Human-readable plan rendering (the ``repro db explain`` output)."""
    plan = build_plan(query, database)
    lines = [f"plan for: {canonical_sql(query)}"]
    if plan.uses_naive_fallback:
        lines.append(
            f"  naive cross-product execution ({plan.fallback_reason})"
        )
        return "\n".join(lines)

    annotate = columnar_available()

    def arm_note(reason: str) -> str:
        if not annotate:
            return ""
        return " [vectorized]" if not reason else f" [row: {reason}]"

    def scan_line(scan: ScanStep) -> str:
        parts = [
            f"scan {scan.table} "
            f"[{database.row_count(scan.table)} rows]"
        ]
        for column, constant in scan.eq_lookups:
            parts.append(f"index eq {scan.table}.{column} = {constant!r}")
        if scan.filters:
            rendered = " AND ".join(predicate_to_sql(p) for p in scan.filters)
            parts.append(f"filter {rendered}")
        return " ".join(parts)

    lines.append(f"  {scan_line(plan.base)}{arm_note(probe_scan(plan.base, database))}")
    for step in plan.joins:
        if step.is_hash_join:
            conditions = " AND ".join(
                f"{bound} = {new}" for bound, new in step.keys
            )
            reason = probe_scan(step.scan, database) or probe_join(step, database)
            lines.append(
                f"  hash join: {scan_line(step.scan)} ON {conditions}"
                f"{arm_note(reason)}"
            )
        else:
            lines.append(
                f"  cross product: {scan_line(step.scan)} "
                f"(no join predicate; guarded at {MAX_CROSS_PRODUCT:,} rows)"
                f"{arm_note(probe_scan(step.scan, database))}"
            )
    if plan.constants:
        rendered = " AND ".join(predicate_to_sql(p) for p in plan.constants)
        lines.append(f"  constant filter: {rendered}")
    if plan.residual:
        rendered = " AND ".join(predicate_to_sql(p) for p in plan.residual)
        lines.append(f"  residual filter: {rendered}")
    if plan.query.group_by or plan.query.aggregates():
        if plan.query.group_by:
            keys = ", ".join(str(c) for c in plan.query.group_by)
            lines.append(f"  hash group by {keys}")
        else:
            lines.append("  aggregate (single group)")
    if plan.query.having is not None:
        lines.append(f"  having {predicate_to_sql(plan.query.having)}")
    if plan.query.distinct:
        lines.append("  hash distinct")
    if plan.query.order_by:
        keys = ", ".join(
            f"{o.expr}{' DESC' if o.desc else ''}" for o in plan.query.order_by
        )
        lines.append(f"  sort by {keys}")
    if plan.query.limit is not None:
        lines.append(f"  limit {plan.query.limit}")
    if annotate:
        engaged = should_use_columnar(plan, database, None)
        finish_reason = probe_finish(plan.query, database)
        finish = "vectorized" if not finish_reason else f"row ({finish_reason})"
        status = (
            "auto: engaged"
            if engaged
            else f"auto: below threshold ({COLUMNAR_MIN_ROWS} rows)"
        )
        lines.append(f"  columnar {status}; finish {finish}")
    return "\n".join(lines)

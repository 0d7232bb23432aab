"""Vectorized columnar execution kernels behind the query planner.

The planner (:mod:`repro.db.planner`) fixed the *algorithmic* cost of
execution — hash joins, predicate pushdown — but every surviving row
still flowed through Python-level loops: a dict lookup and a predicate
walk per row, a tuple hash per join probe, a dict append per group.
This module replaces those loops with numpy kernels over the
:class:`~repro.db.storage.ColumnStore` arrays while keeping the output
**bit-identical** (row values *and* row order) to the row arm:

* **index-vector intermediates** — a join intermediate is represented
  as parallel ``table -> int64 index`` arrays (one entry per surviving
  combination) instead of a list of joined-row dicts.  Output values
  are materialized from the same row dicts the row arm reads, so value
  identity is structural, not re-derived.
* **predicate masks** — WHERE conjuncts become boolean masks via numpy
  comparisons, with NULL masks reproducing SQL three-valued logic
  collapsed to ``False`` exactly as :func:`repro.db.expressions.compare`
  does (cross-kind comparisons are statically ``False``; ``NOT`` is
  plain mask negation, matching the row arm's NULL-in / NULL-out).
* **hash-join probes** — build and probe keys are factorized into one
  shared code space (``np.unique`` over the concatenated key columns),
  buckets become sorted segments, and the probe expands to index pairs
  with the classic repeat/cumsum ragged-expansion trick.  Probe order
  and in-bucket storage order are preserved, so the output enumerates
  combinations exactly as the row arm's dict-bucket join does.
* **aggregation** — group codes via ``np.unique`` + stable argsort into
  contiguous segments; integer sums via ``np.add.reduceat`` (exact, with
  an overflow bound check); float sums via per-segment ``np.cumsum``
  (sequential, hence rounding-identical to Python's left-to-right
  ``sum``; ``np.add.reduceat`` pairwise-sums floats and is *not* used
  for them); MIN/MAX via a ``np.lexsort`` segment sweep that works for
  strings too.
* **sort** — stable ``np.argsort`` composition mirroring
  ``_order_rows``: last key first, a value pass then a NULLs-last pass,
  descending via the reverse/stable/reverse trick.

Every step degrades independently: a column that did not vectorize
(mixed types, NaN, huge ints, NUL-embedded strings — see
:func:`repro.db.storage._build_column`), an unsupported expression, or
an exactness guard trips a per-step fallback to the row-at-a-time code
over the *same index representation*, and the final projection can fall
back to the shared :func:`~repro.db.executor.finish_rows`.  The kernels
are the only authority on these decisions: each step records the arm it
took, and why, on a :class:`ColumnarTrace` as it runs.  ``repro db
explain --execute`` prints that trace step by step and
:meth:`ExecutorSession.stats` totals it; nothing predicts an arm
before the run.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.db.executor import (
    MAX_CROSS_PRODUCT,
    _star_label,
    apply_distinct_order_limit,
    cross_product_error,
    finish_rows,
)
from repro.db.expressions import (
    _eq_matches,
    _like_match,
    compare,
    evaluate_operand,
    evaluate_predicate,
)
from repro.db.functions import evaluate_aggregate
from repro.db.storage import (
    FLOAT_EXACT_INT,
    ColumnData,
    Database,
    Row,
    rows_from_values,
)
from repro.sql.ast import (
    AggFunc,
    Aggregate,
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
    Star,
    Subquery,
    conjuncts,
)

#: Auto mode: the columnar arm engages when the largest table in the
#: plan has at least this many rows.  Below it, per-query numpy setup
#: costs dominate and the row path wins (see BENCH_columnar.json for
#: the measured crossover per workload).
COLUMNAR_MIN_ROWS = 256

#: int64 group sums are refused when ``max|v| * count`` could overflow.
_SUM_OVERFLOW_BOUND = 2**62

#: Float-sum segments shorter than this are summed with Python's
#: ``sum`` directly; longer ones use sequential ``np.cumsum`` (both are
#: left-to-right and therefore rounding-identical).
_CUMSUM_MIN = 64


class NotVectorizable(Exception):
    """Internal control flow: this step must use the row path."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


@dataclass
class ColumnarTrace:
    """Per-step arm decisions for one columnar execution."""

    steps: list[tuple[str, str, str]] = field(default_factory=list)

    def record(self, stage: str, arm: str, reason: str = "") -> None:
        self.steps.append((stage, arm, reason))

    @property
    def vectorized_steps(self) -> int:
        return sum(1 for _, arm, _ in self.steps if arm == "vectorized")

    @property
    def row_steps(self) -> int:
        return sum(1 for _, arm, _ in self.steps if arm == "row")

    def fallback_reasons(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, arm, reason in self.steps:
            if arm == "row":
                key = reason or "unspecified"
                out[key] = out.get(key, 0) + 1
        return out


def should_use_columnar(
    plan, database: Database, setting: bool | None
) -> bool:
    """The cost gate: forced on/off, or auto by largest-table size."""
    if plan.base is None:
        return False
    if setting is not None:
        return bool(setting)
    tables = [plan.base.table] + [s.scan.table for s in plan.joins]
    return max(database.row_count(t) for t in tables) >= COLUMNAR_MIN_ROWS


# ----------------------------------------------------------------------
# Column access contexts
# ----------------------------------------------------------------------


def _resolve_ref(
    ref: ColumnRef, tables: Sequence[str], columns_by_table: dict[str, Any]
) -> tuple[str, str]:
    """Mirror :func:`resolve_column` name resolution statically.

    Raises :class:`NotVectorizable` for unknown/ambiguous references —
    the row fallback then raises the *real* ``ExecutionError`` with the
    same message the row arm would produce.
    """
    if ref.table is not None:
        if ref.table not in tables or ref.column not in columns_by_table[ref.table]:
            raise NotVectorizable(f"unresolvable column {ref}")
        return ref.table, ref.column
    candidates = [t for t in tables if ref.column in columns_by_table[t]]
    if len(candidates) != 1:
        raise NotVectorizable(f"unresolvable column {ref}")
    return candidates[0], ref.column


@dataclass
class _Vec:
    """One column's values over the current mask domain."""

    values: Any  # np.ndarray
    nulls: Any | None  # np.ndarray[bool] | None
    kind: str
    exact: bool
    float_safe: bool


class _TableContext:
    """Masks over one table's full storage order (scan pushdown)."""

    def __init__(self, database: Database, table: str) -> None:
        self._store = database.column_store(table)
        self.tables = (table,)
        self.columns_by_table = {
            table: set(database.schema.table(table).column_names)
        }
        self.length = self._store.length

    def vec(self, table: str, column: str) -> _Vec:
        data = self._store.column(column)
        if data is None:
            raise NotVectorizable(f"column {table}.{column} not vectorizable")
        return _Vec(data.values, data.nulls, data.kind, data.exact, data.float_safe)

    def codes(self, table: str, column: str) -> tuple[Any, int]:
        factored = self._store.factorize(column)
        if factored is None:
            raise NotVectorizable(f"column {table}.{column} not vectorizable")
        codes, card, _dictionary = factored
        return codes, card


class _FrameContext:
    """Masks over the join intermediate's surviving combinations."""

    def __init__(
        self,
        database: Database,
        frame: dict[str, Any],
        tables: Sequence[str] | None = None,
    ) -> None:
        self._database = database
        self._frame = frame
        self._cache: dict[tuple[str, str], _Vec] = {}
        self.tables = tuple(tables) if tables is not None else tuple(frame)
        self.columns_by_table = {
            t: set(database.schema.table(t).column_names) for t in self.tables
        }
        first = next(iter(frame.values()))
        self.length = len(first)

    def vec(self, table: str, column: str) -> _Vec:
        key = (table, column)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        data = self._database.column_store(table).column(column)
        if data is None:
            raise NotVectorizable(f"column {table}.{column} not vectorizable")
        idx = self._frame[table]
        vec = _Vec(
            data.values[idx],
            data.nulls[idx] if data.nulls is not None else None,
            data.kind,
            data.exact,
            data.float_safe,
        )
        self._cache[key] = vec
        return vec

    def codes(self, table: str, column: str) -> tuple[Any, int]:
        """Dictionary codes over the frame domain (store codes gathered
        through the table's index vector)."""
        factored = self._database.column_store(table).factorize(column)
        if factored is None:
            raise NotVectorizable(f"column {table}.{column} not vectorizable")
        codes, card, _dictionary = factored
        return codes[self._frame[table]], card


def _ref_vec(ref: ColumnRef, ctx) -> _Vec:
    table, column = _resolve_ref(ref, ctx.tables, ctx.columns_by_table)
    return ctx.vec(table, column)


# ----------------------------------------------------------------------
# Predicate masks
# ----------------------------------------------------------------------


def _np_compare(op: CompOp, left: Any, right: Any) -> Any:
    if op is CompOp.EQ:
        return left == right
    if op is CompOp.NE:
        return left != right
    if op is CompOp.LT:
        return left < right
    if op is CompOp.LE:
        return left <= right
    if op is CompOp.GT:
        return left > right
    if op is CompOp.GE:
        return left >= right
    raise NotVectorizable(f"unsupported operator {op}")


def _operand_value(operand, ctx, subquery_values) -> tuple[str, Any]:
    """Classify an operand: ("col", _Vec) or ("const", python value)."""
    if isinstance(operand, Literal):
        return "const", operand.value
    if isinstance(operand, ColumnRef):
        return "col", _ref_vec(operand, ctx)
    if isinstance(operand, Subquery):
        return "const", subquery_values(operand)
    raise NotVectorizable(f"non-vectorizable operand {operand!r}")


def _valid_mask(n: int, *vecs: _Vec) -> Any | None:
    valid = None
    for vec in vecs:
        if vec.nulls is not None:
            valid = ~vec.nulls if valid is None else valid & ~vec.nulls
    return valid


def _apply_valid(mask: Any, valid: Any | None) -> Any:
    return mask if valid is None else mask & valid


def _col_const_mask(vec: _Vec, op: CompOp, const: Any, n: int) -> Any:
    """``column OP constant`` with :func:`compare`'s exact semantics."""
    valid = _valid_mask(n, vec)
    if const is None or not isinstance(const, (int, float, str)):
        # compare() returns False for NULL and non-scalar operands.
        return np.zeros(n, dtype=bool)
    if isinstance(const, str):
        if vec.kind != "str":
            return np.zeros(n, dtype=bool)  # cross-kind: statically False
        return _apply_valid(_np_compare(op, vec.values, const), valid)
    if vec.kind == "str":
        return np.zeros(n, dtype=bool)
    # Numeric.  bool is an int subclass and compares as 0/1, like Python.
    if isinstance(const, bool):
        const = int(const)
    if isinstance(const, int):
        if vec.kind == "int":
            if not (-(2**62) <= const <= 2**62):
                raise NotVectorizable("integer constant out of int64 range")
            return _apply_valid(_np_compare(op, vec.values, const), valid)
        # float column vs int constant: exact only within 2**53.
        if not (-FLOAT_EXACT_INT <= const <= FLOAT_EXACT_INT):
            raise NotVectorizable("int constant not exact as float64")
        return _apply_valid(_np_compare(op, vec.values, float(const)), valid)
    # float constant
    if vec.kind == "int":
        if not vec.float_safe:
            raise NotVectorizable("int column not exact as float64")
        return _apply_valid(
            _np_compare(op, vec.values.astype(np.float64), const), valid
        )
    return _apply_valid(_np_compare(op, vec.values, const), valid)


def _col_col_mask(left: _Vec, op: CompOp, right: _Vec, n: int) -> Any:
    valid = _valid_mask(n, left, right)
    if (left.kind == "str") != (right.kind == "str"):
        return np.zeros(n, dtype=bool)  # cross-kind: statically False
    if left.kind == "str":
        return _apply_valid(_np_compare(op, left.values, right.values), valid)
    if left.kind == "int" and right.kind == "int":
        return _apply_valid(_np_compare(op, left.values, right.values), valid)
    for side in (left, right):
        if side.kind == "int" and not side.float_safe:
            raise NotVectorizable("int column not exact as float64")
    lv = left.values.astype(np.float64) if left.kind == "int" else left.values
    rv = right.values.astype(np.float64) if right.kind == "int" else right.values
    return _apply_valid(_np_compare(op, lv, rv), valid)


def _comparison_mask(pred: Comparison, ctx, subquery_values) -> Any:
    n = ctx.length
    lkind, lval = _operand_value(pred.left, ctx, subquery_values)
    rkind, rval = _operand_value(pred.right, ctx, subquery_values)
    if lkind == "const" and rkind == "const":
        return np.full(n, compare(pred.op, lval, rval), dtype=bool)
    if lkind == "col" and rkind == "const":
        return _col_const_mask(lval, pred.op, rval, n)
    if lkind == "const" and rkind == "col":
        return _col_const_mask(rval, pred.op.flipped(), lval, n)
    return _col_col_mask(lval, pred.op, rval, n)


def _in_mask(pred: InPredicate, ctx, subquery_values) -> Any:
    n = ctx.length
    vec = _ref_vec(pred.column, ctx)
    valid = _valid_mask(n, vec)
    if pred.subquery is not None:
        members = subquery_values(pred.subquery)
        if not isinstance(members, list):
            raise NotVectorizable("IN subquery did not yield a value list")
    else:
        members = []
        for value in pred.values:
            if isinstance(value, Literal):
                members.append(value.value)
            elif isinstance(value, Subquery):
                members.append(subquery_values(value))
            else:
                raise NotVectorizable("non-constant IN list member")
    members = [m for m in members if m is not None]

    if vec.kind == "str":
        wanted = [m for m in members if isinstance(m, str)]
        if wanted:
            mask = np.isin(vec.values, np.array(wanted))
        else:
            mask = np.zeros(n, dtype=bool)
    else:
        wanted = []
        for m in members:
            if isinstance(m, bool):
                m = int(m)
            if not isinstance(m, (int, float)):
                continue
            if isinstance(m, int) and not (
                -FLOAT_EXACT_INT <= m <= FLOAT_EXACT_INT
            ):
                raise NotVectorizable("int member not exact as float64")
            wanted.append(float(m))
        if wanted:
            if vec.kind == "int" and not vec.float_safe:
                raise NotVectorizable("int column not exact as float64")
            values = (
                vec.values.astype(np.float64)
                if vec.kind == "int"
                else vec.values
            )
            mask = np.isin(values, np.array(wanted, dtype=np.float64))
        else:
            mask = np.zeros(n, dtype=bool)
    if pred.negated:
        mask = ~mask
    return _apply_valid(mask, valid)  # NULL IN / NOT IN are both False


def _like_mask(pred: Like, ctx, subquery_values) -> Any:
    n = ctx.length
    vec = _ref_vec(pred.column, ctx)
    if vec.kind != "str":
        raise NotVectorizable("LIKE over non-text column")
    valid = _valid_mask(n, vec)
    kind, pattern = _operand_value(pred.pattern, ctx, subquery_values)
    if kind != "const":
        raise NotVectorizable("non-constant LIKE pattern")
    if pattern is None:
        return np.zeros(n, dtype=bool)
    pattern = str(pattern)
    # Match each distinct value once; broadcast through the inverse map.
    uniq, inverse = np.unique(vec.values, return_inverse=True)
    matched = np.fromiter(
        (_like_match(v, pattern) for v in uniq.tolist()),
        dtype=bool,
        count=len(uniq),
    )
    mask = matched[inverse]
    if pred.negated:
        mask = ~mask
    return _apply_valid(mask, valid)


def _contains_subquery(pred: Predicate) -> bool:
    if isinstance(pred, Comparison):
        return isinstance(pred.left, Subquery) or isinstance(pred.right, Subquery)
    if isinstance(pred, Between):
        return isinstance(pred.low, Subquery) or isinstance(pred.high, Subquery)
    if isinstance(pred, InPredicate):
        return pred.subquery is not None or any(
            isinstance(v, Subquery) for v in pred.values
        )
    if isinstance(pred, Like):
        return isinstance(pred.pattern, Subquery)
    if isinstance(pred, Exists):
        return True
    if isinstance(pred, Not):
        return _contains_subquery(pred.operand)
    if isinstance(pred, (And, Or)):
        return any(_contains_subquery(p) for p in pred.operands)
    return False


def predicate_mask(pred: Predicate, ctx, subquery_values) -> Any:
    """Boolean mask over ``ctx``'s domain, or raise :class:`NotVectorizable`.

    NULL semantics match :func:`evaluate_predicate` exactly: leaf
    predicates collapse NULL to False *before* negation (so ``NOT``
    is plain mask complement, and NULL rows pass ``NOT (a = 5)``).

    Subqueries nested under NOT / AND / OR force the row path: the row
    arm short-circuits per row and may never execute the subquery,
    while eager mask evaluation always would — a behavioural difference
    when the subquery errors.  A subquery at top-of-conjunct position
    is fine (the conjunct loop only evaluates over non-empty surviving
    sets, where the row arm would have executed it too; the resolver
    memoizes, so once-vs-many is unobservable).
    """
    if isinstance(pred, Comparison):
        return _comparison_mask(pred, ctx, subquery_values)
    if isinstance(pred, Between):
        low = Comparison(pred.column, CompOp.GE, pred.low)
        high = Comparison(pred.column, CompOp.LE, pred.high)
        return _comparison_mask(low, ctx, subquery_values) & _comparison_mask(
            high, ctx, subquery_values
        )
    if isinstance(pred, InPredicate):
        return _in_mask(pred, ctx, subquery_values)
    if isinstance(pred, Like):
        return _like_mask(pred, ctx, subquery_values)
    if isinstance(pred, Exists):
        rows = subquery_values(pred.subquery)
        result = bool(rows)
        if pred.negated:
            result = not result
        return np.full(ctx.length, result, dtype=bool)
    if isinstance(pred, Not):
        if _contains_subquery(pred.operand):
            raise NotVectorizable("subquery under NOT")
        return ~predicate_mask(pred.operand, ctx, subquery_values)
    if isinstance(pred, And):
        if any(_contains_subquery(p) for p in pred.operands):
            raise NotVectorizable("subquery under AND")
        masks = [predicate_mask(p, ctx, subquery_values) for p in pred.operands]
        out = masks[0]
        for m in masks[1:]:
            out = out & m
        return out
    if isinstance(pred, Or):
        if any(_contains_subquery(p) for p in pred.operands):
            raise NotVectorizable("subquery under OR")
        masks = [predicate_mask(p, ctx, subquery_values) for p in pred.operands]
        out = masks[0]
        for m in masks[1:]:
            out = out | m
        return out
    raise NotVectorizable(f"unsupported predicate {type(pred).__name__}")


# ----------------------------------------------------------------------
# Scan
# ----------------------------------------------------------------------


def scan_indices(
    scan,
    database: Database,
    session,
    subquery_values,
    trace: ColumnarTrace,
) -> Any:
    """Surviving row indices of one table scan, in storage order.

    Conjuncts apply in the row arm's order (eq lookups, then filters),
    each narrowing the surviving set, so row-fallback conjuncts are
    evaluated over exactly the rows the row arm would evaluate them on
    (same short-circuiting, same errors).
    """
    store = database.column_store(scan.table)
    rows = database.scan(scan.table)
    surviving = np.arange(store.length, dtype=np.int64)
    ctx = _TableContext(database, scan.table)

    for column, constant in scan.eq_lookups:
        if session is not None and not session.value_index_admits(
            scan.table, column, constant
        ):
            trace.record("scan", "vectorized", "value-index prune")
            return surviving[:0]
        if surviving.size == 0:
            break
        data = store.column(column)
        if data is not None:
            try:
                vec = _Vec(
                    data.values, data.nulls, data.kind, data.exact, data.float_safe
                )
                mask = _col_const_mask(vec, CompOp.EQ, constant, store.length)
            except NotVectorizable as exc:
                trace.record("scan", "row", exc.reason)
                surviving = surviving[
                    [_eq_matches(rows[i][column], constant) for i in surviving]
                ]
                continue
            trace.record("scan", "vectorized")
            surviving = surviving[mask[surviving]]
        else:
            trace.record("scan", "row", f"column {scan.table}.{column}")
            surviving = surviving[
                [_eq_matches(rows[i][column], constant) for i in surviving]
            ]

    for pred in scan.filters:
        if surviving.size == 0:
            break
        try:
            mask = predicate_mask(pred, ctx, subquery_values)
        except NotVectorizable as exc:
            trace.record("scan", "row", exc.reason)
            surviving = surviving[
                [
                    evaluate_predicate(
                        pred, {scan.table: rows[i]}, subquery_values
                    )
                    for i in surviving
                ]
            ]
            continue
        trace.record("scan", "vectorized")
        surviving = surviving[mask[surviving]]
    return surviving


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


class _NoMatches(Exception):
    """Join keys of incompatible kinds: statically zero matches."""


def _pair_codes(
    build_data: ColumnData,
    build_factored: tuple[Any, int, Any],
    scan_idx: Any,
    probe_data: ColumnData,
    probe_factored: tuple[Any, int, Any],
    probe_idx: Any,
) -> tuple[Any, Any, int]:
    """Map one key pair's cached dictionary codes into a shared space.

    Merging the two (small) per-column dictionaries and remapping codes
    costs O(card_build + card_probe) plus two int gathers — the full key
    columns were already factorized once per table version, so no
    per-query ``np.unique`` over row-count-sized data.  NULL rows map to
    the shared sentinel code past the merged dictionary; the caller's
    validity masks exclude them from matching, exactly like the row
    arm's ``None``-key skip.

    Returns (build_codes, probe_codes, cardinality); raises
    :class:`_NoMatches` for cross-kind keys (Python ``==`` between str
    and numeric is always False, so the join output is empty) and
    :class:`NotVectorizable` when float casting would lose exactness.
    """
    build_codes, _bcard, build_dict = build_factored
    probe_codes, _pcard, probe_dict = probe_factored
    if (build_data.kind == "str") != (probe_data.kind == "str"):
        raise _NoMatches
    if build_data.kind != probe_data.kind:  # int/float mix -> float64 space
        for side in (build_data, probe_data):
            if side.kind == "int" and not side.float_safe:
                raise NotVectorizable("int join key not exact as float64")
        if build_data.kind == "int":
            build_dict = build_dict.astype(np.float64)
        if probe_data.kind == "int":
            probe_dict = probe_dict.astype(np.float64)
    shared, inverse = np.unique(
        np.concatenate([build_dict, probe_dict]), return_inverse=True
    )
    inverse = inverse.astype(np.int64).reshape(len(build_dict) + len(probe_dict))
    sentinel = np.int64(len(shared))  # NULL top code lands here
    build_map = np.append(inverse[: len(build_dict)], sentinel)
    probe_map = np.append(inverse[len(build_dict):], sentinel)
    return (
        build_map[build_codes[scan_idx]],
        probe_map[probe_codes[probe_idx]],
        len(shared) + 1,
    )


def _combine_codes(code_pairs: list[tuple[Any, Any, int]]) -> tuple[Any, Any]:
    """Fold per-key codes into one code per side, compacting each step
    so the mixed-radix accumulator can never overflow int64."""
    build, probe = code_pairs[0][0].astype(np.int64), code_pairs[0][1].astype(np.int64)
    for b, p, card in code_pairs[1:]:
        build = build * card + b
        probe = probe * card + p
        merged = np.concatenate([build, probe])
        _, inverse = np.unique(merged, return_inverse=True)
        build, probe = inverse[: len(build)], inverse[len(build):]
    return build, probe


def _empty_frame(frame: dict[str, Any], table: str) -> dict[str, Any]:
    out = {t: ix[:0] for t, ix in frame.items()}
    out[table] = np.zeros(0, dtype=np.int64)
    return out


def hash_join_indices(
    frame: dict[str, Any],
    scan_idx: Any,
    step,
    database: Database,
) -> dict[str, Any]:
    """Vectorized equi-join: extend ``frame`` with the scanned subset of
    ``step``'s table.  Output order: probe (frame) order major, bucket
    storage order minor — exactly the row arm's enumeration."""
    table = step.scan.table
    store = database.column_store(table)
    k = len(next(iter(frame.values())))

    code_pairs = []
    try:
        for bound_ref, new_ref in step.keys:
            probe_store = database.column_store(bound_ref.table)
            build_data = store.column(new_ref.column)
            probe_data = probe_store.column(bound_ref.column)
            if build_data is None:
                raise NotVectorizable(
                    f"column {table}.{new_ref.column} not vectorizable"
                )
            if probe_data is None:
                raise NotVectorizable(
                    f"column {bound_ref.table}.{bound_ref.column} not vectorizable"
                )
            code_pairs.append(
                _pair_codes(
                    build_data,
                    store.factorize(new_ref.column),
                    scan_idx,
                    probe_data,
                    probe_store.factorize(bound_ref.column),
                    frame[bound_ref.table],
                )
            )
    except _NoMatches:
        return _empty_frame(frame, table)

    build_codes, probe_codes = _combine_codes(code_pairs)

    build_valid = np.ones(len(scan_idx), dtype=bool)
    probe_valid = np.ones(k, dtype=bool)
    for (bound_ref, new_ref) in step.keys:
        bd = store.column(new_ref.column)
        pd = database.column_store(bound_ref.table).column(bound_ref.column)
        if bd.nulls is not None:
            build_valid &= ~bd.nulls[scan_idx]
        if pd.nulls is not None:
            probe_valid &= ~pd.nulls[frame[bound_ref.table]]

    valid_positions = np.nonzero(build_valid)[0]
    if valid_positions.size == 0:
        return _empty_frame(frame, table)
    bc = build_codes[valid_positions]
    order = np.argsort(bc, kind="stable")  # stable: keeps storage order
    sorted_codes = bc[order]
    sorted_rows = scan_idx[valid_positions[order]]
    uniq, starts, counts = np.unique(
        sorted_codes, return_index=True, return_counts=True
    )

    pos = np.searchsorted(uniq, probe_codes)
    pos_c = np.clip(pos, 0, len(uniq) - 1)
    match = probe_valid & (pos < len(uniq)) & (uniq[pos_c] == probe_codes)
    cnt = np.where(match, counts[pos_c], 0)
    total = int(cnt.sum())
    if total == 0:
        return _empty_frame(frame, table)

    rep = np.repeat(np.arange(k, dtype=np.int64), cnt)
    offsets = np.cumsum(cnt) - cnt  # output start per probe row
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, cnt)
    new_rows = sorted_rows[starts[pos_c][rep] + within]

    out = {t: ix[rep] for t, ix in frame.items()}
    out[table] = new_rows
    return out


def _row_hash_join_indices(
    frame: dict[str, Any],
    scan_idx: Any,
    step,
    database: Database,
) -> dict[str, Any]:
    """Row-at-a-time fallback join over the index representation —
    bit-for-bit the row arm's dict-bucket join, emitting indices."""
    table = step.scan.table
    rows = database.scan(table)
    new_cols = tuple(new_ref.column for _bound, new_ref in step.keys)
    bound_refs = tuple(bound for bound, _new in step.keys)
    bound_rows = {ref.table: database.scan(ref.table) for ref in bound_refs}

    buckets: dict[tuple, list[int]] = {}
    for i in scan_idx.tolist():
        row = rows[i]
        key = tuple(row[c] for c in new_cols)
        if any(v is None for v in key):
            continue
        buckets.setdefault(key, []).append(i)

    k = len(next(iter(frame.values())))
    frame_lists = {t: ix.tolist() for t, ix in frame.items()}
    rep: list[int] = []
    new_rows: list[int] = []
    for j in range(k):
        probe = tuple(
            bound_rows[ref.table][frame_lists[ref.table][j]][ref.column]
            for ref in bound_refs
        )
        if any(v is None for v in probe):
            continue
        bucket = buckets.get(probe)
        if bucket:
            rep.extend([j] * len(bucket))
            new_rows.extend(bucket)

    rep_arr = np.array(rep, dtype=np.int64)
    out = {t: ix[rep_arr] for t, ix in frame.items()}
    out[table] = np.array(new_rows, dtype=np.int64)
    return out


def join_step_indices(
    frame: dict[str, Any],
    scan_idx: Any,
    step,
    database: Database,
    trace: ColumnarTrace,
) -> dict[str, Any]:
    table = step.scan.table
    k = len(next(iter(frame.values())))
    if not step.is_hash_join:
        estimated = k * len(scan_idx)
        if estimated > MAX_CROSS_PRODUCT:
            raise cross_product_error(
                list(frame) + [table], estimated, database.schema
            )
        trace.record("join", "vectorized", "cross product")
        out = {t: np.repeat(ix, len(scan_idx)) for t, ix in frame.items()}
        out[table] = np.tile(scan_idx, k)
        return out
    try:
        out = hash_join_indices(frame, scan_idx, step, database)
        trace.record("join", "vectorized")
        return out
    except NotVectorizable as exc:
        trace.record("join", "row", exc.reason)
        return _row_hash_join_indices(frame, scan_idx, step, database)


# ----------------------------------------------------------------------
# Residual filters
# ----------------------------------------------------------------------


def _gather_frame(frame: dict[str, Any], selector: Any) -> dict[str, Any]:
    return {t: ix[selector] for t, ix in frame.items()}


def residual_filter(
    frame: dict[str, Any],
    residual: Sequence[Predicate],
    query_tables: Sequence[str],
    database: Database,
    subquery_values,
    trace: ColumnarTrace,
) -> dict[str, Any]:
    """Apply leftover multi-table conjuncts, per-predicate fallback."""
    views = {t: database.scan(t) for t in frame}
    for pred in residual:
        k = len(next(iter(frame.values())))
        if k == 0:
            break
        ctx = _FrameContext(database, frame, tables=query_tables)
        try:
            mask = predicate_mask(pred, ctx, subquery_values)
        except NotVectorizable as exc:
            trace.record("filter", "row", exc.reason)
            frame_lists = {t: ix.tolist() for t, ix in frame.items()}
            keep = np.fromiter(
                (
                    evaluate_predicate(
                        pred,
                        {t: views[t][frame_lists[t][j]] for t in frame},
                        subquery_values,
                    )
                    for j in range(k)
                ),
                dtype=bool,
                count=k,
            )
            frame = _gather_frame(frame, keep)
            continue
        trace.record("filter", "vectorized")
        frame = _gather_frame(frame, mask)
    return frame


# ----------------------------------------------------------------------
# Finish: grouping / aggregation
# ----------------------------------------------------------------------


def _combine_ref_codes(
    pairs: Sequence[tuple[Any, int]], n: int
) -> tuple[Any, int]:
    """Mixed-radix combination of per-column dictionary codes into one
    int64 code per row, returned with its cardinality bound.  NULLs
    already hold their own code (see :meth:`ColumnStore.factorize`),
    mirroring ``None`` as a dict-key component; the accumulator compacts
    before it could overflow."""
    codes = np.zeros(n, dtype=np.int64)
    acc = 1
    for col_codes, card in pairs:
        card = max(card, 1)
        if acc * card >= 2**62:  # compact before the radix overflows
            _, codes = np.unique(codes, return_inverse=True)
            codes = codes.astype(np.int64)
            acc = int(codes.max()) + 1 if n else 1
        codes = codes * card + col_codes
        acc *= card
    return codes, acc


def _first_appearance_groups(codes: Any, card: int, n: int):
    """Dense group ids ordered by first appearance.

    Returns ``(gid, G, first_row)`` matching ``np.unique`` +
    first-appearance ranking.  When the code cardinality is small the
    O(n + card) scatter path avoids sorting row-count-sized data: a
    reversed scatter leaves each code's *first* row index (later writes
    win, so writing in reverse order keeps the earliest), and only the
    ≤card present codes get sorted."""
    if 0 < card <= max(2 * n, 1024):
        first_all = np.full(card, n, dtype=np.int64)
        first_all[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        present = np.flatnonzero(first_all < n)
        order = np.argsort(first_all[present], kind="stable")
        first_row = first_all[present][order]
        G = len(present)
        rank_all = np.empty(card, dtype=np.int64)
        rank_all[present[order]] = np.arange(G, dtype=np.int64)
        return rank_all[codes], G, first_row
    _uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    G = len(first)
    order = np.argsort(first, kind="stable")  # first-appearance order
    rank = np.empty(G, dtype=np.int64)
    rank[order] = np.arange(G, dtype=np.int64)
    return rank[inverse], G, first[order]


class _GroupedState:
    """Shared per-query grouping layout: segments in output-group order."""

    def __init__(self, gid: Any, G: int, n: int) -> None:
        self.gid = gid
        self.G = G
        self.n = n
        self.counts = np.bincount(gid, minlength=G) if n else np.zeros(G, dtype=np.int64)
        self.row_order = np.argsort(gid, kind="stable")
        self.sorted_gid = gid[self.row_order]
        self.starts = np.searchsorted(self.sorted_gid, np.arange(G))


def _segment_min_max(
    state: _GroupedState, values: Any, mask: Any, want_max: bool
) -> list[Any]:
    """Per-group MIN or MAX of non-null values via one lexsort sweep."""
    sv = values[state.row_order]
    sm = mask[state.row_order]
    g2 = state.sorted_gid[sm]
    v2 = sv[sm]
    out: list[Any] = [None] * state.G
    if len(g2) == 0:
        return out
    order = np.lexsort((v2, g2))
    gs = g2[order]
    vs = v2[order]
    boundary = np.concatenate([[True], gs[1:] != gs[:-1]])
    if want_max:
        # segment ends: positions just before the next boundary
        ends = np.concatenate([boundary[1:], [True]])
        groups, values_out = gs[ends], vs[ends]
    else:
        groups, values_out = gs[boundary], vs[boundary]
    for g, v in zip(groups.tolist(), values_out.tolist()):
        out[g] = v
    return out


def _aggregate_groups(
    node: Aggregate,
    state: _GroupedState,
    ctx,
) -> list[Any]:
    """Per-group values for one aggregate, bit-compatible with
    :func:`evaluate_aggregate` over the row arm's per-group lists."""
    counts = state.counts
    if isinstance(node.arg, Star):
        if node.func is AggFunc.COUNT and not node.distinct:
            return [int(c) for c in counts.tolist()]
        return [
            evaluate_aggregate(node.func, [1] * int(c), node.distinct)
            for c in counts.tolist()
        ]

    vec = _ref_vec(node.arg, ctx)
    sv = vec.values[state.row_order]
    if vec.nulls is not None:
        sm = ~vec.nulls[state.row_order]
    else:
        sm = np.ones(state.n, dtype=bool)

    if state.n == 0:
        empty = evaluate_aggregate(node.func, [], node.distinct)
        return [empty] * state.G

    nn = (
        np.add.reduceat(sm.astype(np.int64), state.starts)
        if state.G
        else np.zeros(0, dtype=np.int64)
    )

    func = node.func
    if func is AggFunc.COUNT:
        if not node.distinct:
            return [int(c) for c in nn.tolist()]
        if not vec.exact and not (vec.kind == "float" and vec.float_safe):
            raise NotVectorizable("COUNT DISTINCT over inexact column")
        g2 = state.sorted_gid[sm]
        v2 = sv[sm]
        out = [0] * state.G
        if len(g2):
            order = np.lexsort((v2, g2))
            gs, vs = g2[order], v2[order]
            fresh = np.concatenate([[True], (gs[1:] != gs[:-1]) | (vs[1:] != vs[:-1])])
            for g, c in zip(*np.unique(gs[fresh], return_counts=True)):
                out[int(g)] = int(c)
        return out

    if func in (AggFunc.MIN, AggFunc.MAX):
        # DISTINCT is a no-op for MIN/MAX; requires exact materialization.
        if not vec.exact:
            raise NotVectorizable("MIN/MAX over inexact column")
        return _segment_min_max(state, vec.values, sm, want_max=func is AggFunc.MAX)

    if func in (AggFunc.SUM, AggFunc.AVG):
        if vec.kind == "str":
            raise NotVectorizable("SUM/AVG over text column")
        if vec.kind == "int":
            max_abs = 0
            if vec.values.size:
                max_abs = max(
                    abs(int(vec.values.max())), abs(int(vec.values.min()))
                )
            if max_abs and max_abs * state.n >= _SUM_OVERFLOW_BOUND:
                raise NotVectorizable("int sum overflow risk")
            if node.distinct:
                g2 = state.sorted_gid[sm]
                v2 = sv[sm]
                sums = [0] * state.G
                dcounts = [0] * state.G
                if len(g2):
                    order = np.lexsort((v2, g2))
                    gs, vs = g2[order], v2[order]
                    fresh = np.concatenate(
                        [[True], (gs[1:] != gs[:-1]) | (vs[1:] != vs[:-1])]
                    )
                    for g, v in zip(gs[fresh].tolist(), vs[fresh].tolist()):
                        sums[g] += v  # int sums are order-independent
                        dcounts[g] += 1
                if func is AggFunc.SUM:
                    return [
                        sums[g] if dcounts[g] else None for g in range(state.G)
                    ]
                return [
                    sums[g] / dcounts[g] if dcounts[g] else None
                    for g in range(state.G)
                ]
            masked = np.where(sm, sv, 0)
            totals = np.add.reduceat(masked, state.starts)
            if func is AggFunc.SUM:
                return [
                    int(t) if c else None
                    for t, c in zip(totals.tolist(), nn.tolist())
                ]
            return [
                int(t) / int(c) if c else None
                for t, c in zip(totals.tolist(), nn.tolist())
            ]
        # float: Python's sum() is sequential; np.add.reduceat pairwise-
        # sums and diverges in the last bits, so each segment is summed
        # left-to-right (cumsum is sequential in numpy).
        if not vec.exact:
            raise NotVectorizable("SUM/AVG over inexact float column")
        if node.distinct:
            raise NotVectorizable("SUM/AVG DISTINCT over floats is order-dependent")
        out: list[Any] = []
        ends = np.concatenate([state.starts[1:], [state.n]])
        for g in range(state.G):
            seg = sv[state.starts[g]:ends[g]]
            segm = sm[state.starts[g]:ends[g]]
            if not bool(segm.all()):
                seg = seg[segm]
            if seg.size == 0:
                out.append(None)
            elif seg.size < _CUMSUM_MIN:
                total = sum(seg.tolist())
                out.append(total if func is AggFunc.SUM else total / seg.size)
            else:
                total = float(np.cumsum(seg)[-1])
                out.append(total if func is AggFunc.SUM else total / seg.size)
        return out

    raise NotVectorizable(f"unsupported aggregate {func}")


def _collect_aggregates(query: Query) -> list[Aggregate]:
    nodes: dict[Aggregate, None] = {}
    for item in query.select:
        if isinstance(item, Aggregate):
            nodes[item] = None
    for pred in conjuncts(query.having):
        for node in _having_aggregates(pred):
            nodes[node] = None
    for item in query.order_by:
        if isinstance(item.expr, Aggregate):
            nodes[item.expr] = None
    return list(nodes)


def _having_aggregates(pred: Predicate) -> list[Aggregate]:
    if isinstance(pred, (And, Or)):
        out = []
        for p in pred.operands:
            out.extend(_having_aggregates(p))
        return out
    if isinstance(pred, Comparison):
        return [s for s in (pred.left, pred.right) if isinstance(s, Aggregate)]
    return []


def _validate_having(pred: Predicate) -> None:
    """Refuse HAVING shapes the row arm rejects or we cannot precompute."""
    if isinstance(pred, (And, Or)):
        for p in pred.operands:
            _validate_having(p)
        return
    if isinstance(pred, Comparison):
        for side in (pred.left, pred.right):
            if not isinstance(side, (Aggregate, ColumnRef, Literal, Subquery)):
                raise NotVectorizable("non-constant HAVING operand")
        return
    raise NotVectorizable("unsupported HAVING predicate")


def _grouped_records(
    query: Query,
    frame: dict[str, Any],
    database: Database,
    subquery_values,
) -> list[Row]:
    """Mirror of ``_execute_grouped`` over index vectors: group codes,
    segment aggregates, per-group record building (incl. ``__order__``
    helper columns), and HAVING filtering."""
    ctx = _FrameContext(database, frame, tables=query.from_tables)
    n = ctx.length

    key_vecs = []
    key_codes = []
    for ref in query.group_by:
        vec = _ref_vec(ref, ctx)
        if not vec.exact:
            raise NotVectorizable("group key over inexact column")
        key_vecs.append(vec)
        key_codes.append(ctx.codes(*_resolve_ref(ref, ctx.tables, ctx.columns_by_table)))

    if query.group_by:
        if n == 0:
            return []  # no rows -> no groups (dict stays empty)
        # Group on cached per-column dictionary codes: exact columns make
        # code equality == Python-value equality, and group order depends
        # only on first appearance, never on code values.
        codes, card = _combine_ref_codes(key_codes, n)
        gid, G, first_row = _first_appearance_groups(codes, card, n)
    else:
        G = 1
        gid = np.zeros(n, dtype=np.int64)
        first_row = np.zeros(1, dtype=np.int64)

    state = _GroupedState(gid, G, n)

    agg_values: dict[Aggregate, list[Any]] = {}
    for node in _collect_aggregates(query):
        agg_values[node] = _aggregate_groups(node, state, ctx)

    # Per-group value of each group-key column (first occurrence).
    key_values: list[list[Any]] = []
    for vec in key_vecs:
        vals = vec.values[first_row].astype(object)
        if vec.nulls is not None:
            vals[vec.nulls[first_row]] = None
        key_values.append(vals.tolist())

    def group_key_value(ref: ColumnRef, g: int) -> Any:
        for position, group_col in enumerate(query.group_by):
            if group_col == ref or (
                group_col.column == ref.column and ref.table is None
            ):
                return key_values[position][g]
        if not query.group_by and state.counts[g]:
            vec = _ref_vec(ref, ctx)  # implicit single group: first row
            if not vec.exact:
                raise NotVectorizable("bare column over inexact column")
            i = int(first_row[g])
            if vec.nulls is not None and bool(vec.nulls[i]):
                return None
            return vec.values[i : i + 1].astype(object).tolist()[0]
        if not state.counts[g]:
            return None
        raise NotVectorizable(f"column {ref} neither grouped nor aggregated")

    if query.having is not None:
        _validate_having(query.having)

    def having_side(operand, g: int) -> Any:
        if isinstance(operand, Aggregate):
            return agg_values[operand][g]
        if isinstance(operand, ColumnRef):
            return group_key_value(operand, g)
        return evaluate_operand(operand, {}, subquery_values)

    def having_ok(pred: Predicate, g: int) -> bool:
        if isinstance(pred, And):
            return all(having_ok(p, g) for p in pred.operands)
        if isinstance(pred, Or):
            return any(having_ok(p, g) for p in pred.operands)
        assert isinstance(pred, Comparison)
        return compare(
            pred.op, having_side(pred.left, g), having_side(pred.right, g)
        )

    records: list[Row] = []
    for g in range(G):
        if query.having is not None and not having_ok(query.having, g):
            continue
        record: Row = {}
        for item in query.select:
            if isinstance(item, Aggregate):
                record[str(item)] = agg_values[item][g]
            elif isinstance(item, ColumnRef):
                record[str(item)] = group_key_value(item, g)
            else:
                raise NotVectorizable("SELECT * with GROUP BY")
        for order_item in query.order_by:
            label = str(order_item.expr)
            if label in record:
                continue
            if isinstance(order_item.expr, Aggregate):
                record["__order__" + label] = agg_values[order_item.expr][g]
            else:
                record["__order__" + label] = group_key_value(order_item.expr, g)
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Finish: plain projection, vectorized distinct / sort / limit
# ----------------------------------------------------------------------


def _stable_desc_argsort(values: Any) -> Any:
    """Stable *descending* argsort: ties keep original order (the
    reverse / stable-ascending / reverse trick)."""
    m = len(values)
    return (m - 1 - np.argsort(values[::-1], kind="stable"))[::-1]


def _plain_finish(
    query: Query,
    frame: dict[str, Any],
    database: Database,
    max_rows: int | None,
    recorder,
) -> list[Row]:
    """Vectorized SELECT / DISTINCT / ORDER BY / LIMIT for non-grouped
    queries.  LIMIT is applied to the sort permutation *before*
    materialization, so a top-k over a large join never builds the full
    output."""

    def stage(name: str):
        return recorder.stage(name) if recorder is not None else nullcontext()

    ctx = _FrameContext(database, frame, tables=query.from_tables)
    n = ctx.length

    sources: list[tuple[str, str]] = []  # (table, column) per cols entry

    def exact_vec(ref: ColumnRef) -> _Vec:
        table, column = _resolve_ref(ref, ctx.tables, ctx.columns_by_table)
        vec = ctx.vec(table, column)
        if not vec.exact:
            raise NotVectorizable("projection over inexact column")
        sources.append((table, column))
        return vec

    with stage("group"):
        cols: dict[str, _Vec] = {}
        for item in query.select:
            if isinstance(item, Star):
                for table in query.from_tables:
                    for column in database.schema.table(table).column_names:
                        vec = ctx.vec(table, column)
                        if not vec.exact:
                            raise NotVectorizable(
                                "projection over inexact column"
                            )
                        cols[_star_label(query, table, column)] = vec
                        sources.append((table, column))
            elif isinstance(item, ColumnRef):
                cols[str(item)] = exact_vec(item)
            else:  # Aggregate outside grouped execution: row arm raises
                raise NotVectorizable("aggregate outside grouped execution")
        for order_item in query.order_by:
            expr = order_item.expr
            if not isinstance(expr, ColumnRef):
                raise NotVectorizable("non-column ORDER BY in plain query")
            if str(expr) not in cols:
                cols["__order__" + str(expr)] = exact_vec(expr)

        selector = np.arange(n, dtype=np.int64)
        if query.distinct:
            # First-occurrence dedup on the full record tuple (helper
            # columns included, as tuple(row.values()) would), via cached
            # per-column dictionary codes: exact columns make code
            # equality == Python-value equality.
            codes, card = _combine_ref_codes(
                [ctx.codes(t, c) for t, c in sources], n
            )
            _gid, _G, first_row = _first_appearance_groups(codes, card, n)
            selector = np.sort(first_row)
            cols = {
                label: _Vec(
                    vec.values[selector],
                    vec.nulls[selector] if vec.nulls is not None else None,
                    vec.kind,
                    vec.exact,
                    vec.float_safe,
                )
                for label, vec in cols.items()
            }

    m = len(selector)
    perm = np.arange(m, dtype=np.int64)
    if query.order_by:
        with stage("sort"):
            for order_item in reversed(query.order_by):
                label = str(order_item.expr)
                vec = cols.get(label) or cols["__order__" + label]
                values = vec.values[perm]
                if order_item.desc:
                    perm = perm[_stable_desc_argsort(values)]
                else:
                    perm = perm[np.argsort(values, kind="stable")]
                if vec.nulls is not None:
                    # NULLs last, preserving their relative order (the
                    # row arm's (missing, value) composite key).
                    perm = perm[np.argsort(vec.nulls[perm], kind="stable")]

    effective = m
    if query.limit is not None:
        effective = min(effective, query.limit)
    if max_rows is not None:
        effective = min(effective, max_rows)
    perm = perm[:effective]

    labels = [label for label in cols if not label.startswith("__order__")]
    columns_out = []
    for label in labels:
        vec = cols[label]
        out = vec.values[perm].astype(object)
        if vec.nulls is not None:
            out[vec.nulls[perm]] = None
        columns_out.append(out.tolist())
    if not labels:
        return [{} for _ in range(effective)]
    return rows_from_values(labels, zip(*columns_out))


def _materialize_joined(
    frame: dict[str, Any], database: Database
) -> list[dict[str, Row]]:
    views = {t: database.scan(t) for t in frame}
    lists = {t: ix.tolist() for t, ix in frame.items()}
    k = len(next(iter(lists.values())))
    tables = list(frame)
    return [
        {t: views[t][lists[t][j]] for t in tables} for j in range(k)
    ]


def columnar_finish(
    query: Query,
    frame: dict[str, Any],
    database: Database,
    subquery_values,
    max_rows: int | None,
    recorder,
    trace: ColumnarTrace,
) -> list[Row]:
    """Vectorized finish with transparent fallback to the shared
    :func:`finish_rows` (group/project semantics can never diverge —
    fallback *is* the row arm)."""
    has_aggregates = bool(query.aggregates()) or any(
        isinstance(i, Aggregate) for i in query.select
    )

    def stage(name: str):
        return recorder.stage(name) if recorder is not None else nullcontext()

    try:
        if query.group_by or has_aggregates:
            with stage("group"):
                records = _grouped_records(query, frame, database, subquery_values)
            trace.record("finish", "vectorized")
            return apply_distinct_order_limit(
                query, records, max_rows=max_rows, recorder=recorder
            )
        result = _plain_finish(query, frame, database, max_rows, recorder)
        trace.record("finish", "vectorized")
        return result
    except NotVectorizable as exc:
        trace.record("finish", "row", exc.reason)
        joined = _materialize_joined(frame, database)
        return finish_rows(
            query, joined, subquery_values, max_rows=max_rows, recorder=recorder
        )


# ----------------------------------------------------------------------
# Top-level columnar execution
# ----------------------------------------------------------------------


def execute_columnar(
    plan,
    database: Database,
    session,
    subquery_values,
    recorder,
    max_rows: int | None,
    trace: ColumnarTrace,
) -> list[Row]:
    """Run a built plan through the columnar arm.

    The intermediate is always index vectors; each stage independently
    chooses vectorized or row execution (recorded on ``trace``), so the
    result is bit-identical to the row arm by construction.
    """

    def stage(name: str):
        return recorder.stage(name) if recorder is not None else nullcontext()

    with stage("scan") as scan_stats:
        base_idx = scan_indices(plan.base, database, session, subquery_values, trace)
        if scan_stats is not None:
            scan_stats.items += len(base_idx)
    frame: dict[str, Any] = {plan.base.table: base_idx}

    for step in plan.joins:
        with stage("scan") as scan_stats:
            scan_idx = scan_indices(
                step.scan, database, session, subquery_values, trace
            )
            if scan_stats is not None:
                scan_stats.items += len(scan_idx)
        with stage("join") as join_stats:
            frame = join_step_indices(frame, scan_idx, step, database, trace)
            if join_stats is not None:
                join_stats.items += len(next(iter(frame.values())))

    if plan.residual:
        with stage("filter"):
            frame = residual_filter(
                frame,
                plan.residual,
                plan.query.from_tables,
                database,
                subquery_values,
                trace,
            )

    return columnar_finish(
        plan.query, frame, database, subquery_values, max_rows, recorder, trace
    )

"""Canonical forms for SQL ASTs — one rewrite, two strengths.

A single bottom-up walk (:func:`_rewrite`) makes spelling noise
disappear.  Each node's children are finished before the node itself
is flattened, sorted or merged, so the walk never revisits a node.

**Syntactic rules** (always on; :func:`normalize` /
:func:`canonical_sql`, the unit of exact match and of pattern
signatures):

1. ``a OP b`` with the column on the right is flipped (``18 < age``
   becomes ``age > 18``); column-to-column comparisons order their
   columns by printed form.
2. ``NOT`` over a comparison folds into the negated operator; ``NOT
   (NOT p)`` cancels; ``NOT IN``/``NOT LIKE``/``NOT EXISTS`` fold into
   the predicate's ``negated`` flag.
3. AND/OR operand lists are flattened, sorted by printed form and
   deduplicated.
4. ``IN`` value lists are sorted; ``x IN (v)`` becomes ``x = v``.
5. Integral floats are integers (``18.0`` is ``18``).
6. Table qualifiers on column refs are dropped when the query reads
   from a single concrete table (they are redundant there).
7. SELECT items and GROUP BY keys keep their order (projection order is
   part of the answer), but duplicate SELECT items are collapsed.
   ``LIMIT``/``ORDER BY`` are preserved verbatim.

**Semantic rules** (:func:`canonicalize` / :func:`canonical_text` /
:func:`canonical_key`) go further: a larger class of result-equivalent
spellings collapses to one AST.  The canonical form backs semantic
corpus dedupe, the ``semantic_match`` eval column, the repair loop's
oscillation guard and the equivalence oracle's proofs — so its
soundness contract is strict:

    every rewrite must be **result-invariant** on the reference
    executor (:mod:`repro.db`).  Two queries may share a canonical form
    only if they produce the same result values on *every* database
    over the schema.

Each rule is justified against the executor's documented semantics in
:mod:`repro.db.expressions`:

8. **Qualifier completion** (schema-aware).  In a multi-table query an
   unqualified column ref is qualified with its owning table when
   exactly one FROM table owns the column — precisely the executor's
   own name resolution, which errors on any other case.
9. **BETWEEN / chained-comparison normal form.**  ``col BETWEEN lo AND
   hi`` becomes ``col >= lo AND col <= hi`` — the executor evaluates
   BETWEEN as exactly this conjunction (inclusive bounds, NULL→False).
10. **IN-list normal form.**  ``col = a OR col = b [OR col IN (...)]``
    merges into a single sorted, deduplicated ``col IN (a, b, ...)``;
    the executor's membership test agrees with a disjunction of its
    ``=`` comparisons on every value type it supports (NULL→False,
    cross-type→False).  Value lists are deduplicated, and a list left
    with one value is ``=`` again.
11. **Placeholder normalization** (schema-aware).  A typed constant
    placeholder is renamed to the dotted upper-case ``TABLE.COLUMN`` of
    the column it is compared against (the anonymization map's own
    convention), when that column resolves uniquely — so ``@AGE`` and
    ``@PATIENT.AGE`` unify wherever they denote the same constant slot.
    Renames are applied only when they keep the query's placeholder set
    injective: two *distinct* source placeholders are never merged.
12. **GROUP BY key ordering.**  GROUP BY keys are sorted by printed
    form: the grouping partition is a *set* of keys, and the executor
    emits groups in first-appearance scan order, which permuting the
    key tuple cannot change.

There are no table aliases in this SQL subset, so alias normalization
is the identity.  The differential fuzz suite
(``tests/test_canonical_soundness.py``) enforces the contract over all
catalog schemas; any rewrite that cannot survive it must be removed,
never special-cased.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace
from operator import itemgetter

from repro.sql.ast import (
    JOIN_PLACEHOLDER,
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
    OrderItem,
    Placeholder,
    Predicate,
    Query,
    Subquery,
)
from repro.sql.printer import predicate_to_sql, to_sql


def normalize(query: Query) -> Query:
    """Return ``query`` under the syntactic rules (1-7) only."""
    return _rewrite(query, None, canonical=False)


def canonical_sql(query: Query) -> str:
    """Printed normalized form, the unit of exact-match comparison."""
    return to_sql(normalize(query))


def canonicalize(query: Query, schema=None) -> Query:
    """Return the canonical form of ``query`` (optionally schema-aware).

    Without a schema only the schema-independent rewrites run
    (BETWEEN/IN normal forms, ordering); with one, qualifier completion
    and placeholder normalization run too.  Idempotent:
    ``canonicalize(canonicalize(q)) == canonicalize(q)``.
    """
    return _rewrite(query, schema, canonical=True)


def canonical_text(query: Query, schema=None) -> str:
    """Printed canonical form — the unit of semantic comparison."""
    return to_sql(canonicalize(query, schema))


def canonical_key(query: Query, schema=None) -> str:
    """Stable digest of ``(canonical form, schema name)``.

    Two queries share a key iff they share a canonical form over the
    same schema; the digest is safe to persist (blake2b, not ``hash``).
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update((schema.name if schema is not None else "").encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_text(query, schema).encode("utf-8"))
    return digest.hexdigest()


def canonical_key_for_sql(sql: str, schema=None) -> str | None:
    """``canonical_key`` over raw SQL text; ``None`` when unparseable.

    Raw model output may be arbitrarily malformed — parse failures must
    not raise.
    """
    from repro.errors import ReproError
    from repro.sql.parser import parse

    try:
        return canonical_key(parse(sql), schema)
    except (ReproError, ValueError):
        return None


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------


def _rewrite(query: Query, schema, canonical: bool) -> Query:
    """Rules 1-7, plus rules 8-12 when ``canonical``; subqueries recurse."""
    concrete = [t for t in query.from_tables if t != JOIN_PLACEHOLDER]
    single_table = None
    if len(query.from_tables) == 1 and len(concrete) == 1:
        single_table = concrete[0]
    schema_scope = (
        canonical
        and schema is not None
        and len(concrete) == len(query.from_tables)
        and all(t in schema for t in concrete)
    )
    qualifying = schema_scope and len(concrete) > 1

    def ref(column: ColumnRef) -> ColumnRef:
        if column.table is None:
            if qualifying:
                owners = [t for t in concrete if column.column in schema.table(t)]
                if len(owners) == 1:
                    return ColumnRef(column.column, owners[0])
        elif column.table == single_table:
            return ColumnRef(column.column)
        return column

    renames = (
        _placeholder_renames(query, schema, concrete, ref) if schema_scope else {}
    )

    def operand(value):
        if isinstance(value, ColumnRef):
            return ref(value)
        if isinstance(value, Subquery):
            return Subquery(_rewrite(value.query, schema, canonical))
        if isinstance(value, Literal):
            if isinstance(value.value, float) and value.value.is_integer():
                return Literal(int(value.value))
        elif isinstance(value, Placeholder):
            if value.name in renames:
                return Placeholder(renames[value.name])
        elif (
            qualifying
            and isinstance(value, Aggregate)
            and isinstance(value.arg, ColumnRef)
        ):
            return replace(value, arg=ref(value.arg))
        return value

    def select_item(item):
        if isinstance(item, ColumnRef):
            return ref(item)
        if isinstance(item, Aggregate) and isinstance(item.arg, ColumnRef):
            return replace(item, arg=ref(item.arg))
        return item

    def in_list(pred: InPredicate, negate: bool, disjunct: bool) -> Predicate:
        column = ref(pred.column)
        sub = None
        if pred.subquery is not None:
            sub = Subquery(_rewrite(pred.subquery.query, schema, canonical))
        values = sorted(map(operand, pred.values), key=str)
        if len(values) == 1 and sub is None and not pred.negated:
            # x IN (v) is x = v.
            op = CompOp.NE if negate else CompOp.EQ
            if canonical:
                return _orient(column, op, values[0])
            return Comparison(column, op, values[0])
        negated = pred.negated != negate
        if canonical:
            values = _sorted_unique(values, str)
            # A disjunct stays a list: the enclosing OR merges it (rule 10).
            if len(values) == 1 and sub is None and not negated and not disjunct:
                return Comparison(column, CompOp.EQ, values[0])
        return InPredicate(column, tuple(values), sub, negated)

    def walk(pred: Predicate, disjunct: bool = False) -> Predicate:
        if isinstance(pred, Comparison):
            left, op, right = pred.left, pred.op, pred.right
            if qualifying:
                # Orient the written spelling first: completing a
                # qualifier may tie two columns' printed forms.
                first = _orient(left, op, right)
                left, op, right = first.left, first.op, first.right
            return _orient(operand(left), op, operand(right))
        if isinstance(pred, InPredicate):
            return in_list(pred, False, disjunct)
        if isinstance(pred, Between):
            column = ref(pred.column)
            low, high = operand(pred.low), operand(pred.high)
            if canonical:
                return _join(
                    And,
                    [
                        _orient(column, CompOp.GE, low),
                        _orient(column, CompOp.LE, high),
                    ],
                )
            return Between(column, low, high)
        if isinstance(pred, Like):
            return Like(ref(pred.column), operand(pred.pattern), pred.negated)
        if isinstance(pred, Exists):
            return Exists(
                Subquery(_rewrite(pred.subquery.query, schema, canonical)),
                pred.negated,
            )
        if isinstance(pred, Not):
            inner = pred.operand
            if isinstance(inner, Not):
                return walk(inner.operand, disjunct)
            if isinstance(inner, InPredicate):
                # Negate before deduplicating values: NOT (x IN (1, 1))
                # is x NOT IN (1), not x <> 1.
                return in_list(inner, True, disjunct)
            return _negate(walk(inner))
        if isinstance(pred, And):
            return _join(And, _flatten(And, map(walk, pred.operands)))
        if isinstance(pred, Or):
            disjuncts = _flatten(Or, [walk(p, True) for p in pred.operands])
            if canonical:
                disjuncts = _merge_disjuncts(disjuncts, collapse=not disjunct)
            return _join(Or, disjuncts)
        raise TypeError(f"unsupported predicate: {pred!r}")

    select: list = []
    for item in query.select:
        item = select_item(item)
        if item not in select:
            select.append(item)
    group_by = [ref(c) for c in query.group_by]
    if canonical:
        group_by.sort(key=str)

    return Query(
        select=tuple(select),
        from_tables=tuple(sorted(query.from_tables)),
        where=walk(query.where) if query.where is not None else None,
        group_by=tuple(group_by),
        having=walk(query.having) if query.having is not None else None,
        order_by=tuple(
            OrderItem(select_item(o.expr), o.desc) for o in query.order_by
        ),
        limit=query.limit,
        distinct=query.distinct,
    )


def _orient(left, op: CompOp, right) -> Comparison:
    """Column on the left; two columns in printed order (rule 1)."""
    if isinstance(right, ColumnRef) and (
        not isinstance(left, ColumnRef) or str(right) < str(left)
    ):
        return Comparison(right, op.flipped(), left)
    return Comparison(left, op, right)


def _negate(pred: Predicate) -> Predicate:
    """Fold a ``NOT`` over a finished predicate (rule 2)."""
    if isinstance(pred, Comparison):
        return Comparison(pred.left, pred.op.negated(), pred.right)
    if isinstance(pred, Not):
        return pred.operand
    if isinstance(pred, (InPredicate, Like, Exists)):
        return replace(pred, negated=not pred.negated)
    return Not(pred)


def _flatten(kind, preds) -> list[Predicate]:
    flat: list[Predicate] = []
    for pred in preds:
        if isinstance(pred, kind):
            flat.extend(pred.operands)
        else:
            flat.append(pred)
    return flat


def _join(kind, preds: list[Predicate]) -> Predicate:
    """Sort by printed form, drop duplicates, and rebuild ``kind`` (rule 3)."""
    unique = _sorted_unique(preds, predicate_to_sql)
    return unique[0] if len(unique) == 1 else kind(tuple(unique))


def _sorted_unique(items, key) -> list:
    """Stable sort by ``key``, keeping the first item of each key."""
    unique = []
    last = None
    for text, item in sorted(zip(map(key, items), items), key=itemgetter(0)):
        if text != last:
            unique.append(item)
            last = text
    return unique


def _merge_disjuncts(disjuncts: list[Predicate], collapse: bool) -> list[Predicate]:
    """Merge ``col = v`` / ``col IN (...)`` disjuncts per column (rule 10).

    A merged single value becomes ``col = v`` only when ``collapse``;
    an OR nested in another OR leaves it a list for the outer merge.
    """
    groups: dict[str, tuple[ColumnRef, list]] = {}
    rest: list[Predicate] = []
    for pred in disjuncts:
        if (
            isinstance(pred, Comparison)
            and pred.op is CompOp.EQ
            and isinstance(pred.left, ColumnRef)
            and isinstance(pred.right, (Literal, Placeholder))
        ):
            column, values = pred.left, [pred.right]
        elif (
            isinstance(pred, InPredicate)
            and not pred.negated
            and pred.subquery is None
            and pred.values
        ):
            column, values = pred.column, pred.values
        else:
            rest.append(pred)
            continue
        groups.setdefault(str(column), (column, []))[1].extend(values)
    merged: list[Predicate] = []
    for column, values in groups.values():
        values = _sorted_unique(values, str)
        if len(values) == 1 and collapse:
            merged.append(_orient(column, CompOp.EQ, values[0]))
        else:
            merged.append(InPredicate(column, tuple(values)))
    return merged + rest


def _placeholder_renames(query: Query, schema, concrete, ref) -> dict[str, str]:
    """Injective source-name → ``TABLE.COLUMN`` rename map (rule 11).

    A read-only scan of WHERE/HAVING, run before the walk rewrites them.
    """
    proposals: dict[str, str] = {}

    def resolve_table(column: ColumnRef) -> str | None:
        column = ref(column)
        if column.table is not None:
            return column.table
        if len(concrete) == 1 and column.column in schema.table(concrete[0]):
            return concrete[0]
        return None

    def propose(placeholder, column: ColumnRef) -> None:
        # Only normalize placeholders the anonymization map named after
        # the compared column (``@AGE`` / ``@PATIENTS.AGE`` against
        # ``age``); an unrelated name denotes a different constant slot
        # and must never be re-keyed onto this column.
        if placeholder.column != column.column.lower():
            return
        table = resolve_table(column)
        if table is None:
            return
        if placeholder.table is not None and placeholder.table != table.lower():
            return
        target = f"{table.upper()}.{column.column.upper()}"
        existing = proposals.get(placeholder.name)
        if existing is not None and existing != target:
            # Conflicting contexts: leave the placeholder alone.
            proposals[placeholder.name] = placeholder.name
        else:
            proposals[placeholder.name] = target

    def scan(pred: Predicate) -> None:
        if isinstance(pred, Comparison):
            left, right = pred.left, pred.right
            if isinstance(left, ColumnRef) and isinstance(right, Placeholder):
                propose(right, left)
            elif isinstance(right, ColumnRef) and isinstance(left, Placeholder):
                propose(left, right)
        elif isinstance(pred, Between):
            for side in (pred.low, pred.high):
                if isinstance(side, Placeholder):
                    propose(side, pred.column)
        elif isinstance(pred, InPredicate):
            for value in pred.values:
                if isinstance(value, Placeholder):
                    propose(value, pred.column)
        elif isinstance(pred, Like):
            if isinstance(pred.pattern, Placeholder):
                propose(pred.pattern, pred.column)
        elif isinstance(pred, Not):
            scan(pred.operand)
        elif isinstance(pred, (And, Or)):
            for operand in pred.operands:
                scan(operand)

    for clause in (query.where, query.having):
        if clause is not None:
            scan(clause)
    renamed = {s: t for s, t in proposals.items() if s != t}
    if not renamed:
        return {}
    # Enforce injectivity over the full placeholder-name population:
    # a rename that would collide with another source name (renamed or
    # not) is dropped, so two distinct constant slots never merge.
    population = {p.name for p in query.placeholders()}
    targets = Counter(renamed.get(name, name) for name in population)
    return {s: t for s, t in renamed.items() if targets[t] == 1}

"""Abstract syntax tree for the SQL subset used throughout the paper.

The subset covers what DBPal's seed templates and the evaluation
workloads need (paper §3.1, §5):

* ``SELECT [DISTINCT] items FROM tables [WHERE pred] [GROUP BY cols]
  [HAVING pred] [ORDER BY items] [LIMIT n]``
* aggregates ``COUNT/SUM/AVG/MIN/MAX`` (with ``COUNT(*)`` and
  ``DISTINCT`` args),
* comparison / BETWEEN / IN / LIKE / EXISTS predicates combined with
  AND/OR/NOT,
* uncorrelated subqueries in scalar comparisons, ``IN`` and ``EXISTS``,
* the paper's placeholders: typed constant placeholders such as
  ``@AGE`` or ``@STATE.NAME`` and the ``@JOIN`` FROM-clause placeholder
  (§5.1).

All nodes are immutable (frozen dataclasses); equality is structural,
which the normalizer and the equivalence oracle build on.

Nodes produced by the parser additionally carry a :class:`Span` — the
character range of the node in the original SQL text — used by the
static analyzer (:mod:`repro.analysis`) to anchor diagnostics.  Spans
are excluded from equality and hashing (``compare=False``), so two
structurally identical queries compare equal regardless of where their
tokens sat in the source; hand-built ASTs simply leave spans ``None``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.errors import SqlParseError

#: Sentinel table name standing for a to-be-inferred join path (§5.1).
JOIN_PLACEHOLDER = "@JOIN"


@dataclass(frozen=True)
class Span:
    """A half-open ``[start, end)`` character range in the source SQL."""

    start: int
    end: int

    def slice(self, text: str) -> str:
        """The source fragment this span covers."""
        return text[self.start : self.end]


class AggFunc(enum.Enum):
    """Aggregate functions in the SQL subset."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


class CompOp(enum.Enum):
    """Comparison operators."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flipped(self) -> "CompOp":
        """The operator with its operand order reversed (a OP b == b OP' a)."""
        return _FLIPPED[self]

    def negated(self) -> "CompOp":
        """The logical complement (NOT (a OP b) == a OP' b)."""
        return _NEGATED[self]


_FLIPPED = {
    CompOp.EQ: CompOp.EQ,
    CompOp.NE: CompOp.NE,
    CompOp.LT: CompOp.GT,
    CompOp.LE: CompOp.GE,
    CompOp.GT: CompOp.LT,
    CompOp.GE: CompOp.LE,
}

_NEGATED = {
    CompOp.EQ: CompOp.NE,
    CompOp.NE: CompOp.EQ,
    CompOp.LT: CompOp.GE,
    CompOp.LE: CompOp.GT,
    CompOp.GT: CompOp.LE,
    CompOp.GE: CompOp.LT,
}


# ----------------------------------------------------------------------
# Value expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly table-qualified) column reference."""

    column: str
    table: str | None = None
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Star:
    """``*`` — all columns."""

    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Literal:
    """A constant value (int, float, or string)."""

    value: int | float | str
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass(frozen=True)
class Placeholder:
    """An anonymized constant such as ``@AGE`` or ``@STATE.NAME`` (§3.1).

    ``name`` stores the text after ``@``; it may be dotted to qualify
    the source table.
    """

    name: str
    span: Span | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return "@" + self.name

    @property
    def column(self) -> str:
        """The column part of the placeholder name."""
        return self.name.rsplit(".", 1)[-1].lower()

    @property
    def table(self) -> str | None:
        """The table part of a dotted placeholder name, if present."""
        if "." in self.name:
            return self.name.split(".", 1)[0].lower()
        return None


@dataclass(frozen=True)
class Aggregate:
    """An aggregate expression such as ``AVG(age)`` or ``COUNT(*)``."""

    func: AggFunc
    arg: ColumnRef | Star
    distinct: bool = False
    span: Span | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Checked here, not only in the parser, so no engine sees it:
        # the memory engines would answer SUM(*) where sqlite refuses.
        if type(self.arg) is Star and (self.func is not AggFunc.COUNT or self.distinct):
            raise SqlParseError(f"{self} is not allowed; only COUNT(*) takes *")

    def __str__(self) -> str:
        inner = ("DISTINCT " if self.distinct else "") + str(self.arg)
        return f"{self.func.value}({inner})"


#: Anything that may appear in a SELECT list.
SelectItem = Union[ColumnRef, Aggregate, Star]

#: Anything that may appear as a comparison operand.
Operand = Union[ColumnRef, Literal, Placeholder, "Subquery", Aggregate]


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """``left OP right``; also encodes join conditions (column = column)."""

    left: Operand
    op: CompOp
    right: Operand
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Between:
    """``col BETWEEN low AND high``."""

    column: ColumnRef
    low: Literal | Placeholder
    high: Literal | Placeholder
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class InPredicate:
    """``col IN (v1, v2, ...)`` or ``col IN (subquery)``."""

    column: ColumnRef
    values: tuple[Literal | Placeholder, ...] = ()
    subquery: "Subquery | None" = None
    negated: bool = False
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Like:
    """``col LIKE pattern``."""

    column: ColumnRef
    pattern: Literal | Placeholder
    negated: bool = False
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Exists:
    """``EXISTS (subquery)``."""

    subquery: "Subquery"
    negated: bool = False
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Not:
    """Logical negation."""

    operand: "Predicate"


@dataclass(frozen=True)
class And:
    """Conjunction of two or more predicates."""

    operands: tuple["Predicate", ...]

    def __post_init__(self) -> None:
        assert len(self.operands) >= 2, "And requires at least two operands"


@dataclass(frozen=True)
class Or:
    """Disjunction of two or more predicates."""

    operands: tuple["Predicate", ...]

    def __post_init__(self) -> None:
        assert len(self.operands) >= 2, "Or requires at least two operands"


Predicate = Union[Comparison, Between, InPredicate, Like, Exists, Not, And, Or]


def conjoin(predicates: list["Predicate"]) -> "Predicate | None":
    """AND together a list of predicates (None for an empty list)."""
    flat: list[Predicate] = []
    for pred in predicates:
        if isinstance(pred, And):
            flat.extend(pred.operands)
        else:
            flat.append(pred)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def conjuncts(predicate: "Predicate | None") -> list["Predicate"]:
    """Flatten a predicate into its top-level AND operands."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        result: list[Predicate] = []
        for operand in predicate.operands:
            result.extend(conjuncts(operand))
        return result
    return [predicate]


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: ColumnRef | Aggregate
    desc: bool = False


@dataclass(frozen=True)
class Query:
    """A SELECT query in the supported subset."""

    select: tuple[SelectItem, ...]
    from_tables: tuple[str, ...]
    where: Predicate | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Predicate | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False
    span: Span | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Checked here, not only in the parser, so no engine or printer
        # sees a limit built in code: a Python slice would drop rows
        # where sqlite reads a negative LIMIT as "no limit".
        limit = self.limit
        if limit is not None and (type(limit) is not int or limit < 0):
            raise SqlParseError(
                f"LIMIT takes a non-negative integer but got {limit!r}"
            )

    @property
    def uses_join_placeholder(self) -> bool:
        """Whether the FROM clause is the ``@JOIN`` placeholder (§5.1)."""
        return JOIN_PLACEHOLDER in self.from_tables

    # -- traversal -----------------------------------------------------

    def walk_predicates(self) -> Iterator[Predicate]:
        """Yield every predicate node in WHERE and HAVING, recursively.

        Subquery-internal predicates are *not* yielded; use
        :meth:`walk_subqueries` and recurse explicitly when needed.
        """
        stack: list[Predicate] = []
        if self.where is not None:
            stack.append(self.where)
        if self.having is not None:
            stack.append(self.having)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (And, Or)):
                stack.extend(node.operands)
            elif isinstance(node, Not):
                stack.append(node.operand)

    def walk_subqueries(self) -> Iterator["Query"]:
        """Yield every directly nested subquery."""
        for pred in self.walk_predicates():
            if isinstance(pred, Comparison):
                for side in (pred.left, pred.right):
                    if isinstance(side, Subquery):
                        yield side.query
            elif isinstance(pred, InPredicate) and pred.subquery is not None:
                yield pred.subquery.query
            elif isinstance(pred, Exists):
                yield pred.subquery.query

    @property
    def is_nested(self) -> bool:
        """Whether the query contains at least one subquery."""
        return next(self.walk_subqueries(), None) is not None

    def placeholders(self) -> list[Placeholder]:
        """All constant placeholders, in a deterministic order."""
        found: list[Placeholder] = []

        def scan_operand(operand: Operand) -> None:
            if isinstance(operand, Placeholder):
                found.append(operand)
            elif isinstance(operand, Subquery):
                found.extend(operand.query.placeholders())

        def scan_query(query: Query) -> None:
            for pred in sorted(query.walk_predicates(), key=str):
                if isinstance(pred, Comparison):
                    scan_operand(pred.left)
                    scan_operand(pred.right)
                elif isinstance(pred, Between):
                    scan_operand(pred.low)
                    scan_operand(pred.high)
                elif isinstance(pred, InPredicate):
                    for value in pred.values:
                        scan_operand(value)
                    if pred.subquery is not None:
                        scan_query(pred.subquery.query)
                elif isinstance(pred, Like):
                    scan_operand(pred.pattern)
                elif isinstance(pred, Exists):
                    scan_query(pred.subquery.query)

        scan_query(self)
        return found

    def column_refs(self) -> list[ColumnRef]:
        """Every column reference in the query (select, where, group, order)."""
        refs: list[ColumnRef] = []

        def scan_operand(operand: Operand) -> None:
            if isinstance(operand, ColumnRef):
                refs.append(operand)
            elif isinstance(operand, Aggregate) and isinstance(operand.arg, ColumnRef):
                refs.append(operand.arg)
            elif isinstance(operand, Subquery):
                refs.extend(operand.query.column_refs())

        for item in self.select:
            if not isinstance(item, Star):
                scan_operand(item)
        for pred in self.walk_predicates():
            if isinstance(pred, Comparison):
                scan_operand(pred.left)
                scan_operand(pred.right)
            elif isinstance(pred, Between):
                refs.append(pred.column)
            elif isinstance(pred, InPredicate):
                refs.append(pred.column)
                if pred.subquery is not None:
                    refs.extend(pred.subquery.query.column_refs())
            elif isinstance(pred, Like):
                refs.append(pred.column)
            elif isinstance(pred, Exists):
                refs.extend(pred.subquery.query.column_refs())
        refs.extend(self.group_by)
        for item in self.order_by:
            scan_operand(item.expr)
        return refs

    def referenced_tables(self) -> list[str]:
        """Table names mentioned by qualified column refs (not FROM)."""
        names: list[str] = []
        for ref in self.column_refs():
            if ref.table and ref.table not in names:
                names.append(ref.table)
        return names

    def aggregates(self) -> list[Aggregate]:
        """All aggregate expressions in SELECT, HAVING and ORDER BY."""
        aggs = [item for item in self.select if isinstance(item, Aggregate)]
        for pred in conjuncts(self.having):
            if isinstance(pred, Comparison):
                for side in (pred.left, pred.right):
                    if isinstance(side, Aggregate):
                        aggs.append(side)
        for item in self.order_by:
            if isinstance(item.expr, Aggregate):
                aggs.append(item.expr)
        return aggs


@dataclass(frozen=True)
class Subquery:
    """A parenthesized nested query used as an operand."""

    query: Query

    def __str__(self) -> str:
        from repro.sql.printer import to_sql  # local import avoids a cycle

        return "(" + to_sql(self.query) + ")"

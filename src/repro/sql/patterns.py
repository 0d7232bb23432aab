"""Query-pattern signatures for the pattern-coverage analysis (Table 4).

A *pattern* abstracts a query down to its SQL shape: identifiers become
``T``/``C``, constants become ``V``, but aggregate functions, predicate
kinds, clause structure and nesting are preserved.  Two queries share a
pattern iff a user could obtain one from the other by renaming schema
elements and changing constants.

The paper uses this notion to split Spider test queries into four
buckets — pattern seen in *both* training sources, only in *DBPal*'s
synthesized data, only in the *Spider* training set, or in *neither*
(§6.3.1, Table 4).
"""

from __future__ import annotations

from repro.sql.ast import (
    Aggregate,
    And,
    Between,
    ColumnRef,
    Comparison,
    Exists,
    InPredicate,
    Like,
    Literal,
    Not,
    Or,
    Placeholder,
    Predicate,
    Query,
    Star,
    Subquery,
)
from repro.sql.canonical import normalize


def pattern_signature(query: Query) -> str:
    """Canonical pattern string for ``query``."""
    return _query_sig(normalize(query))


def _query_sig(query: Query) -> str:
    parts = ["SELECT"]
    if query.distinct:
        parts.append("DISTINCT")
    parts.append(",".join(sorted(_item_sig(i) for i in query.select)))
    if query.uses_join_placeholder or len(query.from_tables) > 1:
        parts.append("FROM JOIN")
    else:
        parts.append("FROM T")
    if query.where is not None:
        parts.append("WHERE " + _pred_sig(query.where))
    if query.group_by:
        parts.append(f"GROUPBY[{len(query.group_by)}]")
    if query.having is not None:
        parts.append("HAVING " + _pred_sig(query.having))
    if query.order_by:
        directions = "/".join(
            ("AGG" if isinstance(o.expr, Aggregate) else "C") + ("-DESC" if o.desc else "")
            for o in query.order_by
        )
        parts.append(f"ORDERBY[{directions}]")
    if query.limit is not None:
        parts.append("LIMIT")
    return " ".join(parts)


def _item_sig(item) -> str:
    if isinstance(item, Star):
        return "*"
    if isinstance(item, ColumnRef):
        return "C"
    if isinstance(item, Aggregate):
        arg = "*" if isinstance(item.arg, Star) else "C"
        distinct = "DISTINCT " if item.distinct else ""
        return f"{item.func.value}({distinct}{arg})"
    raise TypeError(f"unsupported select item: {item!r}")


def _operand_sig(operand) -> str:
    if isinstance(operand, ColumnRef):
        return "C"
    if isinstance(operand, (Literal, Placeholder)):
        return "V"
    if isinstance(operand, Aggregate):
        return _item_sig(operand)
    if isinstance(operand, Subquery):
        return "(" + _query_sig(operand.query) + ")"
    raise TypeError(f"unsupported operand: {operand!r}")


def _pred_sig(pred: Predicate) -> str:
    if isinstance(pred, Comparison):
        left = _operand_sig(pred.left)
        right = _operand_sig(pred.right)
        if left == "C" and right == "C":
            return "C JOIN C"  # join conditions are all alike
        op = "=" if pred.op.value in ("=", "<>") else "CMP"
        return f"{left} {op} {right}"
    if isinstance(pred, Between):
        return "C BETWEEN V AND V"
    if isinstance(pred, InPredicate):
        neg = "NOT " if pred.negated else ""
        if pred.subquery is not None:
            return f"C {neg}IN ({_query_sig(pred.subquery.query)})"
        return f"C {neg}IN [V]"
    if isinstance(pred, Like):
        neg = "NOT " if pred.negated else ""
        return f"C {neg}LIKE V"
    if isinstance(pred, Exists):
        neg = "NOT " if pred.negated else ""
        return f"{neg}EXISTS ({_query_sig(pred.subquery.query)})"
    if isinstance(pred, Not):
        return f"NOT ({_pred_sig(pred.operand)})"
    if isinstance(pred, And):
        return " AND ".join(sorted(_pred_sig(p) for p in pred.operands))
    if isinstance(pred, Or):
        return "(" + " OR ".join(sorted(_pred_sig(p) for p in pred.operands)) + ")"
    raise TypeError(f"unsupported predicate: {pred!r}")


def pattern_set(queries) -> set[str]:
    """Signatures of an iterable of queries (ASTs or SQL strings)."""
    from repro.sql.parser import parse

    signatures: set[str] = set()
    for query in queries:
        if isinstance(query, str):
            query = parse(query)
        signatures.add(pattern_signature(query))
    return signatures

"""Scalar and predicate evaluation for the executor.

A *joined row* is a mapping ``table name -> row dict``.  Column
references resolve against it: qualified refs index directly, while
unqualified refs must be unambiguous across the FROM tables (mirroring
SQL name resolution).  Subqueries are uncorrelated in the supported
subset, so their results are computed once by the executor and passed
in via ``subquery_values``.
"""

from __future__ import annotations

import fnmatch
from typing import Any, Callable, Mapping

from repro.errors import ExecutionError
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
    Placeholder,
    Predicate,
    Subquery,
)

JoinedRow = Mapping[str, Mapping[str, Any]]

#: Resolver type: maps an already-executed subquery to its value(s).
SubqueryValues = Callable[[Subquery], Any]


def resolve_column(ref: ColumnRef, row: JoinedRow) -> Any:
    """Resolve a column reference against a joined row."""
    if ref.table is not None:
        try:
            return row[ref.table][ref.column]
        except KeyError:
            raise ExecutionError(f"unknown column reference {ref}") from None
    candidates = [t for t, r in row.items() if ref.column in r]
    if not candidates:
        raise ExecutionError(f"unknown column {ref.column!r}")
    if len(candidates) > 1:
        raise ExecutionError(
            f"ambiguous column {ref.column!r}; present in {sorted(candidates)}"
        )
    return row[candidates[0]][ref.column]


def evaluate_operand(operand, row: JoinedRow, subquery_values: SubqueryValues) -> Any:
    """Evaluate a scalar operand in the context of ``row``."""
    if isinstance(operand, ColumnRef):
        return resolve_column(operand, row)
    if isinstance(operand, Literal):
        return operand.value
    if isinstance(operand, Placeholder):
        raise ExecutionError(
            f"cannot execute query containing unresolved placeholder @{operand.name}; "
            "run the post-processor first"
        )
    if isinstance(operand, Subquery):
        return subquery_values(operand)
    raise ExecutionError(f"unsupported operand {operand!r}")


def compare(op: CompOp, left: Any, right: Any) -> bool:
    """Three-valued-logic comparison collapsed to bool (NULL -> False)."""
    if left is None or right is None:
        return False
    if isinstance(left, str) != isinstance(right, str):
        # SQL would error on type mismatch; for robustness against noisy
        # model output we treat cross-type comparisons as not matching.
        return False
    if not isinstance(left, (int, float, str)) or not isinstance(right, (int, float, str)):
        return False
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
    raise ExecutionError(f"unsupported operator {op}")


def _eq_matches(value: Any, constant: Any) -> bool:
    """SQL equality against a non-null constant (NULL never matches).

    Python ``==`` agrees with the executor's ``compare`` here: literal
    constants are always int/float/str, cross-kind (str vs numeric)
    comparisons are False both ways, and bools cannot be stored.
    """
    return value is not None and value == constant


def evaluate_predicate(
    pred: Predicate, row: JoinedRow, subquery_values: SubqueryValues
) -> bool:
    """Evaluate a predicate against one joined row."""
    if isinstance(pred, Comparison):
        left = evaluate_operand(pred.left, row, subquery_values)
        right = evaluate_operand(pred.right, row, subquery_values)
        return compare(pred.op, left, right)
    if isinstance(pred, Between):
        value = resolve_column(pred.column, row)
        low = evaluate_operand(pred.low, row, subquery_values)
        high = evaluate_operand(pred.high, row, subquery_values)
        return compare(CompOp.GE, value, low) and compare(CompOp.LE, value, high)
    if isinstance(pred, InPredicate):
        value = resolve_column(pred.column, row)
        if value is None:
            # NULL IN (...) and NULL NOT IN (...) are both NULL -> False.
            return False
        if pred.subquery is not None:
            members = subquery_values(pred.subquery)
        else:
            members = [
                evaluate_operand(v, row, subquery_values) for v in pred.values
            ]
        result = value in members
        return not result if pred.negated else result
    if isinstance(pred, Like):
        value = resolve_column(pred.column, row)
        pattern = evaluate_operand(pred.pattern, row, subquery_values)
        if value is None or pattern is None:
            return False
        matched = _like_match(str(value), str(pattern))
        return not matched if pred.negated else matched
    if isinstance(pred, Exists):
        rows = subquery_values(pred.subquery)
        result = bool(rows)
        return not result if pred.negated else result
    if isinstance(pred, Not):
        return not evaluate_predicate(pred.operand, row, subquery_values)
    if isinstance(pred, And):
        return all(
            evaluate_predicate(p, row, subquery_values) for p in pred.operands
        )
    if isinstance(pred, Or):
        return any(
            evaluate_predicate(p, row, subquery_values) for p in pred.operands
        )
    raise ExecutionError(f"unsupported predicate {pred!r}")


def _like_match(value: str, pattern: str) -> bool:
    """SQL LIKE: % matches any run, _ matches one character."""
    translated = (
        pattern.replace("\\", "\\\\")
        .replace("[", "[[]")
        .replace("*", "[*]")
        .replace("?", "[?]")
        .replace("%", "*")
        .replace("_", "?")
    )
    return fnmatch.fnmatchcase(value.lower(), translated.lower())

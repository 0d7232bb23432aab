"""Accuracy metrics for NL2SQL evaluation.

Two notions from the paper:

* **exact match** (Spider, §6.1.1) — "a query is deemed to be correctly
  translated only if it exactly matches the provided gold standard SQL
  query ... without allowing for semantically equivalent answers".  We
  compare canonical forms so cosmetic differences (keyword case,
  operand order within commutative operators) do not count as errors,
  matching Spider's component-normalized comparison.
* **semantic match** (Patients, §6.2.1) — equivalence up to semantics,
  decided by the :class:`~repro.sql.equivalence.EquivalenceChecker`.
"""

from __future__ import annotations

from repro.sql.ast import Query
from repro.sql.canonical import canonical_sql, canonical_text
from repro.sql.equivalence import EquivalenceChecker
from repro.sql.parser import try_parse


def _as_query(candidate: str | Query | None) -> Query | None:
    if candidate is None:
        return None
    if isinstance(candidate, Query):
        return candidate
    return try_parse(candidate)


def exact_match(predicted: str | Query | None, gold: str | Query) -> bool:
    """Canonical-form exact match (unparseable predictions are wrong)."""
    predicted_query = _as_query(predicted)
    gold_query = _as_query(gold)
    if predicted_query is None or gold_query is None:
        return False
    return canonical_sql(predicted_query) == canonical_sql(gold_query)


def semantic_match(
    predicted: str | Query | None,
    gold: str | Query,
    checker: EquivalenceChecker | None = None,
    schema=None,
) -> bool:
    """Semantic-equivalence match.

    Without a checker this is canonical-form equality
    (:mod:`repro.sql.canonical`, optionally schema-aware) — strictly
    weaker than execution equivalence but strictly stronger than
    :func:`exact_match`, so ``semantic_match >= exact_match`` holds
    per item.  With a checker, its execution probes run first
    (Patients protocol — the checker's planned executor sessions and
    result cache are part of the harness's perf surface), and
    canonical equality is additionally accepted so pairs the probes
    cannot execute can still be certified structurally.
    """
    predicted_query = _as_query(predicted)
    gold_query = _as_query(gold)
    if predicted_query is None or gold_query is None:
        return False
    if checker is not None and checker.equivalent(predicted_query, gold_query):
        return True
    return canonical_text(predicted_query, schema) == canonical_text(gold_query, schema)


def parse_rate(predictions: list[str | None]) -> float:
    """Fraction of predictions that parse in the SQL subset."""
    if not predictions:
        return 0.0
    ok = sum(1 for p in predictions if p is not None and try_parse(p) is not None)
    return ok / len(predictions)

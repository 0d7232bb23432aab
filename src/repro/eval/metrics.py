"""Accuracy metrics for NL2SQL evaluation.

Two notions from the paper:

* **exact match** (Spider, §6.1.1) — "a query is deemed to be correctly
  translated only if it exactly matches the provided gold standard SQL
  query ... without allowing for semantically equivalent answers".  We
  compare canonical forms so cosmetic differences (keyword case,
  operand order within commutative operators) do not count as errors,
  matching Spider's component-normalized comparison.
* **semantic match** (Patients, §6.2.1) — equivalence up to semantics;
  :func:`semantic_match` holds the protocol's acceptance rule, with
  execution evidence from an
  :class:`~repro.analysis.equivalence.EquivalenceOracle`'s probes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sql.ast import Query
from repro.sql.canonical import canonical_sql, canonical_text, normalize
from repro.sql.parser import try_parse

if TYPE_CHECKING:
    from repro.analysis.equivalence import EquivalenceOracle


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
    oracle: EquivalenceOracle | None = None,
    schema=None,
) -> bool:
    """Semantic-equivalence match: the Patients protocol (paper §6.2.1).

    The paper scores Patients by semantic equivalence: a translation
    counts when it is one of the gold query's equivalent answers, which
    the paper enumerates by hand.  Here a prediction counts when

    1. an ``oracle`` is given and the two queries normalize to one AST
       (:func:`~repro.sql.canonical.normalize`), or
    2. an ``oracle`` is given and its probes agree: at least one probe
       database, and on every one both queries, run as written,
       executed and returned the same rows; or
    3. the two share one ``canonical_text`` (schema-aware when
       ``schema`` is given) — so a pair the probes cannot execute is
       still certified structurally, and without an oracle this is the
       whole rule.  Canonicalization subsumes normalization, so
       ``semantic_match >= exact_match`` holds per item.

    This is looser than ``oracle.check``, on purpose: ``check`` proves
    EQUIVALENT only by canonical form and reports probe agreement as
    UNKNOWN, because sample rows are evidence, not proof.  The paper's
    protocol accepts answers that behave the same, so clause 2 counts
    agreement as a match.  Clause 2 also runs placeholders unbound, so
    a query with one fails every probe and is not certified by it.
    """
    predicted_query = _as_query(predicted)
    gold_query = _as_query(gold)
    if predicted_query is None or gold_query is None:
        return False
    if oracle is not None and (
        normalize(predicted_query) == normalize(gold_query)
        or _probes_agree(oracle, predicted_query, gold_query)
    ):
        return True
    return canonical_text(predicted_query, schema) == canonical_text(gold_query, schema)


def _probes_agree(oracle: EquivalenceOracle, left: Query, right: Query) -> bool:
    """At least one probe, and every probe executed and agreed; stops
    at the first probe that did not."""
    agreed = False
    for run in oracle.probe(left, right):
        if not run.agreed:
            return False
        agreed = True
    return agreed


def parse_rate(predictions: list[str | None]) -> float:
    """Fraction of predictions that parse in the SQL subset."""
    if not predictions:
        return 0.0
    ok = sum(1 for p in predictions if p is not None and try_parse(p) is not None)
    return ok / len(predictions)

"""Differential test: ``semantic_match`` against a frozen copy of the
Patients acceptance rule.

The rule used to live in ``EquivalenceChecker.equivalent`` (a module of
``repro.sql`` with its own probe loop); it now lives in
:func:`repro.eval.metrics.semantic_match` over the oracle's probes.
The reference below keeps the old code path verbatim: normalized-AST
equality (``structurally_equivalent``), then the checker's probe clause
(one cached planned session per probe database, exact multiset rows,
at least one probe and every probe executed and agreeing), then the
``canonical_text`` fallback.

The pair set is pinned by seeds: the 399 Patients gold queries, each
against a fitted ``RetrievalModel``'s post-processed output and against
its predecessor's gold query, as written and with placeholders bound
to constants of the first probe database (an unbound placeholder fails
every probe, so only bound pairs reach the probe clause's agreement
branch), plus the 92 Spider-substitute gold queries, each against
itself and against its predecessor.  Every flag must agree with and without an oracle, and
with and without a schema.
"""

from __future__ import annotations

import pytest

from repro.analysis.equivalence import EquivalenceOracle, _ConstantBinder
from repro.bench import build_patients_benchmark, spider_test_workload
from repro.db import populate
from repro.db.planner import ExecutorSession
from repro.errors import ReproError
from repro.eval import semantic_match
from repro.nlp.lemmatizer import lemmatize
from repro.runtime.postprocess import PostProcessor
from repro.sql.ast import Query
from repro.sql.canonical import canonical_text, normalize
from repro.sql.edits import map_placeholders
from repro.sql.parser import try_parse

pytestmark = pytest.mark.canonical

PROBE_SEEDS = (3, 11)


# -- the reference: the rule as it stood, verbatim -------------------------


def structurally_equivalent(left: Query, right: Query) -> bool:
    """Whether the two queries normalize to the same AST."""
    return normalize(left) == normalize(right)


def _results_match(left_rows, right_rows, order_sensitive: bool) -> bool:
    left_values = [tuple(row.values()) for row in left_rows]
    right_values = [tuple(row.values()) for row in right_rows]
    if order_sensitive:
        return left_values == right_values
    return sorted(left_values, key=repr) == sorted(right_values, key=repr)


class ReferenceChecker:
    """``EquivalenceChecker`` over ``Database`` probe arms."""

    def __init__(self, databases) -> None:
        self._arms = [ExecutorSession(database) for database in databases]

    def probe(self, left: Query, right: Query):
        order_sensitive = bool(left.order_by) and bool(right.order_by)
        for arm in self._arms:
            try:
                left_rows = arm.execute(left)
                right_rows = arm.execute(right)
            except ReproError:
                yield False
                continue
            yield _results_match(left_rows, right_rows, order_sensitive)

    def equivalent(self, left: Query, right: Query) -> bool:
        if structurally_equivalent(left, right):
            return True
        agreed = False
        for run in self.probe(left, right):
            if not run:
                return False
            agreed = True
        return agreed


def _as_query(candidate):
    if candidate is None:
        return None
    if isinstance(candidate, Query):
        return candidate
    return try_parse(candidate)


def reference_semantic_match(predicted, gold, checker=None, schema=None) -> bool:
    predicted_query = _as_query(predicted)
    gold_query = _as_query(gold)
    if predicted_query is None or gold_query is None:
        return False
    if checker is not None and checker.equivalent(predicted_query, gold_query):
        return True
    return canonical_text(predicted_query, schema) == canonical_text(gold_query, schema)


# -- the pinned pair set --------------------------------------------------


@pytest.fixture(scope="module")
def probe_databases(patients):
    return [
        populate(patients, rows_per_table=25, seed=seed) for seed in PROBE_SEEDS
    ]


@pytest.fixture(scope="module")
def pairs(retrieval_nlidb, patients, probe_databases):
    """(prediction, gold) pairs, predictions as strings or ``None``."""
    binder = _ConstantBinder(probe_databases[0])

    def bind(query):
        query = _as_query(query)
        return None if query is None else map_placeholders(query, binder.bind)

    post = PostProcessor(patients)
    model = retrieval_nlidb.model
    patients_pairs = []
    patients_gold = []
    for item in build_patients_benchmark():
        prediction = model.translate(lemmatize(item.nl))
        processed = post.process(prediction)
        if processed is not None:
            prediction = processed.sql
        gold = post.process(item.sql_text)
        patients_gold.append(gold.query if gold is not None else item.sql)
        patients_pairs.append((prediction, patients_gold[-1]))
    patients_pairs += [
        (query, patients_gold[index - 1]) for index, query in enumerate(patients_gold)
    ]
    patients_pairs += [(bind(p), bind(g)) for p, g in patients_pairs]
    spider_gold = [item.sql for item in spider_test_workload()]
    spider_pairs = [(query, query) for query in spider_gold] + [
        (query, spider_gold[index - 1]) for index, query in enumerate(spider_gold)
    ]
    assert len(patients_gold) == 399
    assert len(spider_gold) == 92
    return patients_pairs + spider_pairs


@pytest.mark.parametrize("with_schema", [True, False], ids=["schema", "no-schema"])
def test_without_oracle_matches_reference(pairs, patients, with_schema):
    schema = patients if with_schema else None
    flags = [semantic_match(p, g, schema=schema) for p, g in pairs]
    expected = [reference_semantic_match(p, g, schema=schema) for p, g in pairs]
    assert flags == expected
    assert any(flags) and not all(flags)


@pytest.mark.parametrize("with_schema", [True, False], ids=["schema", "no-schema"])
def test_with_oracle_matches_reference(
    pairs, patients, probe_databases, with_schema
):
    schema = patients if with_schema else None
    oracle = EquivalenceOracle(patients, seeds=PROBE_SEEDS, rows_per_table=25)
    checker = ReferenceChecker(probe_databases)
    flags = [semantic_match(p, g, oracle, schema=schema) for p, g in pairs]
    expected = [reference_semantic_match(p, g, checker, schema) for p, g in pairs]
    mismatched = [pair for pair, a, b in zip(pairs, flags, expected) if a != b]
    assert mismatched == []
    # The probe clause decides some pairs: the oracle accepts more than
    # canonical form alone does.
    structural_only = [semantic_match(p, g, schema=schema) for p, g in pairs]
    assert sum(flags) > sum(structural_only)
    assert not all(flags)

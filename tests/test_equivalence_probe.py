"""The one probe loop: :meth:`EquivalenceOracle.probe`.

The oracle's three verdicts and the Patients metric's acceptance rule
(:func:`repro.eval.metrics.semantic_match`) both read their rows from
it, so it is tested here once: one outcome per probe database, errors
as outcomes, laziness, per-database bound pairs, and repeat checks
answered from the probe sessions' result cache.
"""

import pytest

from repro.analysis.equivalence import (
    DISTINCT,
    UNKNOWN,
    EquivalenceOracle,
    ProbeOutcome,
)
from repro.db import populate
from repro.eval import semantic_match
from repro.schema import load_schema
from repro.sql.parser import parse

pytestmark = pytest.mark.canonical


@pytest.fixture(scope="module")
def databases():
    schema = load_schema("patients")
    return [populate(schema, rows_per_table=25, seed=seed) for seed in (0, 17)]


def _oracle(databases):
    return EquivalenceOracle(load_schema("patients"), databases=databases)


def test_one_outcome_per_arm(databases):
    oracle = _oracle(databases)
    left = parse("SELECT name FROM patients WHERE age >= 0")
    runs = list(oracle.probe(left, parse("SELECT name FROM patients")))
    assert runs == [
        ProbeOutcome(seed, executed=True, agreed=True) for seed in (0, 1)
    ]
    runs = list(oracle.probe(left, parse("SELECT name FROM patients WHERE age < 0")))
    assert runs == [
        ProbeOutcome(seed, executed=True, agreed=False, detail="25 vs 0 result rows")
        for seed in (0, 1)
    ]


def test_execution_error_is_an_outcome(databases):
    oracle = _oracle(databases)
    runs = list(
        oracle.probe(
            parse("SELECT nosuch FROM patients"), parse("SELECT name FROM patients")
        )
    )
    assert len(runs) == 2
    assert all(not run.executed and not run.agreed and run.detail for run in runs)
    assert "nosuch" in runs[0].detail


def test_equivalent_stops_at_the_first_refuting_arm(databases):
    # The generator is lazy: a disagreement on the first probe database
    # leaves the second one's session untouched.
    oracle = _oracle(databases)
    assert not semantic_match(
        parse("SELECT name FROM patients WHERE age >= 0"),
        parse("SELECT name FROM patients WHERE age < 0"),
        oracle,
    )
    first, second = oracle._probe_sessions()
    assert first.cache_misses == 2
    assert second.cache_misses == 0


def test_arms_are_built_once(databases):
    oracle = _oracle(databases)
    sessions = oracle._probe_sessions()
    assert oracle._probe_sessions() is sessions
    assert [session.database for session in sessions] == databases
    assert all(session.recorder is oracle.recorder for session in sessions)


def test_bound_pairs_run_per_arm_and_end_probing(databases):
    oracle = _oracle(databases)
    left = parse("SELECT name FROM patients WHERE age = @AGE")
    right = parse("SELECT name FROM patients WHERE @AGE = age")
    everyone = parse("SELECT name FROM patients")
    nobody = parse("SELECT name FROM patients WHERE age < 0")
    runs = list(oracle.probe(left, right, [(everyone, nobody)]))
    assert runs == [
        ProbeOutcome(0, executed=True, agreed=False, detail="25 vs 0 result rows")
    ]
    assert list(oracle.probe(left, right, [])) == []


def test_repeated_oracle_check_is_served_from_the_probe_cache(databases):
    oracle = _oracle(databases)
    left = parse("SELECT name FROM patients WHERE name = 'zz_nobody'")
    right = parse("SELECT name FROM patients WHERE name = 'zz_phantom'")
    first = oracle.check(left, right)
    assert first.verdict == UNKNOWN
    assert oracle.perf_report()["cache_hits"] == 0
    again = oracle.check(left, right)
    assert again.to_dict() == first.to_dict()
    report = oracle.perf_report()
    assert report["cache_hits"] == 4  # two queries on two probe databases
    assert report["cache_misses"] == 4


def test_oracle_binds_each_probe_database_separately(databases):
    # Both sides bind @AGE to the same constant per probe database, so
    # ``age = @AGE`` and ``age > @AGE`` are told apart on every arm.
    oracle = _oracle(databases)
    result = oracle.check(
        parse("SELECT name FROM patients WHERE age = @AGE"),
        parse("SELECT name FROM patients WHERE age > @AGE"),
    )
    assert result.verdict == DISTINCT
    assert [p.seed for p in result.probes] == [0]

"""The one probe loop: :meth:`EquivalenceChecker.probe`.

The Patients checker's acceptance rule and the three-verdict oracle
both read their rows from it, so it is tested here once: one outcome
per arm, errors as outcomes, laziness, per-arm bound pairs, and the
oracle's repeat checks answered from the probe sessions' result cache.
"""

import pytest

from repro.adapters import MemoryAdapter
from repro.analysis.equivalence import DISTINCT, UNKNOWN, EquivalenceOracle
from repro.db import populate
from repro.db.planner import ExecutorSession
from repro.schema import load_schema
from repro.sql.equivalence import EquivalenceChecker, ProbeRun
from repro.sql.parser import parse

pytestmark = pytest.mark.canonical


@pytest.fixture(scope="module")
def databases():
    schema = load_schema("patients")
    return [populate(schema, rows_per_table=25, seed=seed) for seed in (0, 17)]


def test_one_outcome_per_arm(databases):
    checker = EquivalenceChecker(databases)
    left = parse("SELECT name FROM patients WHERE age >= 0")
    runs = list(checker.probe(left, parse("SELECT name FROM patients")))
    assert runs == [ProbeRun(agreed=True, rows=(25, 25))] * 2
    runs = list(checker.probe(left, parse("SELECT name FROM patients WHERE age < 0")))
    assert runs == [ProbeRun(agreed=False, rows=(25, 0))] * 2


def test_execution_error_is_an_outcome(databases):
    checker = EquivalenceChecker(databases)
    runs = list(
        checker.probe(
            parse("SELECT nosuch FROM patients"), parse("SELECT name FROM patients")
        )
    )
    assert len(runs) == 2
    assert all(not run.agreed and run.error for run in runs)
    assert "nosuch" in runs[0].error


def test_equivalent_stops_at_the_first_refuting_arm(databases):
    # The generator is lazy: a disagreement on the first arm leaves the
    # second arm's session untouched.
    checker = EquivalenceChecker(databases)
    assert not checker.equivalent(
        parse("SELECT name FROM patients WHERE age >= 0"),
        parse("SELECT name FROM patients WHERE age < 0"),
    )
    first, second = checker._arms
    assert first.cache_misses == 2
    assert second.cache_misses == 0


def test_arms_are_built_once(databases):
    session = ExecutorSession(databases[1])
    adapter = MemoryAdapter(databases[0])
    checker = EquivalenceChecker([databases[0], session, adapter])
    first, second, third = checker._arms
    assert isinstance(first, ExecutorSession) and first.database is databases[0]
    assert first.recorder is checker.recorder
    assert second is session and third is adapter


def test_bound_pairs_run_per_arm_and_end_probing(databases):
    checker = EquivalenceChecker(databases)
    left = parse("SELECT name FROM patients WHERE age = @AGE")
    right = parse("SELECT name FROM patients WHERE @AGE = age")
    everyone = parse("SELECT name FROM patients")
    nobody = parse("SELECT name FROM patients WHERE age < 0")
    runs = list(checker.probe(left, right, [(everyone, nobody)]))
    assert runs == [ProbeRun(agreed=False, rows=(25, 0))]
    assert list(checker.probe(left, right, [])) == []


def test_repeated_oracle_check_is_served_from_the_probe_cache(databases):
    oracle = EquivalenceOracle(load_schema("patients"), databases=databases)
    left = parse("SELECT name FROM patients WHERE name = 'zz_nobody'")
    right = parse("SELECT name FROM patients WHERE name = 'zz_phantom'")
    first = oracle.check(left, right)
    assert first.verdict == UNKNOWN
    assert oracle.checker.perf_report()["cache_hits"] == 0
    again = oracle.check(left, right)
    assert again.to_dict() == first.to_dict()
    report = oracle.checker.perf_report()
    assert report["cache_hits"] == 4  # two queries on two probe databases
    assert report["cache_misses"] == 4


def test_oracle_binds_each_probe_database_separately(databases):
    # Both sides bind @AGE to the same constant per probe database, so
    # ``age = @AGE`` and ``age > @AGE`` are told apart on every arm.
    oracle = EquivalenceOracle(load_schema("patients"), databases=databases)
    result = oracle.check(
        parse("SELECT name FROM patients WHERE age = @AGE"),
        parse("SELECT name FROM patients WHERE age > @AGE"),
    )
    assert result.verdict == DISTINCT
    assert [p.seed for p in result.probes] == [0]

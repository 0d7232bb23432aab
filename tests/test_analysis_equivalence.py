"""Oracle tests for :mod:`repro.analysis.equivalence`.

The mutation suite at the bottom seeds one defect per L6xx diagnostic
code and asserts the *exact* catch: the intended code fires, and none
of the codes reserved for other defect classes fire spuriously.
"""

import pytest

from repro.analysis.equivalence import (
    DISTINCT,
    EQUIVALENT,
    UNKNOWN,
    VERDICTS,
    EquivalenceOracle,
)
from repro.db import populate
from repro.eval import semantic_match
from repro.schema import load_schema
from repro.sql.parser import parse

pytestmark = pytest.mark.canonical


@pytest.fixture(scope="module")
def patients():
    return load_schema("patients")


@pytest.fixture(scope="module")
def oracle(patients):
    # Shared probe arms: building databases once keeps the module fast.
    databases = [
        populate(patients, rows_per_table=25, seed=seed) for seed in (0, 17)
    ]
    return EquivalenceOracle(patients, databases=databases, seeds=(0, 17))


def codes(result):
    return {d.code for d in result.report.sorted()}


class TestVerdicts:
    def test_verdict_vocabulary(self):
        assert VERDICTS == (EQUIVALENT, DISTINCT, UNKNOWN)

    def test_equivalent_from_canonical_form(self, oracle):
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age = 20 OR age = 30"),
            parse("SELECT name FROM patients WHERE age IN (30, 20)"),
        )
        assert result.verdict == EQUIVALENT
        assert result.is_equivalent
        assert result.left_canonical == result.right_canonical
        # Proof is static: no differential probe may run.
        assert result.probes == []

    def test_distinct_from_counterexample(self, oracle):
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age >= 0"),
            parse("SELECT name FROM patients WHERE age < 0"),
        )
        assert result.verdict == DISTINCT
        assert not result.is_equivalent
        assert any(p.executed and p.agreed is False for p in result.probes)

    def test_unknown_when_probes_agree(self, oracle):
        # Both match zero probe rows, so every probe agrees — but
        # agreement is evidence, not proof.
        result = oracle.check(
            parse("SELECT name FROM patients WHERE name = 'zz_nobody'"),
            parse("SELECT name FROM patients WHERE name = 'zz_phantom'"),
        )
        assert result.verdict == UNKNOWN
        assert all(p.executed and p.agreed for p in result.probes)

    def test_unknown_never_upgraded(self, oracle):
        """Probe agreement on every arm must still yield UNKNOWN."""
        result = oracle.check(
            parse("SELECT name FROM patients WHERE name = 'zz_nobody'"),
            parse("SELECT name FROM patients WHERE name = 'zz_phantom'"),
        )
        assert result.verdict == UNKNOWN
        assert len(result.probes) == 2

    def test_to_dict_round_trip(self, oracle):
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age >= 0"),
            parse("SELECT name FROM patients WHERE age < 0"),
        )
        record = result.to_dict()
        assert record["verdict"] == DISTINCT
        assert record["left_canonical"] and record["right_canonical"]
        assert all("seed" in p for p in record["probes"])
        assert all("code" in d for d in record["diagnostics"])

    def test_oracle_one_shot_with_seeded_probes(self, patients):
        oracle = EquivalenceOracle(patients, seeds=(0,), rows_per_table=5)
        same = oracle.check(
            parse("SELECT name FROM patients"), parse("SELECT name FROM patients")
        )
        assert same.verdict == EQUIVALENT
        # Probe databases the oracle builds itself carry their seed.
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age >= 0"),
            parse("SELECT name FROM patients WHERE age < 0"),
        )
        assert result.verdict == DISTINCT
        assert [p.seed for p in result.probes] == [0]
        assert any("seed=0" in d.message for d in result.report.sorted())

    def test_supplied_databases_labelled_by_position(self, patients, oracle):
        # Caller-supplied databases were never built from the oracle's
        # seeds, so their probes are numbered by position instead.
        databases = oracle._probe_databases() + [
            populate(patients, rows_per_table=25, seed=5)
        ]
        supplied = EquivalenceOracle(patients, databases=databases)
        agreeing = supplied.check(
            parse("SELECT name FROM patients WHERE name = 'zz_nobody'"),
            parse("SELECT name FROM patients WHERE name = 'zz_phantom'"),
        )
        assert agreeing.verdict == UNKNOWN
        assert [p.seed for p in agreeing.probes] == [0, 1, 2]
        diverging = supplied.check(
            parse("SELECT name FROM patients WHERE age >= 0"),
            parse("SELECT name FROM patients WHERE age < 0"),
        )
        assert diverging.verdict == DISTINCT
        messages = [d.message for d in diverging.report.sorted()]
        assert any("probe database #0" in m for m in messages)
        assert not any("seed=" in m for m in messages)

    def test_checker_verdict_three_way(self, patients, oracle):
        # The oracle's lattice does not carry over the probe-agreement
        # acceptance of the Patients metric, ``semantic_match``.
        a = parse("SELECT name FROM patients WHERE name = 'zz_nobody'")
        b = parse("SELECT name FROM patients WHERE name = 'zz_phantom'")
        assert oracle.check(a, b).verdict == UNKNOWN
        assert semantic_match(a, b, oracle)  # the looser Patients protocol
        assert (
            oracle.check(
                parse("SELECT name FROM patients WHERE age BETWEEN 1 AND 2"),
                parse("SELECT name FROM patients WHERE age >= 1 AND age <= 2"),
            ).verdict
            == EQUIVALENT
        )
        assert (
            oracle.check(
                parse("SELECT name FROM patients WHERE age >= 0"),
                parse("SELECT name FROM patients WHERE age < 0"),
            ).verdict
            == DISTINCT
        )


class TestMutationSuite:
    """One seeded defect per L6xx code, asserting the exact catch."""

    def test_L601_equivalence_proof(self, oracle):
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age BETWEEN 20 AND 30"),
            parse("SELECT name FROM patients WHERE age >= 20 AND age <= 30"),
        )
        found = codes(result)
        assert "L601" in found
        assert not found & {"L602", "L603", "L604", "L606"}

    def test_L602_differential_counterexample(self, oracle):
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age >= 0"),
            parse("SELECT name FROM patients WHERE age < 0"),
        )
        found = codes(result)
        assert "L602" in found
        assert not found & {"L601", "L603", "L604", "L606"}
        [diag] = [d for d in result.report.sorted() if d.code == "L602"]
        assert diag.fix is not None
        assert diag.fix.kind == "differential_counterexample"

    def test_L603_agreement_without_proof(self, oracle):
        result = oracle.check(
            parse("SELECT name FROM patients WHERE name = 'zz_nobody'"),
            parse("SELECT name FROM patients WHERE name = 'zz_phantom'"),
        )
        found = codes(result)
        assert "L603" in found
        assert not found & {"L601", "L602", "L604", "L606"}

    def test_L604_probe_skipped_on_execution_failure(self, oracle):
        # ``nosuch`` parses fine but is outside the schema, so the
        # probe executor raises; every arm is skipped and nothing can
        # agree or diverge.
        result = oracle.check(
            parse("SELECT nosuch FROM patients"),
            parse("SELECT name FROM patients"),
        )
        found = codes(result)
        assert "L604" in found
        assert not found & {"L601", "L602", "L603", "L606"}
        assert result.verdict == UNKNOWN
        assert all(not p.executed for p in result.probes)

    def test_L605_canonicalization_rewrote_query(self, oracle):
        # BETWEEN is rewritten to a chained comparison: canonical form
        # differs from the normalized form, so L605 must fire for the
        # left side (and only an informational code — the verdict path
        # is L601, equivalence).
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age BETWEEN 20 AND 30"),
            parse("SELECT name FROM patients WHERE age >= 20 AND age <= 30"),
        )
        found = codes(result)
        assert "L605" in found
        [diag] = [d for d in result.report.sorted() if d.code == "L605"]
        assert diag.fix is not None
        assert diag.fix.kind == "use_canonical_form"

    def test_L605_absent_when_already_canonical(self, oracle):
        result = oracle.check(
            parse("SELECT name FROM patients"),
            parse("SELECT name FROM patients"),
        )
        assert "L605" not in codes(result)

    def test_L606_unresolvable_placeholder(self, oracle):
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age > @NOSUCH"),
            parse("SELECT name FROM patients WHERE age < @ALSONOT"),
        )
        found = codes(result)
        assert "L606" in found
        assert not found & {"L601", "L602", "L603", "L604"}
        assert result.verdict == UNKNOWN
        assert result.probes and not result.probes[0].executed
        [diag] = [
            d for d in result.report.sorted() if d.code == "L606"
        ][:1]
        assert diag.fix is not None
        assert diag.fix.kind == "bind_placeholder"

    def test_resolvable_placeholders_probe_normally(self, oracle):
        # @AGE binds to a real constant on both sides, so the probes
        # run; identical spellings canonicalize together first.
        result = oracle.check(
            parse("SELECT name FROM patients WHERE age > @AGE"),
            parse("SELECT name FROM patients WHERE age > @PATIENTS.AGE"),
        )
        assert result.verdict == EQUIVALENT

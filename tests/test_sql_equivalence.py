"""Semantic equivalence under the Patients protocol (Cosette stand-in):
:func:`repro.eval.semantic_match` with an oracle's probe databases."""

from repro.analysis.equivalence import EquivalenceOracle
from repro.db import populate
from repro.eval import semantic_match
from repro.schema import patients_schema
from repro.sql import parse


def oracle():
    return EquivalenceOracle(
        patients_schema(),
        databases=[
            populate(patients_schema(), rows_per_table=25, seed=s) for s in (1, 2)
        ],
    )


def structural():
    """An oracle with no probe databases: proofs only."""
    return EquivalenceOracle(patients_schema(), databases=[])


def match(left: str, right: str, judge) -> bool:
    return semantic_match(parse(left), parse(right), judge)


class TestStructural:
    def test_commutative_and(self):
        assert match(
            "SELECT * FROM patients WHERE age = 1 AND gender = 'm'",
            "SELECT * FROM patients WHERE gender = 'm' AND age = 1",
            structural(),
        )

    def test_flip(self):
        assert match(
            "SELECT * FROM patients WHERE 18 < age",
            "SELECT * FROM patients WHERE age > 18",
            structural(),
        )

    def test_not_equivalent(self):
        assert not match(
            "SELECT * FROM patients WHERE age > 18",
            "SELECT * FROM patients WHERE age < 18",
            structural(),
        )


class TestExecutionBased:
    def test_between_equals_range(self):
        """BETWEEN and the equivalent conjunction differ structurally but
        agree on all sample databases."""
        assert match(
            "SELECT name FROM patients WHERE age BETWEEN 20 AND 60",
            "SELECT name FROM patients WHERE age >= 20 AND age <= 60",
            oracle(),
        )

    def test_distinct_detects_difference(self):
        # gender has duplicates, so DISTINCT changes the multiset.
        assert not match(
            "SELECT gender FROM patients",
            "SELECT DISTINCT gender FROM patients",
            oracle(),
        )

    def test_different_filters_not_equivalent(self):
        assert not match(
            "SELECT name FROM patients WHERE age > 20",
            "SELECT name FROM patients WHERE age > 80",
            oracle(),
        )

    def test_in_list_vs_or(self):
        assert match(
            "SELECT name FROM patients WHERE age IN (20, 30)",
            "SELECT name FROM patients WHERE age = 20 OR age = 30",
            oracle(),
        )

    def test_order_insensitive_without_order_by(self):
        # Same rows; projection order of rows is irrelevant without ORDER BY.
        assert match(
            "SELECT name FROM patients WHERE age >= 0",
            "SELECT name FROM patients",
            oracle(),
        )

    def test_unexecutable_query_not_certified(self):
        # Unresolved placeholders cannot be executed -> not equivalent.
        assert not match(
            "SELECT name FROM patients WHERE age = @AGE",
            "SELECT name FROM patients WHERE @AGE = age AND 1 = 1",
            oracle(),
        )

    def test_placeholder_structural_still_works(self):
        assert match(
            "SELECT name FROM patients WHERE age = @AGE",
            "SELECT name FROM patients WHERE @AGE = age",
            oracle(),
        )

    def test_no_databases_falls_back_to_structural(self):
        assert match(
            "SELECT * FROM patients WHERE 1 < age",
            "SELECT * FROM patients WHERE age > 1",
            structural(),
        )
        # Both select nobody: only probe agreement can accept this pair.
        nobody = "SELECT name FROM patients WHERE name = 'zz_nobody'"
        phantom = "SELECT name FROM patients WHERE name = 'zz_phantom'"
        assert not match(nobody, phantom, structural())
        assert match(nobody, phantom, oracle())

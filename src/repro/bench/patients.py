"""The Patients benchmark (ParaphraseBench stand-in, paper §6.2).

The paper introduces a 399-pair benchmark over a hospital-patients
schema that systematically tests linguistic robustness: the same
information need is phrased in seven ways —

* **naive** — direct verbalization of the SQL,
* **syntactic** — structural reordering,
* **morphological** — inflectional variation (affixes, tense),
* **lexical** — synonym substitution,
* **semantic** — changed lexicalization patterns, same meaning,
* **missing** — implicit/omitted information,
* **mixed** — a combination of the above.

We reconstruct the benchmark's *structure* exactly: 19 SQL shapes × 3
attribute/operator variants = 57 queries, each with 7 hand-written NL
patterns (one per category), for 399 pairs total — the published
benchmark's counts (57 per category).  NL is pre-anonymized
(placeholders instead of constants), the setting the paper evaluates
(§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.workloads import Workload, WorkloadItem
from repro.errors import BenchmarkError
from repro.schema.catalog import patients_schema
from repro.sql.ast import (
    AggFunc,
    Aggregate,
    And,
    Between,
    ColumnRef,
    CompOp,
    Comparison,
    Or,
    OrderItem,
    Placeholder,
    Query,
    Star,
    Subquery,
)

CATEGORIES = (
    "naive",
    "syntactic",
    "morphological",
    "lexical",
    "semantic",
    "missing",
    "mixed",
)

_T = "patients"


def _col(name: str) -> ColumnRef:
    return ColumnRef(name)


def _ph(name: str) -> Placeholder:
    return Placeholder(name.upper())


def _eq(column: str) -> Comparison:
    return Comparison(_col(column), CompOp.EQ, _ph(column))


def _cmp(column: str, op: CompOp) -> Comparison:
    return Comparison(_col(column), op, _ph(column))


@dataclass(frozen=True)
class _Shape:
    """One SQL shape: 7 NL patterns + a SQL builder over slot values."""

    sid: str
    nl: dict[str, str]  # category -> NL pattern with {a}/{ph}/... slots
    build: Callable[[dict], Query]
    variants: tuple[dict, ...]  # slot dicts, one per benchmark query


# ----------------------------------------------------------------------
# Shape definitions (19 shapes x 3 variants = 57 queries)
# ----------------------------------------------------------------------

_SHAPES: tuple[_Shape, ...] = (
    _Shape(
        sid="filter-eq-star",
        nl={
            "naive": "show me all patients where {a} is {ph}",
            "syntactic": "where {a} is {ph} , show me all patients",
            "morphological": "show me all patient whose {a} equaled {ph}",
            "lexical": "display every patient with a {a} of {ph}",
            "semantic": "which people in the hospital have {a} {ph}",
            "missing": "patients with {ph}",
            "mixed": "where the {a} equaled {ph} , display the patients",
        },
        build=lambda s: Query(
            select=(Star(),), from_tables=(_T,), where=_eq(s["col"])
        ),
        variants=(
            {"col": "age", "a": "age"},
            {"col": "diagnosis", "a": "diagnosis"},
            {"col": "gender", "a": "gender"},
        ),
    ),
    _Shape(
        sid="filter-eq-name",
        nl={
            "naive": "what are the names of all patients where {a} is {ph}",
            "syntactic": "where {a} is {ph} , what are the names of patients",
            "morphological": "what are the names of patients whose {a} equals {ph}",
            "lexical": "list the names of all patients having a {a} of {ph}",
            "semantic": "who are the patients with {a} {ph}",
            "missing": "names of patients with {ph}",
            "mixed": "patients having {ph} as {a} , who are they",
        },
        build=lambda s: Query(
            select=(_col("name"),), from_tables=(_T,), where=_eq(s["col"])
        ),
        variants=(
            {"col": "diagnosis", "a": "diagnosis"},
            {"col": "age", "a": "age"},
            {"col": "length_of_stay", "a": "length of stay"},
        ),
    ),
    _Shape(
        sid="avg-stay-filter",
        nl={
            "naive": "what is the average length of stay of patients where {a} is {ph}",
            "syntactic": "where {a} is {ph} , what is the average length of stay of patients",
            "morphological": "what is the averaged length of stay of patients where {a} equaled {ph}",
            "lexical": "what is the mean length of stay of patients where {a} is {ph}",
            "semantic": "on average , how long do patients with {a} {ph} stay",
            "missing": "what is the average stay of patients who are {ph}",
            "mixed": "for patients of {a} {ph} , how long do they stay on average",
        },
        build=lambda s: Query(
            select=(Aggregate(AggFunc.AVG, _col("length_of_stay")),),
            from_tables=(_T,),
            where=_eq(s["col"]),
        ),
        variants=(
            {"col": "age", "a": "age"},
            {"col": "diagnosis", "a": "diagnosis"},
            {"col": "gender", "a": "gender"},
        ),
    ),
    _Shape(
        sid="count-filter",
        nl={
            "naive": "how many patients have {a} {ph}",
            "syntactic": "{a} {ph} , how many patients have it",
            "morphological": "how many patients are having {a} {ph}",
            "lexical": "what is the number of patients with {a} {ph}",
            "semantic": "how big is the group of patients with {a} {ph}",
            "missing": "how many patients with {ph}",
            "mixed": "count of the patients that had {a} {ph}",
        },
        build=lambda s: Query(
            select=(Aggregate(AggFunc.COUNT, Star()),),
            from_tables=(_T,),
            where=_eq(s["col"]),
        ),
        variants=(
            {"col": "gender", "a": "gender"},
            {"col": "diagnosis", "a": "diagnosis"},
            {"col": "age", "a": "age"},
        ),
    ),
    _Shape(
        sid="filter-gt-name",
        nl={
            "naive": "show the names of all patients with {a} greater than {ph}",
            "syntactic": "with {a} greater than {ph} , show the names of all patients",
            "morphological": "show the names of patients whose {a} exceeded {ph}",
            "lexical": "display the names of all patients with {a} above {ph}",
            "semantic": "who are the patients older than {ph}",
            "missing": "names of patients over {ph}",
            "mixed": "patients exceeding {a} {ph} , display their names",
        },
        build=lambda s: Query(
            select=(_col("name"),),
            from_tables=(_T,),
            where=_cmp(s["col"], CompOp.GT),
        ),
        variants=(
            {"col": "age", "a": "age"},
            {"col": "length_of_stay", "a": "length of stay"},
            {"col": "patient_id", "a": "patient id"},
        ),
    ),
    _Shape(
        sid="avg-plain",
        nl={
            "naive": "what is the average {a} of all patients",
            "syntactic": "of all patients , what is the average {a}",
            "morphological": "what is the averaged {a} across patients",
            "lexical": "what is the mean {a} of the patients",
            "semantic": "how {adj} are the patients typically",
            "missing": "average {a}",
            "mixed": "typical {a} over everyone , what is it",
        },
        build=lambda s: Query(
            select=(Aggregate(AggFunc.AVG, _col(s["col"])),), from_tables=(_T,)
        ),
        variants=(
            {"col": "age", "a": "age", "adj": "old"},
            {"col": "length_of_stay", "a": "length of stay", "adj": "long staying"},
            {"col": "patient_id", "a": "patient id", "adj": "numbered"},
        ),
    ),
    _Shape(
        sid="max-filter",
        nl={
            "naive": "what is the maximum {a} of patients where {b} is {ph}",
            "syntactic": "where {b} is {ph} , what is the maximum {a} of patients",
            "morphological": "what is the highest {a} among patients diagnosed {ph}",
            "lexical": "what is the largest {a} of patients with {b} {ph}",
            "semantic": "at most how high is the {a} for {ph} patients",
            "missing": "maximum {a} for {ph}",
            "mixed": "for {ph} cases , the highest {a} recorded",
        },
        build=lambda s: Query(
            select=(Aggregate(AggFunc.MAX, _col(s["col"])),),
            from_tables=(_T,),
            where=_eq(s["fcol"]),
        ),
        variants=(
            {"col": "length_of_stay", "a": "length of stay", "fcol": "diagnosis", "b": "diagnosis"},
            {"col": "age", "a": "age", "fcol": "diagnosis", "b": "diagnosis"},
            {"col": "age", "a": "age", "fcol": "gender", "b": "gender"},
        ),
    ),
    _Shape(
        sid="filter-lt-name",
        nl={
            "naive": "show the names of patients with {a} less than {ph}",
            "syntactic": "with {a} less than {ph} , show the patient names",
            "morphological": "show names of patients whose {a} stayed under {ph}",
            "lexical": "list the names of patients with {a} below {ph}",
            "semantic": "which patients are younger than {ph}",
            "missing": "names under {ph}",
            "mixed": "patients beneath {a} {ph} , list them by name",
        },
        build=lambda s: Query(
            select=(_col("name"),),
            from_tables=(_T,),
            where=_cmp(s["col"], CompOp.LT),
        ),
        variants=(
            {"col": "age", "a": "age"},
            {"col": "length_of_stay", "a": "length of stay"},
            {"col": "patient_id", "a": "patient id"},
        ),
    ),
    _Shape(
        sid="groupby-count",
        nl={
            "naive": "how many patients are there for each {a}",
            "syntactic": "for each {a} , how many patients are there",
            "morphological": "how many patients exist per {a} grouping",
            "lexical": "count the number of patients per {a}",
            "semantic": "what is the patient breakdown by {a}",
            "missing": "patients per {a}",
            "mixed": "per {a} , the patient count",
        },
        build=lambda s: Query(
            select=(_col(s["col"]), Aggregate(AggFunc.COUNT, Star())),
            from_tables=(_T,),
            group_by=(_col(s["col"]),),
        ),
        variants=(
            {"col": "diagnosis", "a": "diagnosis"},
            {"col": "gender", "a": "gender"},
            {"col": "age", "a": "age"},
        ),
    ),
    _Shape(
        sid="groupby-avg",
        nl={
            "naive": "what is the average {a} of patients for each {b}",
            "syntactic": "for each {b} , what is the average {a} of patients",
            "morphological": "what is the averaged {a} per {b} of the patients",
            "lexical": "show the mean {a} of patients per {b}",
            "semantic": "how does the typical {a} differ by {b}",
            "missing": "average {a} by {b}",
            "mixed": "per {b} , the mean {a} of the cases",
        },
        build=lambda s: Query(
            select=(_col(s["gcol"]), Aggregate(AggFunc.AVG, _col(s["col"]))),
            from_tables=(_T,),
            group_by=(_col(s["gcol"]),),
        ),
        variants=(
            {"col": "age", "a": "age", "gcol": "gender", "b": "gender"},
            {"col": "length_of_stay", "a": "length of stay", "gcol": "diagnosis", "b": "diagnosis"},
            {"col": "age", "a": "age", "gcol": "diagnosis", "b": "diagnosis"},
        ),
    ),
    _Shape(
        sid="filter-and",
        nl={
            "naive": "show all patients where {a} is {ph} and {b} is greater than {ph2}",
            "syntactic": "where {a} is {ph} and {b} is greater than {ph2} , show all patients",
            "morphological": "show the patients whose {a} equals {ph} and whose {b} exceeds {ph2}",
            "lexical": "display all patients with {a} {ph} and {b} above {ph2}",
            "semantic": "which {ph} patients are older than {ph2}",
            "missing": "patients with {ph} over {ph2}",
            "mixed": "having {a} {ph} plus {b} exceeding {ph2} , show those patients",
        },
        build=lambda s: Query(
            select=(Star(),),
            from_tables=(_T,),
            where=And((_eq(s["fcol"]), _cmp(s["gcol"], CompOp.GT))),
        ),
        variants=(
            {"fcol": "diagnosis", "a": "diagnosis", "gcol": "age", "b": "age",
             "ph": "@DIAGNOSIS", "ph2": "@AGE"},
            {"fcol": "gender", "a": "gender", "gcol": "age", "b": "age",
             "ph": "@GENDER", "ph2": "@AGE"},
            {"fcol": "diagnosis", "a": "diagnosis", "gcol": "length_of_stay",
             "b": "length of stay", "ph": "@DIAGNOSIS", "ph2": "@LENGTH_OF_STAY"},
        ),
    ),
    _Shape(
        sid="min-filter",
        nl={
            "naive": "what is the minimum {a} of patients where {b} is {ph}",
            "syntactic": "where {b} is {ph} , what is the minimum {a}",
            "morphological": "what is the smallest {a} recorded for {ph} patients",
            "lexical": "what is the lowest {a} of patients with {b} {ph}",
            "semantic": "how young can a {ph} patient be",
            "missing": "minimum {a} for {ph}",
            "mixed": "the smallest {a} among the {ph} group",
        },
        build=lambda s: Query(
            select=(Aggregate(AggFunc.MIN, _col(s["col"])),),
            from_tables=(_T,),
            where=_eq(s["fcol"]),
        ),
        variants=(
            {"col": "age", "a": "age", "fcol": "gender", "b": "gender"},
            {"col": "age", "a": "age", "fcol": "diagnosis", "b": "diagnosis"},
            {"col": "length_of_stay", "a": "length of stay", "fcol": "diagnosis", "b": "diagnosis"},
        ),
    ),
    _Shape(
        sid="superlative-nested",
        nl={
            "naive": "what is the name of the patient with the maximum {a}",
            "syntactic": "the patient with the maximum {a} , what is their name",
            "morphological": "what is the name of the patient having maximized {a}",
            "lexical": "what is the name of the patient with the highest {a}",
            "semantic": "who stayed in the hospital the longest",
            "missing": "name of the maximum {a} patient",
            "mixed": "the longest {a} case , give the name",
        },
        build=lambda s: Query(
            select=(_col("name"),),
            from_tables=(_T,),
            where=Comparison(
                _col(s["col"]),
                CompOp.EQ,
                Subquery(
                    Query(
                        select=(Aggregate(AggFunc.MAX, _col(s["col"])),),
                        from_tables=(_T,),
                    )
                ),
            ),
        ),
        variants=(
            {"col": "length_of_stay", "a": "length of stay"},
            {"col": "age", "a": "age"},
            {"col": "patient_id", "a": "patient id"},
        ),
    ),
    _Shape(
        sid="count-between",
        nl={
            "naive": "how many patients have {a} between {lo} and {hi}",
            "syntactic": "between {lo} and {hi} of {a} , how many patients are there",
            "morphological": "how many patients are aged between {lo} and {hi}",
            "lexical": "what is the number of patients with {a} ranging from {lo} to {hi}",
            "semantic": "how many patients fall in the {a} range {lo} to {hi}",
            "missing": "patients between {lo} and {hi}",
            "mixed": "count the cases ranging in {a} from {lo} to {hi}",
        },
        build=lambda s: Query(
            select=(Aggregate(AggFunc.COUNT, Star()),),
            from_tables=(_T,),
            where=Between(
                _col(s["col"]), _ph(s["col"] + ".LOW"), _ph(s["col"] + ".HIGH")
            ),
        ),
        variants=(
            {"col": "age", "a": "age", "lo": "@AGE.LOW", "hi": "@AGE.HIGH"},
            {"col": "length_of_stay", "a": "length of stay",
             "lo": "@LENGTH_OF_STAY.LOW", "hi": "@LENGTH_OF_STAY.HIGH"},
            {"col": "patient_id", "a": "patient id",
             "lo": "@PATIENT_ID.LOW", "hi": "@PATIENT_ID.HIGH"},
        ),
    ),
    _Shape(
        sid="distinct",
        nl={
            "naive": "show the distinct {a} of all patients",
            "syntactic": "of all patients , show the distinct {a}",
            "morphological": "show the distinct {a} values occurring for patients",
            "lexical": "list the different {a} of the patients",
            "semantic": "what {a} values appear among patients",
            "missing": "distinct {a}",
            "mixed": "every unique {a} occurring , list it",
        },
        build=lambda s: Query(
            select=(_col(s["col"]),), from_tables=(_T,), distinct=True
        ),
        variants=(
            {"col": "diagnosis", "a": "diagnosis"},
            {"col": "gender", "a": "gender"},
            {"col": "name", "a": "name"},
        ),
    ),
    _Shape(
        sid="order-desc",
        nl={
            "naive": "show the name and {a} of patients sorted by {a} in descending order",
            "syntactic": "sorted by {a} in descending order , show the name and {a} of patients",
            "morphological": "show names and {a} of patients ordered descendingly by {a}",
            "lexical": "display the name and {a} of patients ranked by {a} from highest to lowest",
            "semantic": "rank the patients by {a} starting with the highest",
            "missing": "name and {a} by descending {a}",
            "mixed": "ranked from highest {a} , display name and {a}",
        },
        build=lambda s: Query(
            select=(_col("name"), _col(s["col"])),
            from_tables=(_T,),
            order_by=(OrderItem(_col(s["col"]), desc=True),),
        ),
        variants=(
            {"col": "age", "a": "age"},
            {"col": "length_of_stay", "a": "length of stay"},
            {"col": "patient_id", "a": "patient id"},
        ),
    ),
    _Shape(
        sid="sum-filter",
        nl={
            "naive": "what is the total {a} of patients where {b} is {ph}",
            "syntactic": "where {b} is {ph} , what is the total {a} of patients",
            "morphological": "what is the summed {a} of patients diagnosed {ph}",
            "lexical": "what is the overall {a} of patients with {b} {ph}",
            "semantic": "altogether , how much {a} did {ph} patients accumulate",
            "missing": "total {a} for {ph}",
            "mixed": "{ph} cases , their combined {a}",
        },
        build=lambda s: Query(
            select=(Aggregate(AggFunc.SUM, _col(s["col"])),),
            from_tables=(_T,),
            where=_eq(s["fcol"]),
        ),
        variants=(
            {"col": "length_of_stay", "a": "length of stay", "fcol": "diagnosis", "b": "diagnosis"},
            {"col": "length_of_stay", "a": "length of stay", "fcol": "gender", "b": "gender"},
            {"col": "age", "a": "age", "fcol": "diagnosis", "b": "diagnosis"},
        ),
    ),
    _Shape(
        sid="filter-or",
        nl={
            "naive": "show all patients where {a} is {ph} or {b} is {ph2}",
            "syntactic": "where {a} is {ph} or {b} is {ph2} , show all patients",
            "morphological": "show the patients having {a} {ph} or showing {b} {ph2}",
            "lexical": "display every patient with {a} {ph} or {b} {ph2}",
            "semantic": "which patients match either {ph} or {ph2}",
            "missing": "patients with {ph} or {ph2}",
            "mixed": "either {a} {ph} or {b} {ph2} , show those patients",
        },
        build=lambda s: Query(
            select=(Star(),),
            from_tables=(_T,),
            where=Or((_eq(s["fcol"]), _eq(s["gcol"]))),
        ),
        variants=(
            {"fcol": "diagnosis", "a": "diagnosis", "gcol": "gender", "b": "gender",
             "ph": "@DIAGNOSIS", "ph2": "@GENDER"},
            {"fcol": "diagnosis", "a": "diagnosis", "gcol": "age", "b": "age",
             "ph": "@DIAGNOSIS", "ph2": "@AGE"},
            {"fcol": "gender", "a": "gender", "gcol": "age", "b": "age",
             "ph": "@GENDER", "ph2": "@AGE"},
        ),
    ),
    _Shape(
        sid="avg-above-nested",
        nl={
            "naive": "show the names of patients whose {a} is greater than the average {a}",
            "syntactic": "greater than the average {a} , show the names of such patients",
            "morphological": "show names of patients exceeding the averaged {a}",
            "lexical": "list the names of patients with {a} above the mean {a}",
            "semantic": "which patients are older than is typical",
            "missing": "names above average {a}",
            "mixed": "cases beyond the typical {a} , name them",
        },
        build=lambda s: Query(
            select=(_col("name"),),
            from_tables=(_T,),
            where=Comparison(
                _col(s["col"]),
                CompOp.GT,
                Subquery(
                    Query(
                        select=(Aggregate(AggFunc.AVG, _col(s["col"])),),
                        from_tables=(_T,),
                    )
                ),
            ),
        ),
        variants=(
            {"col": "age", "a": "age"},
            {"col": "length_of_stay", "a": "length of stay"},
            {"col": "patient_id", "a": "patient id"},
        ),
    ),
)


def build_patients_benchmark() -> Workload:
    """Construct all 399 Patients benchmark items."""
    schema = patients_schema()
    items: list[WorkloadItem] = []
    for shape in _SHAPES:
        if set(shape.nl) != set(CATEGORIES):
            raise BenchmarkError(
                f"shape {shape.sid!r} must define all categories"
            )
        for variant in shape.variants:
            slots = dict(variant)
            slots.setdefault("ph", "@" + variant.get("col", "").upper())
            sql = shape.build(variant)
            for category in CATEGORIES:
                nl = shape.nl[category].format(**slots)
                items.append(
                    WorkloadItem(
                        nl=nl,
                        sql=sql,
                        schema_name=schema.name,
                        category=category,
                        source=shape.sid,
                    )
                )
    expected = len(_SHAPES) * 3 * len(CATEGORIES)
    if len(items) != expected:  # pragma: no cover - construction invariant
        raise BenchmarkError(f"expected {expected} items, built {len(items)}")
    return Workload("patients", items)


#: Number of queries per category in the published benchmark.
QUERIES_PER_CATEGORY = len(_SHAPES) * 3

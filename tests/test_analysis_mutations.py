"""Mutation suite for the template, schema, corpus, and SQL passes.

Each test seeds one defect into an otherwise healthy artifact and
asserts the analyzer reports it under its stable ``L###`` code — the
acceptance contract is that 100% of seeded defects are caught.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    analyze_sql,
    audit_corpus,
    explain_dead_template,
    lint_schema,
    lint_templates,
    placeholder_mismatch,
    probe_builder,
)
from repro.core.seed_templates import SEED_TEMPLATES
from repro.core.templates import Family, SeedTemplate
from repro.db.executor import execute
from repro.errors import ExecutionError
from repro.schema.column import Column, ColumnType
from repro.schema.schema import Schema
from repro.schema.table import ForeignKey, Table
from repro.sql.parser import parse


def template(tid, kind, nl, family=Family.SELECT):
    return SeedTemplate(tid=tid, family=family, sql_kind=kind, nl_pattern=nl)


def codes(diagnostics):
    return [d.code for d in diagnostics]


# ----------------------------------------------------------------------
# Template lint (L2xx)
# ----------------------------------------------------------------------

def test_missing_slot_is_L201(patients):
    bad = template("mut-00", "select_all", "{select_phrase} all {table} {bogus}")
    diags = lint_templates([patients], [bad])
    assert "L201" in codes(diags)
    (diag,) = [d for d in diags if d.code == "L201"]
    assert "bogus" in diag.message
    assert diag.severity.value == "error"


def test_unknown_kind_is_L206(patients):
    bad = template("mut-01", "no_such_kind", "show all {table}")
    diags = lint_templates([patients], [bad])
    assert codes(diags) == ["L206"]


def test_dead_template_on_one_schema_is_L203_and_everywhere_L204(patients):
    join = next(t for t in SEED_TEMPLATES if t.sql_kind == "join_select")
    diags = lint_templates([patients], [join])
    # Dead on the single-table patients schema (L203) and — patients
    # being the only schema provided — dead everywhere (L204).  Both
    # are warnings: structurally impossible kinds are expected.
    assert set(codes(diags)) == {"L203", "L204"}
    assert all(d.severity.value == "warning" for d in diags)


def test_dead_template_alive_elsewhere_has_no_L204(patients, geography):
    join = next(t for t in SEED_TEMPLATES if t.sql_kind == "join_select")
    diags = lint_templates([patients, geography], [join])
    assert "L203" in codes(diags)  # still dead on patients
    assert "L204" not in codes(diags)  # alive on geography


def test_duplicate_same_kind_pattern_is_L205_error(patients):
    original = next(t for t in SEED_TEMPLATES if t.sql_kind == "select_all")
    clone = template("mut-02", "select_all", original.nl_pattern)
    diags = lint_templates([patients], [original, clone])
    dups = [d for d in diags if d.code == "L205"]
    assert dups and all(d.severity.value == "error" for d in dups)


def test_duplicate_cross_kind_pattern_is_L205_warning(patients):
    a = template("mut-03", "select_all", "{select_phrase} all {table}")
    b = template("mut-04", "count_all", "{select_phrase} all {table}")
    diags = lint_templates([patients], [a, b])
    dups = [d for d in diags if d.code == "L205"]
    assert dups and all(d.severity.value == "warning" for d in dups)


def test_explain_dead_template_cites_stable_codes(patients):
    join = next(t for t in SEED_TEMPLATES if t.sql_kind == "join_select")
    diags = explain_dead_template(join, patients)
    assert diags and set(codes(diags)) <= {"L203", "L204"}


def test_probe_builder_is_deterministic(patients):
    first = probe_builder("filter_select_all", patients)
    second = probe_builder("filter_select_all", patients)
    assert first and [f.slots for f in first] == [f.slots for f in second]


def test_placeholder_mismatch_multiset():
    sql_only, nl_only = placeholder_mismatch(
        "patients older than @AGE", ["AGE", "DIAGNOSIS"]
    )
    assert sql_only == ["diagnosis"]
    assert nl_only == []
    sql_only, nl_only = placeholder_mismatch("between @AGE.LOW and @AGE.HIGH", [])
    assert sql_only == []
    assert sorted(nl_only) == ["age.high", "age.low"]


# ----------------------------------------------------------------------
# Schema lint (L4xx)
# ----------------------------------------------------------------------

def test_fk_type_mismatch_is_L401():
    schema = Schema(
        "mut",
        [
            Table(
                "a",
                [
                    Column("a_id", ColumnType.INTEGER, primary_key=True),
                    Column("b_ref", ColumnType.TEXT),
                ],
            ),
            Table("b", [Column("b_id", ColumnType.INTEGER, primary_key=True)]),
        ],
        [ForeignKey("a", "b_ref", "b", "b_id")],
    )
    assert codes(lint_schema(schema)) == ["L401"]


def test_fk_target_not_primary_key_is_L402():
    schema = Schema(
        "mut",
        [
            Table(
                "a",
                [
                    Column("a_id", ColumnType.INTEGER, primary_key=True),
                    Column("b_tag", ColumnType.TEXT),
                ],
            ),
            Table(
                "b",
                [
                    Column("b_id", ColumnType.INTEGER, primary_key=True),
                    Column("tag", ColumnType.TEXT),
                ],
            ),
        ],
        [ForeignKey("a", "b_tag", "b", "tag")],
    )
    assert codes(lint_schema(schema)) == ["L402"]


def test_ambiguous_nl_phrase_is_L403():
    schema = Schema(
        "mut",
        [
            Table(
                "a",
                [
                    Column(
                        "a_id",
                        ColumnType.INTEGER,
                        primary_key=True,
                        annotation="identifier",
                    ),
                    Column("x", ColumnType.INTEGER, annotation="identifier"),
                ],
            ),
        ],
    )
    assert "L403" in codes(lint_schema(schema))


def test_disconnected_table_is_L404():
    schema = Schema(
        "mut",
        [
            Table("a", [Column("a_id", ColumnType.INTEGER, primary_key=True)]),
            Table("b", [Column("b_id", ColumnType.INTEGER, primary_key=True)]),
        ],
    )
    assert "L404" in codes(lint_schema(schema))


def test_catalog_schemas_are_clean(patients, geography):
    assert lint_schema(patients) == []
    assert lint_schema(geography) == []


# ----------------------------------------------------------------------
# SQL semantics (L1xx): lint rejects what the executor cannot run
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "sql",
    [
        "SELECT *, MIN(diagnosis) FROM patients",
        "SELECT * FROM patients GROUP BY gender",
    ],
)
def test_star_beside_grouping_is_L115_and_fails_execution(
    patients, patients_db, sql
):
    diags = analyze_sql(sql, patients)
    assert codes(diags) == ["L115"]
    assert diags[0].severity.value == "error"
    with pytest.raises(ExecutionError):
        execute(parse(sql), patients_db)


# ----------------------------------------------------------------------
# Corpus audit (L3xx)
# ----------------------------------------------------------------------

GOOD = {"nl": "show all patients", "sql": "SELECT * FROM patients", "schema": "patients"}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            if isinstance(record, str):
                handle.write(record + "\n")
            else:
                handle.write(json.dumps(record) + "\n")
    return path


def test_clean_corpus_audits_clean(tmp_path):
    path = write_jsonl(tmp_path / "clean.jsonl", [GOOD])
    assert audit_corpus(path) == []


def test_unparseable_sql_is_L301(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl", [GOOD, {**GOOD, "nl": "x", "sql": "SELEC * FRM"}]
    )
    assert codes(audit_corpus(path)) == ["L301"]


def test_unrestorable_placeholder_is_L302(tmp_path):
    record = {
        "nl": "no constant mentioned",
        "sql": "SELECT * FROM patients WHERE age = @AGE",
        "schema": "patients",
    }
    path = write_jsonl(tmp_path / "c.jsonl", [record])
    diags = audit_corpus(path)
    assert codes(diags) == ["L302"]
    assert diags[0].severity.value == "error"


def test_malformed_record_is_L303(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [GOOD, "{not json"])
    assert codes(audit_corpus(path)) == ["L303"]


def test_duplicate_pair_is_L304(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [GOOD, GOOD])
    diags = audit_corpus(path)
    assert codes(diags) == ["L304"]
    assert diags[0].severity.value == "warning"


def test_semantic_errors_resurface_with_line_locations(tmp_path):
    record = {
        "nl": "whose name is @NAME",
        "sql": "SELECT bogus FROM patients WHERE name = @NAME",
        "schema": "patients",
    }
    path = write_jsonl(tmp_path / "c.jsonl", [record])
    (diag,) = audit_corpus(path)
    assert diag.code == "L102"
    assert diag.location.endswith(":1")


def test_tsv_corpus_audit(tmp_path, patients):
    path = tmp_path / "c.tsv"
    path.write_text(
        "show all patients\tSELECT * FROM patients\n"
        "broken row with no tab\n",
        encoding="utf-8",
    )
    diags = audit_corpus(path, default_schema=patients)
    assert codes(diags) == ["L303"]


def test_audit_caps_findings(tmp_path):
    bad = {**GOOD, "sql": "SELEC"}
    records = [dict(bad, nl=f"q{i}") for i in range(20)]
    path = write_jsonl(tmp_path / "c.jsonl", records)
    diags = audit_corpus(path, max_diagnostics=5)
    assert len(diags) == 6  # 5 findings + the "audit stopped" notice
    assert diags[-1].code == "L303"
    assert "stopped" in diags[-1].message


def test_unknown_schema_is_single_warning(tmp_path):
    records = [
        {"nl": "q one", "sql": "SELECT * FROM t", "schema": "mystery"},
        {"nl": "q two", "sql": "SELECT * FROM t", "schema": "mystery"},
    ]
    path = write_jsonl(tmp_path / "c.jsonl", records)
    diags = audit_corpus(path)
    assert codes(diags) == ["L303"]
    assert diags[0].severity.value == "warning"

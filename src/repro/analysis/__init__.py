"""Static semantic analysis and lint framework (``repro lint``).

A multi-pass analyzer that turns DBPal's runtime failure modes —
miss-streak fast-fails, quarantined shards, silently skipped pairs —
into actionable pre-generation diagnostics with stable ``L###`` codes:

* :func:`analyze_query` — SQL semantic analysis against a schema;
* :func:`lint_templates` — seed-template lint over a schema set;
* :func:`lint_schema` — schema structure / annotation lint;
* :func:`audit_corpus` — streaming audit of a generated corpus file;
* :func:`lint_pipeline_inputs` — the combined schema + template pass
  used by :class:`~repro.core.pipeline.TrainingPipeline`'s
  pre-generation gate and the ``repro lint`` CLI.

See DESIGN.md for the pass architecture and the full code table.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.corpus_audit import audit_corpus
from repro.analysis.diagnostics import (
    LINT_CODES,
    Diagnostic,
    FixHint,
    LintReport,
    Severity,
    make,
)
from repro.analysis.equivalence import (
    DISTINCT,
    EQUIVALENT,
    UNKNOWN,
    EquivalenceOracle,
    EquivalenceResult,
)
from repro.analysis.schema_lint import lint_schema
from repro.analysis.sql_semantics import analyze_query, analyze_sql
from repro.analysis.template_lint import (
    explain_dead_template,
    lint_templates,
    placeholder_mismatch,
    probe_builder,
)
from repro.core.config import GenerationConfig
from repro.core.templates import SeedTemplate
from repro.schema.schema import Schema

#: Memo of combined reports keyed by input fingerprint: test suites and
#: batch jobs build many pipelines over the same schemas/templates, and
#: the gate must not re-probe every builder each time.
_REPORT_MEMO: dict[str, LintReport] = {}
_REPORT_MEMO_CAP = 64


def _schema_fingerprint(schema: Schema) -> str:
    tables = ";".join(
        "{}({})".format(
            table.name,
            ",".join(
                f"{c.name}:{c.ctype.value}:{int(c.primary_key)}"
                for c in table.columns
            ),
        )
        for table in schema.tables
    )
    fks = ";".join(str(fk) for fk in schema.foreign_keys)
    return f"{schema.name}|{tables}|{fks}"


def _fingerprint(
    schemas: Sequence[Schema],
    templates: Sequence[SeedTemplate],
    config: GenerationConfig | None,
) -> str:
    parts = [_schema_fingerprint(s) for s in schemas]
    parts.extend(
        f"{t.tid}|{t.sql_kind}|{t.nl_pattern}" for t in templates
    )
    if config is not None:
        parts.append(repr(sorted(config.to_dict().items())))
    return "\x1e".join(parts)


def lint_pipeline_inputs(
    schemas: Sequence[Schema],
    templates: Sequence[SeedTemplate],
    config: GenerationConfig | None = None,
) -> LintReport:
    """Schema lint + template lint over a pipeline's inputs (memoized).

    This is the pre-generation gate: :class:`TrainingPipeline` refuses
    to synthesize when the report has errors, and logs its warnings.
    """
    key = _fingerprint(schemas, templates, config)
    cached = _REPORT_MEMO.get(key)
    if cached is not None:
        return cached
    report = LintReport()
    for schema in schemas:
        report.extend(lint_schema(schema))
    report.extend(lint_templates(schemas, templates, config=config))
    if len(_REPORT_MEMO) >= _REPORT_MEMO_CAP:
        _REPORT_MEMO.clear()
    _REPORT_MEMO[key] = report
    return report


__all__ = [
    "DISTINCT",
    "Diagnostic",
    "EQUIVALENT",
    "EquivalenceOracle",
    "EquivalenceResult",
    "FixHint",
    "LINT_CODES",
    "LintReport",
    "Severity",
    "UNKNOWN",
    "analyze_query",
    "analyze_sql",
    "audit_corpus",
    "explain_dead_template",
    "lint_pipeline_inputs",
    "lint_schema",
    "lint_templates",
    "make",
    "placeholder_mismatch",
    "probe_builder",
]

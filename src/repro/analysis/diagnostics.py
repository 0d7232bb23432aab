"""The shared diagnostic model of the static-analysis framework.

Every analysis pass — SQL semantics, template lint, schema lint, corpus
audit — reports findings as :class:`Diagnostic` values carrying a
**stable code** (``L###``), a severity, an optional source span, and a
fix hint.  Codes, not messages, are the machine contract (mirroring the
``E_*`` taxonomy of :mod:`repro.errors`): the mutation test suite, the
pipeline's pre-generation gate, and the ``repro lint`` JSON output all
match on codes, so message wording can evolve freely.

Code ranges by pass:

* ``L1xx`` — SQL semantic analysis against a schema;
* ``L2xx`` — seed-template lint;
* ``L3xx`` — corpus audit;
* ``L4xx`` — schema lint;
* ``L5xx`` — backend schema introspection (:mod:`repro.adapters`);
* ``L6xx`` — canonicalization & equivalence (:mod:`repro.analysis.equivalence`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.sql.ast import Span


class Severity(enum.Enum):
    """How bad a finding is; orders ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.ERROR: 2, Severity.WARNING: 1, Severity.INFO: 0}


# ----------------------------------------------------------------------
# The code registry
# ----------------------------------------------------------------------

#: code -> (default severity, one-line description).
LINT_CODES: dict[str, tuple[Severity, str]] = {
    # SQL semantic analysis --------------------------------------------
    "L101": (Severity.ERROR, "unknown table"),
    "L102": (Severity.ERROR, "unknown column"),
    "L103": (Severity.ERROR, "ambiguous column reference"),
    "L104": (Severity.ERROR, "referenced table is not in the FROM scope"),
    "L105": (Severity.ERROR, "ordering comparison on a text column"),
    "L106": (Severity.ERROR, "literal type clashes with the column type"),
    "L107": (Severity.ERROR, "aggregate used in WHERE"),
    "L108": (Severity.ERROR, "non-grouped select item in a grouped query"),
    "L109": (Severity.ERROR, "HAVING without GROUP BY"),
    "L110": (Severity.ERROR, "FROM tables are not connected by foreign keys"),
    "L111": (Severity.ERROR, "BETWEEN on a text column"),
    "L112": (Severity.ERROR, "SUM/AVG on a non-numeric column"),
    "L113": (Severity.ERROR, "LIKE on a non-text column"),
    "L114": (Severity.ERROR, "placeholder matches no schema element"),
    "L115": (Severity.ERROR, "SELECT * beside GROUP BY or an aggregate"),
    # Template lint ----------------------------------------------------
    "L201": (Severity.ERROR, "NL pattern uses a slot the builder never supplies"),
    "L202": (Severity.ERROR, "NL and SQL placeholders disagree"),
    "L203": (Severity.WARNING, "template has no valid instantiation on a schema"),
    "L204": (Severity.WARNING, "template has no valid instantiation on any schema"),
    "L205": (Severity.ERROR, "duplicate NL pattern signature"),
    "L206": (Severity.ERROR, "template names an unknown SQL kind"),
    # Corpus audit -----------------------------------------------------
    "L301": (Severity.ERROR, "corpus SQL fails to parse"),
    "L302": (Severity.ERROR, "corpus pair has an unrestorable placeholder"),
    "L303": (Severity.ERROR, "malformed corpus record"),
    "L304": (Severity.WARNING, "duplicate corpus pair"),
    # Schema lint ------------------------------------------------------
    "L401": (Severity.ERROR, "foreign key joins differently-typed columns"),
    "L402": (Severity.WARNING, "foreign key target is not a primary key"),
    "L403": (Severity.WARNING, "ambiguous NL phrase within a table"),
    "L404": (Severity.WARNING, "table unreachable in the join graph"),
    # Backend introspection --------------------------------------------
    "L501": (Severity.ERROR, "introspected identifier is not usable in the schema model"),
    "L502": (Severity.WARNING, "identifier yields no NL-splittable annotation"),
    "L503": (Severity.ERROR, "stored values clash with the declared column type"),
    "L504": (Severity.WARNING, "composite foreign key cannot be represented; edge dropped"),
    "L505": (Severity.WARNING, "unrecognized declared type mapped by affinity"),
    "L506": (Severity.ERROR, "database contains no introspectable tables"),
    # Canonicalization & equivalence -----------------------------------
    "L601": (Severity.INFO, "queries proven equivalent by canonical form"),
    "L602": (Severity.ERROR, "differential counterexample: results diverge"),
    "L603": (Severity.WARNING, "equivalence undecided: probes agree but prove nothing"),
    "L604": (Severity.WARNING, "differential probe skipped: query failed to execute"),
    "L605": (Severity.INFO, "canonicalization rewrote the query"),
    "L606": (Severity.ERROR, "unresolvable placeholder blocks differential execution"),
}


@dataclass(frozen=True)
class FixHint:
    """Machine-readable repair key attached to a diagnostic.

    Where ``Diagnostic.hint`` is prose for a human, a ``FixHint`` names
    the offending identifiers so an automated repairer (see
    :mod:`repro.serving.repair`) can act without parsing messages:
    ``kind`` is a stable strategy key, ``subject`` the broken
    identifier, ``table`` its qualifier/owner when known, and
    ``alternatives`` any candidate replacements the pass already
    computed (e.g. the owner tables of an ambiguous column).
    """

    kind: str
    subject: str = ""
    table: str = ""
    alternatives: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        record: dict = {"kind": self.kind}
        if self.subject:
            record["subject"] = self.subject
        if self.table:
            record["table"] = self.table
        if self.alternatives:
            record["alternatives"] = list(self.alternatives)
        return record


@dataclass(frozen=True)
class Diagnostic:
    """One finding of an analysis pass.

    ``location`` names the analyzed artifact (``"patients:join_select-00"``,
    ``"corpus.jsonl:17"``); ``span`` is the character range inside the
    analyzed SQL text, when the finding anchors to one.  ``fix`` is the
    optional machine-readable counterpart of the prose ``hint``.
    """

    code: str
    severity: Severity
    message: str
    location: str = ""
    span: Span | None = None
    hint: str = ""
    fix: FixHint | None = None

    def __str__(self) -> str:
        where = f"{self.location}: " if self.location else ""
        return f"[{self.code}] {where}{self.message}"

    def to_dict(self) -> dict:
        record: dict = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
        }
        if self.span is not None:
            record["span"] = [self.span.start, self.span.end]
        if self.hint:
            record["hint"] = self.hint
        if self.fix is not None:
            record["fix"] = self.fix.to_dict()
        return record


def make(
    code: str,
    message: str,
    location: str = "",
    span: Span | None = None,
    hint: str = "",
    severity: Severity | None = None,
    fix: FixHint | None = None,
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from :data:`LINT_CODES`."""
    try:
        default_severity, _description = LINT_CODES[code]
    except KeyError:
        raise ValueError(f"unknown lint code {code!r}") from None
    return Diagnostic(
        code=code,
        severity=severity or default_severity,
        message=message,
        location=location,
        span=span,
        hint=hint,
        fix=fix,
    )


@dataclass
class LintReport:
    """The collected findings of one or more analysis passes."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """Whether the report is free of errors (warnings allowed)."""
        return not self.errors

    def has_findings(self, strict: bool = False) -> bool:
        """Whether anything actionable was found.

        Non-strict counts errors only; ``strict`` counts warnings too.
        """
        if strict:
            return bool(self.errors or self.warnings)
        return bool(self.errors)

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return dict(sorted(counts.items()))

    def counts(self) -> dict[str, int]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "total": len(self.diagnostics),
        }

    def sorted(self) -> list[Diagnostic]:
        """Diagnostics ordered most severe first, then by code/location."""
        return sorted(
            self.diagnostics,
            key=lambda d: (-d.severity.rank, d.code, d.location, d.message),
        )

    def to_json(self) -> str:
        payload = {
            "summary": {**self.counts(), "by_code": self.by_code()},
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def format_text(self) -> str:
        if not self.diagnostics:
            return "clean: no findings"
        lines = []
        for diag in self.sorted():
            lines.append(f"{diag.severity.value:<7} {diag}")
            if diag.hint:
                lines.append(f"        hint: {diag.hint}")
        counts = self.counts()
        lines.append(
            f"{counts['total']} finding(s): {counts['errors']} error(s), "
            f"{counts['warnings']} warning(s)"
        )
        return "\n".join(lines)

"""Pass 2b: lint a schema's structure and NL annotations.

Schemas are the pipeline's only required input (§1), so defects here
poison everything downstream: a foreign key joining incompatible types
produces join conditions that never match, an FK target that is not a
primary key breaks the join-path semantics the ``@JOIN`` expansion
assumes, ambiguous NL phrases make generated questions unanswerable,
and a table disconnected from the join graph can never participate in
join templates.  Findings use the ``L4xx`` code range.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, make
from repro.schema.schema import Schema


def lint_schema(schema: Schema) -> list[Diagnostic]:
    """Structural and annotation diagnostics for one schema."""
    diagnostics: list[Diagnostic] = []

    for fk in schema.foreign_keys:
        source = schema.column(fk.table, fk.column)
        target = schema.column(fk.ref_table, fk.ref_column)
        if source.ctype is not target.ctype:
            diagnostics.append(
                make(
                    "L401",
                    f"foreign key {fk} joins {source.ctype.value} to "
                    f"{target.ctype.value}",
                    location=schema.name,
                    hint="join conditions on mismatched types never match",
                )
            )
        if not target.primary_key:
            diagnostics.append(
                make(
                    "L402",
                    f"foreign key {fk} targets non-primary-key column "
                    f"{fk.ref_table}.{fk.ref_column}",
                    location=schema.name,
                )
            )

    for table in schema.tables:
        phrases: dict[str, list[str]] = {}
        for column in table.columns:
            for phrase in column.nl_phrases:
                phrases.setdefault(phrase.lower(), []).append(column.name)
        for phrase, owners in phrases.items():
            if len(owners) > 1:
                diagnostics.append(
                    make(
                        "L403",
                        f"phrase {phrase!r} verbalizes columns "
                        f"{', '.join(owners)} of table {table.name!r}",
                        location=schema.name,
                        hint="generated questions using the phrase are "
                        "ambiguous; pick distinct annotations",
                    )
                )

    if len(schema.tables) > 1:
        components = schema.join_components()
        if len(components) > 1:
            main = max(components, key=len)
            for component in components:
                if component is main:
                    continue
                for name in sorted(component):
                    diagnostics.append(
                        make(
                            "L404",
                            f"table {name!r} is unreachable from "
                            f"{', '.join(sorted(main))} in the join graph",
                            location=schema.name,
                            hint="add a foreign key or expect join "
                            "templates to skip the table",
                        )
                    )
    return diagnostics

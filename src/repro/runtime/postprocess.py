"""Runtime post-processing (paper §4.2, §5.1).

Three repairs turn raw model output into executable SQL:

1. **@JOIN expansion** — replace the ``@JOIN`` FROM placeholder with
   the tables referenced by qualified column refs plus the shortest
   join path connecting them (including intermediate tables), adding
   the corresponding FK equality conditions to WHERE;
2. **FROM-clause repair** — when the model emits a column whose table
   is missing from FROM (e.g. asks for patient names without the
   patient table), add the missing tables via the shortest join path;
3. **placeholder restoration** — substitute the constants captured by
   the parameter handler back into the SQL (the inverse of
   pre-processing), resolving by exact placeholder name, then by column
   segment, then positionally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from functools import lru_cache

from repro.errors import SchemaError
from repro.runtime.parameter_handler import Binding
from repro.schema.schema import Schema
from repro.sql.ast import Literal, Placeholder, Query
from repro.sql.edits import close_joins, map_placeholders
from repro.sql.parser import try_parse
from repro.sql.printer import to_sql


@dataclass
class ProcessedQuery:
    """Result of post-processing one model output."""

    query: Query
    sql: str
    repaired: bool = False  # whether JOIN expansion / FROM repair fired


class PostProcessor:
    """Repairs model output and restores constants."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        # The result is a pure function of the SQL text and the bindings,
        # so a repeated answer is parsed and repaired once.  The key holds
        # each value's type: ``5`` and ``5.0`` compare and hash equal, yet
        # print differently, so no key may rest on value (or AST) equality.
        self._memo = lru_cache(maxsize=4096)(self._process)

    def __reduce__(self):
        # The memo wraps a bound method, which pickle cannot store.
        return type(self), (self.schema,)

    # ------------------------------------------------------------------

    def process(
        self, sql_text: str | None, bindings: list[Binding] | tuple = ()
    ) -> ProcessedQuery | None:
        """Parse, repair, and bind one model output (None if unparseable)."""
        if not sql_text:
            return None
        key = tuple(
            (b.placeholder, type(b.value), b.value, b.table, b.column)
            for b in bindings
        )
        memo = self._memo(sql_text, key)
        return None if memo is None else ProcessedQuery(*memo)

    def _process(
        self, sql_text: str, key: tuple
    ) -> tuple[Query, str, bool] | None:
        query = try_parse(sql_text)
        if query is None:
            return None
        repaired = False
        try:
            expanded = self._expand_join(query)
            expanded = self._repair_from(expanded)
            repaired = expanded != query
            query = expanded
        except SchemaError:
            # Unrepairable table references: keep the parsed query as-is.
            pass
        if key:
            bindings = [Binding(p, v, t, c) for p, _, v, t, c in key]
            query = restore_placeholders(query, bindings)
        return query, to_sql(query), repaired

    # ------------------------------------------------------------------
    # @JOIN expansion (§5.1)
    # ------------------------------------------------------------------

    def _expand_join(self, query: Query) -> Query:
        if not query.uses_join_placeholder:
            return query
        referenced = [t for t in query.referenced_tables() if t in self.schema]
        for placeholder in query.placeholders():
            table = placeholder.table
            if table and table in self.schema and table not in referenced:
                referenced.append(table)
        if not referenced:
            raise SchemaError("cannot expand @JOIN: no table-qualified columns")
        return close_joins(query, self.schema, referenced)

    # ------------------------------------------------------------------
    # FROM-clause repair (§4.2)
    # ------------------------------------------------------------------

    def _repair_from(self, query: Query) -> Query:
        if query.uses_join_placeholder:
            return query
        needed = [t for t in query.from_tables if t in self.schema]
        changed = False
        for ref in query.column_refs():
            if ref.table is not None:
                if ref.table in self.schema and ref.table not in needed:
                    needed.append(ref.table)
                    changed = True
                continue
            if any(ref.column in self.schema.table(t) for t in needed):
                continue
            candidates = self.schema.tables_with_column(ref.column)
            if candidates and candidates[0].name not in needed:
                needed.append(candidates[0].name)
                changed = True
        if not needed:
            raise SchemaError("no valid tables referenced")
        if not changed and tuple(needed) == query.from_tables:
            return query
        if len(needed) == 1:
            return dc_replace(query, from_tables=(needed[0],))
        return close_joins(query, self.schema, needed)


# ----------------------------------------------------------------------
# Placeholder restoration
# ----------------------------------------------------------------------


class _Resolver:
    """Stateful placeholder -> constant resolution."""

    def __init__(self, bindings: list[Binding]) -> None:
        self._bindings = bindings
        self._used = [False] * len(bindings)

    def resolve(self, placeholder: Placeholder):
        name = placeholder.name.lower()
        segments = set(name.split("."))
        # 1. exact full-name match
        for index, binding in enumerate(self._bindings):
            if not self._used[index] and binding.placeholder.lower() == name:
                self._used[index] = True
                return binding.value
        # 2. column-segment match
        for index, binding in enumerate(self._bindings):
            if self._used[index]:
                continue
            if binding.column and binding.column.lower() in segments:
                self._used[index] = True
                return binding.value
            if set(binding.segments) & segments:
                self._used[index] = True
                return binding.value
        # 3. positional fallback
        for index, binding in enumerate(self._bindings):
            if not self._used[index]:
                self._used[index] = True
                return binding.value
        return None


def restore_placeholders(query: Query, bindings: list[Binding]) -> Query:
    """Re-bind anonymization-map constants into ``query``'s placeholders.

    The post-processing pass's restoration step, also called by the
    serving repair loop, which renames a placeholder's column segment
    and must then re-run constant restoration.  Placeholders with no
    matching binding are left visible.
    """
    return _transform_query(query, _Resolver(bindings))


def _transform_query(query: Query, resolver) -> Query:
    """``query`` with each placeholder ``resolver`` resolves made a literal."""

    def restore(placeholder: Placeholder):
        value = resolver.resolve(placeholder)
        return placeholder if value is None else Literal(value)

    return map_placeholders(query, restore)

"""A real database backend over the stdlib ``sqlite3`` module.

Three jobs, one file:

* **DDL + bulk load** — :meth:`SqliteAdapter.create` renders a
  :class:`~repro.schema.Schema` to sqlite DDL and :meth:`load` copies a
  populated in-memory :class:`~repro.db.storage.Database` in insertion
  order, so ``rowid`` is dense and equals the reference engine's scan
  position (the deterministic-ordering lever below).
* **Deterministic execution** — :func:`compile_select` emits sqlite SQL
  whose result rows are *bit-identical* to the reference executor's,
  not merely set-equal.  The reference pipeline has concrete semantics
  a naive translation misses; each is compensated explicitly:

  - atomic predicates collapse NULL to false (``compare()`` in
    :mod:`repro.db.expressions`), while sqlite uses three-valued
    logic — every atom is wrapped in ``COALESCE((atom), 0)`` so NOT /
    AND / OR operate on {0,1} exactly as the reference does;
  - output order is the FROM-clause cross-product order — emulated by
    appending ``t.rowid`` tiebreaks (non-grouped) or a
    ``MIN()`` -of-product-rank tiebreak (grouped: the reference emits
    groups in first-appearance order);
  - ORDER BY sorts missing values last regardless of direction —
    emulated with a leading ``(expr IS NULL)`` key per sort key;
  - DISTINCT dedups on the *full* row tuple including ``__order__``
    helper columns, keeping the first occurrence — done client-side
    (sqlite's DISTINCT would also reject our rowid tiebreaks), with
    LIMIT applied after;
  - output labels mirror the executor's: ``str(item)`` for column and
    aggregate items, schema-ordered ``table.column``/``column``
    expansion for ``*`` — every select item is emitted ``AS "label"``.

* **Introspection** — :meth:`introspect` reads ``sqlite_master`` +
  ``PRAGMA table_info``/``foreign_key_list`` into a
  :class:`~repro.schema.Schema`, synthesizing NL annotations by
  splitting identifiers, and reports every judgement call as an
  ``L5xx`` diagnostic.  Any error-severity finding aborts with
  :class:`~repro.errors.IntrospectionError` — never a silently wrong
  schema.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass
from pathlib import Path

from repro.adapters.base import (
    BackendAdapter,
    Capabilities,
    Row,
    normalize_rows,
    register_backend,
)
from repro.analysis.diagnostics import LintReport, make
from repro.db.storage import Database, rows_from_values
from repro.errors import BackendError, DialectError, IntrospectionError
from repro.schema.column import Column, ColumnType
from repro.schema.schema import Schema
from repro.schema.table import ForeignKey, Table
from repro.sql.ast import Aggregate, ColumnRef, OrderItem, Query, Star
from repro.sql.dialects import get_dialect
from repro.sql.printer import SqlPrinter

#: Logical column type -> declared sqlite type.  INTEGER is declared
#: ``INT`` on purpose: a column declared exactly ``INTEGER PRIMARY KEY``
#: becomes an alias for ``rowid``, which would make row order follow key
#: values instead of insertion order and break the determinism contract.
#: ``INT`` has identical affinity without the aliasing rule.
_DECLARED_TYPE = {
    ColumnType.INTEGER: "INT",
    ColumnType.FLOAT: "REAL",
    ColumnType.TEXT: "TEXT",
    ColumnType.DATE: "DATE",
}

#: sqlite ``typeof()`` results compatible with each logical type.
_COMPATIBLE_TYPEOF = {
    ColumnType.INTEGER: {"integer"},
    ColumnType.FLOAT: {"real", "integer"},
    ColumnType.TEXT: {"text"},
    ColumnType.DATE: {"text"},
}


# ----------------------------------------------------------------------
# Executable emission
# ----------------------------------------------------------------------


class ExecutableSqlitePrinter(SqlPrinter):
    """The sqlite dialect printer with reference-engine NULL semantics.

    Subqueries render through :meth:`query`, which adds the same
    deterministic ORDER BY tiebreaks when the subquery has a LIMIT (the
    reference applies its own deterministic pipeline inside subqueries
    too).
    """

    def __init__(self, schema: Schema, extents: dict[str, int]) -> None:
        super().__init__("sqlite")
        self._schema = schema
        self._extents = extents

    def atom(self, rendered: str) -> str:
        return f"COALESCE(({rendered}), 0)"

    def query(self, query: Query) -> str:
        if query.distinct and (query.order_by or query.limit is not None):
            raise DialectError(
                "DISTINCT combined with ORDER BY/LIMIT inside a subquery "
                "requires client-side deduplication and cannot be emitted "
                "for sqlite"
            )
        if query.limit is None:
            return super().query(query)
        # A LIMIT cuts the row set, so the subquery's order must be the
        # reference order; splice in the deterministic tiebreaks.
        ordered = order_clause(query, self, self._extents)
        trimmed = Query(
            select=query.select,
            from_tables=query.from_tables,
            where=query.where,
            group_by=query.group_by,
            having=query.having,
            order_by=(),
            limit=None,
            distinct=query.distinct,
        )
        base = super().query(trimmed)
        if ordered:
            base += " ORDER BY " + ", ".join(ordered)
        return base + f" LIMIT {query.limit}"


def is_aggregate_query(query: Query) -> bool:
    """Mirror of the reference executor's grouped-path trigger."""
    return bool(query.aggregates()) or any(
        isinstance(item, Aggregate) for item in query.select
    )


def order_clause(
    query: Query, printer: SqlPrinter, extents: dict[str, int]
) -> list[str]:
    """ORDER BY terms reproducing the reference engine's output order.

    User keys first (each preceded by an ``IS NULL`` missing-last
    flag), then the determinism tiebreak: per-table ``rowid`` for
    non-grouped queries, the minimum cross-product rank for grouped
    ones.  Global aggregates (no GROUP BY) yield one row and need
    neither.
    """
    terms: list[str] = []
    for item in query.order_by:
        expr = (
            printer.aggregate(item.expr)
            if isinstance(item.expr, Aggregate)
            else printer.column_ref(item.expr)
        )
        terms.append(f"({expr} IS NULL)")
        terms.append(f"{expr} DESC" if item.desc else expr)
    if is_aggregate_query(query):
        if query.group_by:
            terms.append(f"MIN({_product_rank(query, printer, extents)})")
        return terms
    for table in query.from_tables:
        terms.append(printer.column_ref(ColumnRef("rowid", table=table)))
    return terms


def _product_rank(
    query: Query, printer: SqlPrinter, extents: dict[str, int]
) -> str:
    """An integer expression strictly increasing in cross-product order.

    For FROM tables t1..tk the reference joins rows in lexicographic
    ``(rowid_1, .., rowid_k)`` order; flattening with per-table radixes
    ``M_i = max(rowid of t_i)`` gives a single sortable rank whose group
    minimum is the group's first appearance.
    """
    tables = query.from_tables
    if len(tables) == 1:
        return printer.column_ref(ColumnRef("rowid", table=tables[0]))
    parts = []
    for position, table in enumerate(tables):
        rowid = printer.column_ref(ColumnRef("rowid", table=table))
        radix = 1
        for later in tables[position + 1 :]:
            radix *= max(extents.get(later, 1), 1)
        if position == len(tables) - 1:
            parts.append(f"({rowid} - 1)")
        else:
            parts.append(f"({rowid} - 1) * {radix}")
    return " + ".join(parts)


@dataclass
class CompiledQuery:
    """One top-level query lowered to sqlite SQL plus a client-side plan."""

    sql: str
    #: DISTINCT (and its LIMIT) must run client-side (see module doc).
    client_distinct: bool = False
    #: LIMIT to apply client-side when ``client_distinct``.
    limit: int | None = None
    #: Helper labels (``__order__*``) to strip from result rows.
    helpers: tuple[str, ...] = ()


def compile_select(
    query: Query, schema: Schema, extents: dict[str, int]
) -> CompiledQuery:
    """Lower ``query`` to deterministic sqlite SQL (see module docstring)."""
    if query.uses_join_placeholder:
        raise BackendError(
            "cannot execute query with unresolved @JOIN placeholder; "
            "run the post-processor first"
        )
    placeholders = query.placeholders()
    if placeholders:
        # sqlite would read ``@AGE`` as a bind parameter and fail on the
        # binding count; name the placeholder as the memory engine does.
        raise BackendError(
            f"cannot execute query with unresolved placeholder "
            f"@{placeholders[0].name}; run the post-processor first"
        )
    printer = ExecutableSqlitePrinter(schema, extents)
    dialect = printer.dialect
    grouped = is_aggregate_query(query)

    # SELECT list: (label, expr) pairs exactly mirroring executor labels.
    pairs: list[tuple[str, str]] = []
    labels: set[str] = set()
    for item in query.select:
        if isinstance(item, Star):
            if grouped:
                raise BackendError("SELECT * cannot be combined with GROUP BY")
            multi = len(query.from_tables) > 1
            for table in query.from_tables:
                for column in schema.table(table).columns:
                    label = f"{table}.{column.name}" if multi else column.name
                    ref = ColumnRef(column.name, table=table)
                    pairs.append((label, printer.column_ref(ref)))
                    labels.add(label)
        elif isinstance(item, ColumnRef):
            pairs.append((str(item), printer.column_ref(item)))
            labels.add(str(item))
        elif isinstance(item, Aggregate):
            pairs.append((str(item), printer.aggregate(item)))
            labels.add(str(item))
        else:
            raise BackendError(f"unsupported select item: {item!r}")

    # ORDER BY helper columns, as the executor adds them.
    helpers: list[str] = []
    for order in query.order_by:
        label = str(order.expr)
        if label in labels:
            continue
        helper = "__order__" + label
        expr = (
            printer.aggregate(order.expr)
            if isinstance(order.expr, Aggregate)
            else printer.column_ref(order.expr)
        )
        pairs.append((helper, expr))
        labels.add(label)
        helpers.append(helper)

    parts = ["SELECT"]
    parts.append(
        ", ".join(
            f"{expr} AS {dialect.quote_identifier(label)}"
            for label, expr in pairs
        )
    )
    parts.append("FROM")
    parts.append(", ".join(printer.table(t) for t in query.from_tables))
    if query.where is not None:
        parts.append("WHERE")
        parts.append(printer.predicate(query.where))
    if query.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(printer.column_ref(c) for c in query.group_by))
    if query.having is not None:
        parts.append("HAVING")
        parts.append(printer.predicate(query.having))
    ordered = order_clause(query, printer, extents)
    if ordered:
        parts.append("ORDER BY")
        parts.append(", ".join(ordered))
    if query.limit is not None and not query.distinct:
        parts.append(f"LIMIT {query.limit}")
    return CompiledQuery(
        sql=" ".join(parts),
        client_distinct=query.distinct,
        limit=query.limit,
        helpers=tuple(helpers),
    )


# ----------------------------------------------------------------------
# NL annotation synthesis
# ----------------------------------------------------------------------

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Za-z])(?=[0-9])")


def split_identifier(name: str) -> str:
    """``patient_name`` / ``patientName`` -> ``"patient name"``.

    Returns an empty string when the identifier has no alphabetic
    content to verbalize (the L502 case).
    """
    spaced = _CAMEL_BOUNDARY.sub(" ", name.replace("_", " "))
    words = [w for w in spaced.split() if any(ch.isalpha() for ch in w)]
    return " ".join(w.lower() for w in words)


# ----------------------------------------------------------------------
# The adapter
# ----------------------------------------------------------------------


@register_backend("sqlite")
class SqliteAdapter(BackendAdapter):
    """Backend over a sqlite3 database file (or ``:memory:``)."""

    capabilities = Capabilities(
        name="sqlite",
        dialect="sqlite",
        persistent=True,
        introspectable=True,
        executes_sql_text=True,
        transactional=True,
    )

    def __init__(
        self,
        path: str | Path = ":memory:",
        schema: Schema | None = None,
        schema_name: str | None = None,
    ) -> None:
        self.path = str(path)
        self._schema = schema
        self._schema_name = schema_name
        self._conn: sqlite3.Connection | None = None
        self._extent_cache: dict[str, int] = {}
        #: Warnings from the last :meth:`introspect` call.
        self.last_introspection = LintReport()

    @classmethod
    def from_database(
        cls,
        database: Database,
        path: str | Path = ":memory:",
        enforce_keys: bool | None = None,
    ) -> "SqliteAdapter":
        """Create + load a sqlite database mirroring ``database``."""
        adapter = cls(path, schema=database.schema)
        adapter.connect()
        adapter.create(database.schema, enforce_keys=enforce_keys)
        adapter.load(database)
        return adapter

    # -- lifecycle -----------------------------------------------------

    def connect(self) -> "SqliteAdapter":
        if self._conn is None:
            try:
                self._conn = sqlite3.connect(self.path)
            except sqlite3.Error as exc:
                raise BackendError(
                    f"cannot open sqlite database {self.path!r}: {exc}"
                ) from exc
        return self

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    @property
    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self.connect()
        return self._conn  # type: ignore[return-value]

    # -- DDL and loading -----------------------------------------------

    def create(self, schema: Schema, enforce_keys: bool | None = None) -> None:
        """Create ``schema``'s tables (which must not already exist).

        ``enforce_keys`` controls PRIMARY KEY declaration: ``True``
        declares every key, ``False`` none, and the default ``None``
        declares only single-column INTEGER keys that are not also
        foreign keys — the subset synthetic :mod:`~repro.db.datagen`
        data is guaranteed to satisfy (its text keys may repeat).
        """
        dialect = get_dialect("sqlite")
        fk_children = {(fk.table, fk.column) for fk in schema.foreign_keys}
        statements = []
        for table in schema.tables:
            pk_columns = [c for c in table.columns if c.primary_key]
            if enforce_keys is True:
                declared_pk = pk_columns
            elif enforce_keys is False:
                declared_pk = []
            else:
                declared_pk = [
                    c
                    for c in pk_columns
                    if len(pk_columns) == 1
                    and c.ctype is ColumnType.INTEGER
                    and (table.name, c.name) not in fk_children
                ]
            body = [
                f"{dialect.quote_identifier(c.name)} {_DECLARED_TYPE[c.ctype]}"
                for c in table.columns
            ]
            if declared_pk:
                keys = ", ".join(
                    dialect.quote_identifier(c.name) for c in declared_pk
                )
                body.append(f"PRIMARY KEY ({keys})")
            for fk in schema.foreign_keys:
                if fk.table != table.name:
                    continue
                body.append(
                    f"FOREIGN KEY ({dialect.quote_identifier(fk.column)}) "
                    f"REFERENCES {dialect.quote_identifier(fk.ref_table)} "
                    f"({dialect.quote_identifier(fk.ref_column)})"
                )
            statements.append(
                f"CREATE TABLE {dialect.quote_identifier(table.name)} "
                f"({', '.join(body)})"
            )
        try:
            with self.connection:
                for statement in statements:
                    self.connection.execute(statement)
        except sqlite3.Error as exc:
            raise BackendError(f"DDL failed: {exc}") from exc
        self._schema = schema
        self._extent_cache.clear()

    def load(self, database: Database) -> None:
        """Bulk-load ``database`` in insertion order (one transaction)."""
        schema = database.schema
        if self._schema is None:
            self.create(schema)
        dialect = get_dialect("sqlite")
        try:
            with self.connection:
                for table in schema.tables:
                    names = [c.name for c in table.columns]
                    sql = (
                        f"INSERT INTO {dialect.quote_identifier(table.name)} "
                        f"({', '.join(dialect.quote_identifier(n) for n in names)}) "
                        f"VALUES ({', '.join('?' for _ in names)})"
                    )
                    rows = [
                        tuple(row[name] for name in names)
                        for row in database.rows(table.name)
                    ]
                    if rows:
                        self.connection.executemany(sql, rows)
        except sqlite3.Error as exc:
            raise BackendError(
                f"bulk load into {self.path!r} failed: {exc}"
            ) from exc
        self._extent_cache.clear()

    # -- execution -----------------------------------------------------

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            self._schema = self.introspect()
        return self._schema

    def _extents(self, tables: tuple[str, ...]) -> dict[str, int]:
        dialect = get_dialect("sqlite")
        extents: dict[str, int] = {}
        for table in tables:
            if table not in self._extent_cache:
                try:
                    cursor = self.connection.execute(
                        f"SELECT MAX(rowid) FROM {dialect.quote_identifier(table)}"
                    )
                except sqlite3.Error as exc:
                    raise BackendError(
                        f"cannot inspect table {table!r}: {exc}"
                    ) from exc
                value = cursor.fetchone()[0]
                self._extent_cache[table] = int(value or 0)
            extents[table] = self._extent_cache[table]
        return extents

    def execute(self, query: Query, max_rows: int | None = None) -> list[Row]:
        schema = self.schema
        for table in query.from_tables:
            if not table.startswith("@") and table not in schema:
                raise BackendError(
                    f"unknown table {table!r} in schema {schema.name!r}"
                )
        # Extents for every table, not just the FROM clause: subqueries
        # may range over other tables and need rank radixes too.
        compiled = compile_select(
            query, schema, self._extents(schema.table_names)
        )
        try:
            cursor = self.connection.execute(compiled.sql)
        except sqlite3.Error as exc:
            raise BackendError(
                f"sqlite rejected compiled query: {exc}\n  {compiled.sql}"
            ) from exc
        columns = [description[0] for description in cursor.description]
        rows = rows_from_values(columns, cursor.fetchall())
        if compiled.client_distinct:
            seen: set[tuple] = set()
            unique: list[Row] = []
            for row in rows:
                key = tuple(row.values())
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        if compiled.helpers:
            helper_set = set(compiled.helpers)
            rows = [
                {k: v for k, v in row.items() if k not in helper_set}
                for row in rows
            ]
        if compiled.client_distinct and compiled.limit is not None:
            rows = rows[: compiled.limit]
        if max_rows is not None:
            rows = rows[:max_rows]
        return normalize_rows(rows)

    # -- introspection -------------------------------------------------

    def introspect(self) -> Schema:
        """Read the live database into a :class:`Schema` (see module doc)."""
        report = LintReport()
        conn = self.connection
        try:
            rows = conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
            ).fetchall()
        except sqlite3.Error as exc:
            raise BackendError(
                f"cannot read sqlite catalog of {self.path!r}: {exc}"
            ) from exc
        raw_names = [row[0] for row in rows]
        if not raw_names:
            report.extend(
                [
                    make(
                        "L506",
                        f"database {self.path!r} contains no tables",
                        location=self.path,
                    )
                ]
            )
            self.last_introspection = report
            raise IntrospectionError(
                f"nothing to introspect in {self.path!r}",
                diagnostics=report.diagnostics,
            )

        tables: list[Table] = []
        seen_names: dict[str, str] = {}
        usable_tables: dict[str, Table] = {}
        for raw_name in raw_names:
            name = raw_name.lower()
            location = f"{self.path}:{raw_name}"
            if not _usable_identifier(name):
                report.extend(
                    [
                        make(
                            "L501",
                            f"table name {raw_name!r} is not a usable "
                            "identifier",
                            location=location,
                            hint="rename to snake_case letters/digits/underscores",
                        )
                    ]
                )
                continue
            if name in seen_names:
                report.extend(
                    [
                        make(
                            "L501",
                            f"table names {seen_names[name]!r} and "
                            f"{raw_name!r} collide after lowercasing",
                            location=location,
                        )
                    ]
                )
                continue
            seen_names[name] = raw_name
            columns = self._introspect_columns(raw_name, name, report)
            if columns is None:
                continue
            annotation = split_identifier(name)
            if not annotation:
                report.extend(
                    [
                        make(
                            "L502",
                            f"table name {raw_name!r} yields no NL phrase; "
                            "using the raw identifier",
                            location=location,
                        )
                    ]
                )
                annotation = name
            table = Table(name, columns, annotation=annotation)
            tables.append(table)
            usable_tables[name] = table

        foreign_keys = self._introspect_foreign_keys(
            seen_names, usable_tables, report
        )

        self.last_introspection = report
        if not report.ok:
            raise IntrospectionError(
                f"cannot build a schema from {self.path!r}: "
                f"{len(report.errors)} error(s), e.g. {report.errors[0]}",
                diagnostics=report.diagnostics,
            )
        name = self._schema_name or _schema_name_from_path(self.path)
        return Schema(name, tables, foreign_keys)

    def _introspect_columns(
        self, raw_table: str, table: str, report: LintReport
    ) -> list[Column] | None:
        dialect = get_dialect("sqlite")
        quoted = dialect.quote_identifier(raw_table)
        info = self.connection.execute(
            f"PRAGMA table_info({quoted})"
        ).fetchall()
        columns: list[Column] = []
        seen: dict[str, str] = {}
        ok = True
        for _cid, raw_name, declared, _notnull, _default, pk in info:
            name = raw_name.lower()
            location = f"{self.path}:{raw_table}.{raw_name}"
            if not _usable_identifier(name):
                report.extend(
                    [
                        make(
                            "L501",
                            f"column name {raw_name!r} is not a usable "
                            "identifier",
                            location=location,
                        )
                    ]
                )
                ok = False
                continue
            if name in seen:
                report.extend(
                    [
                        make(
                            "L501",
                            f"column names {seen[name]!r} and {raw_name!r} "
                            "collide after lowercasing",
                            location=location,
                        )
                    ]
                )
                ok = False
                continue
            seen[name] = raw_name
            ctype, recognized = _map_declared_type(declared)
            if not recognized:
                report.extend(
                    [
                        make(
                            "L505",
                            f"declared type {declared!r} mapped to "
                            f"{ctype.name} by affinity",
                            location=location,
                        )
                    ]
                )
            mismatch = self._typeof_mismatch(quoted, raw_name, ctype)
            if mismatch:
                report.extend(
                    [
                        make(
                            "L503",
                            f"column declared {declared!r} ({ctype.name}) "
                            f"stores typeof={mismatch!r} values",
                            location=location,
                            hint="fix the stored values or the declared type",
                        )
                    ]
                )
                ok = False
                continue
            annotation = split_identifier(name)
            if not annotation:
                report.extend(
                    [
                        make(
                            "L502",
                            f"column name {raw_name!r} yields no NL phrase; "
                            "using the raw identifier",
                            location=location,
                        )
                    ]
                )
                annotation = name
            columns.append(
                Column(
                    name,
                    ctype=ctype,
                    annotation=annotation,
                    primary_key=bool(pk),
                )
            )
        if not columns:
            report.extend(
                [
                    make(
                        "L501",
                        f"table {raw_table!r} has no usable columns",
                        location=f"{self.path}:{raw_table}",
                    )
                ]
            )
            return None
        return columns if ok else None

    def _typeof_mismatch(
        self, quoted_table: str, raw_column: str, ctype: ColumnType
    ) -> str | None:
        """The first stored ``typeof()`` incompatible with ``ctype``."""
        dialect = get_dialect("sqlite")
        quoted = dialect.quote_identifier(raw_column)
        stored = self.connection.execute(
            f"SELECT DISTINCT typeof({quoted}) FROM {quoted_table} "
            f"WHERE {quoted} IS NOT NULL LIMIT 8"
        ).fetchall()
        allowed = _COMPATIBLE_TYPEOF[ctype]
        for (kind,) in stored:
            if kind not in allowed:
                return kind
        return None

    def _introspect_foreign_keys(
        self,
        seen_names: dict[str, str],
        tables: dict[str, Table],
        report: LintReport,
    ) -> list[ForeignKey]:
        dialect = get_dialect("sqlite")
        foreign_keys: list[ForeignKey] = []
        for name, raw_name in seen_names.items():
            if name not in tables:
                continue
            rows = self.connection.execute(
                f"PRAGMA foreign_key_list({dialect.quote_identifier(raw_name)})"
            ).fetchall()
            groups: dict[int, list[tuple]] = {}
            for row in rows:
                groups.setdefault(row[0], []).append(row)
            for fk_id, members in sorted(groups.items()):
                location = f"{self.path}:{raw_name}#fk{fk_id}"
                if len(members) > 1:
                    report.extend(
                        [
                            make(
                                "L504",
                                f"composite foreign key on {raw_name!r} "
                                f"({len(members)} columns) dropped",
                                location=location,
                            )
                        ]
                    )
                    continue
                _id, _seq, ref_table, child, parent = members[0][:5]
                ref_name = ref_table.lower()
                if ref_name not in tables:
                    report.extend(
                        [
                            make(
                                "L504",
                                f"foreign key on {raw_name!r} references "
                                f"unusable table {ref_table!r}; edge dropped",
                                location=location,
                            )
                        ]
                    )
                    continue
                if parent is None:
                    pk = tables[ref_name].primary_key
                    if pk is None:
                        report.extend(
                            [
                                make(
                                    "L504",
                                    f"foreign key on {raw_name!r} references "
                                    f"{ref_table!r} which has no primary key; "
                                    "edge dropped",
                                    location=location,
                                )
                            ]
                        )
                        continue
                    parent = pk.name
                child_name = child.lower()
                parent_name = parent.lower()
                if (
                    child_name not in tables[name]
                    or parent_name not in tables[ref_name]
                ):
                    report.extend(
                        [
                            make(
                                "L504",
                                f"foreign key {raw_name}.{child} -> "
                                f"{ref_table}.{parent} references an unusable "
                                "column; edge dropped",
                                location=location,
                            )
                        ]
                    )
                    continue
                foreign_keys.append(
                    ForeignKey(name, child_name, ref_name, parent_name)
                )
        return foreign_keys


def _usable_identifier(name: str) -> bool:
    return bool(name) and name.replace("_", "").isalnum()


def _map_declared_type(declared: str | None) -> tuple[ColumnType, bool]:
    """Map a declared sqlite type to a logical type.

    Returns ``(type, recognized)`` — unrecognized declarations fall back
    through sqlite's affinity rules (the L505 case).  ``DATE`` is
    checked before ``INT`` so ``DATETIME``-style declarations land on
    DATE, mirroring how :meth:`SqliteAdapter.create` spells dates.
    """
    text = (declared or "").upper()
    if "DATE" in text or "TIME" in text:
        return ColumnType.DATE, True
    if "INT" in text:
        return ColumnType.INTEGER, True
    if any(tag in text for tag in ("CHAR", "CLOB", "TEXT")):
        return ColumnType.TEXT, True
    if any(tag in text for tag in ("REAL", "FLOA", "DOUB")):
        return ColumnType.FLOAT, True
    if any(tag in text for tag in ("NUM", "DEC", "BOOL")):
        return ColumnType.FLOAT, False
    return ColumnType.TEXT, False


def _schema_name_from_path(path: str) -> str:
    if path == ":memory:":
        return "sqlite"
    stem = Path(path).stem.lower()
    cleaned = re.sub(r"[^a-z0-9_]", "_", stem).strip("_")
    return cleaned or "sqlite"


# re-exported for the differential suite and benchmarks
__all__ = [
    "CompiledQuery",
    "ExecutableSqlitePrinter",
    "SqliteAdapter",
    "compile_select",
    "split_identifier",
]


"""In-memory row storage.

A :class:`Database` binds a :class:`~repro.schema.schema.Schema` to
concrete rows.  Rows are plain dicts keyed by column name; values are
``int``/``float``/``str`` or ``None``.  The executor, the value index
(constant anonymization), and the equivalence oracle's execution probes
all operate on this structure.

Reads come in two explicit flavours:

* :meth:`Database.scan` — the hot path.  Returns a zero-copy, read-only
  view (a lazily built tuple of the live row dicts); callers must not
  mutate the rows.  The executor and planner scan tables through this.
* :meth:`Database.rows` — the mutation-safe path.  Returns fresh
  shallow copies on every call, for callers that want to edit rows
  without touching storage.

The :attr:`Database.version` counter increments on every insert so
caching layers (hash indexes, result caches) can detect staleness.

Alongside the row view the database maintains a lazily built *columnar*
view: a :class:`ColumnStore` per table holding one numpy array per
column (plus a null mask), dtype-mapped from the column's
:class:`~repro.schema.column.ColumnType`.  The vectorized executor
(:mod:`repro.db.vectorized`) evaluates predicates, join probes, and
aggregates against these arrays; columns whose values do not round-trip
a clean dtype (mixed types, huge integers, strings with embedded NULs)
are marked non-vectorizable and the executor falls back to the row path
for any step touching them.  Column stores are invalidated through the
same version counter as every other cache: an insert drops the table's
store and the next columnar read rebuilds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ExecutionError, SchemaError
from repro.schema.column import ColumnType
from repro.schema.schema import Schema

Row = dict[str, Any]


def _row_builder_source(arity: int) -> str:
    """Source of ``build(values, k0, …)``, made from ``arity`` alone."""
    keys = ", ".join(f"k{i}" for i in range(arity))
    items = ", ".join(f"k{i}: v{i}" for i in range(arity))
    unpack = ", ".join(f"v{i}" for i in range(arity))
    return (
        f"def build(values, {keys}):\n"
        f"    return [{{{items}}} for ({unpack},) in values]\n"
    )


@lru_cache(maxsize=64)
def _row_builder(arity: int) -> Callable[..., list[Row]]:
    """A function ``build(values, k0, …, k{arity-1})`` that returns
    ``[{k0: v0, …} for (v0, …) in values]``.

    Labels arrive as arguments and are never formatted into the
    source, so no label can inject code.  A dict display builds a row
    in one step, where ``dict(zip(labels, values))`` makes a zip
    iterator and a tuple per pair.
    """
    if arity == 0:
        return lambda values: [{} for _ in values]
    namespace: dict[str, Any] = {}
    exec(
        compile(_row_builder_source(arity), f"<row builder, arity {arity}>", "exec"),
        namespace,
    )
    return namespace["build"]


def rows_from_values(
    labels: Sequence[str], values: Iterable[Sequence[Any]]
) -> list[Row]:
    """One fresh row dict per value tuple, keyed by ``labels`` in order.

    The same rows as ``[dict(zip(labels, v)) for v in values]``, key
    order and a repeated label's last-wins value included, for value
    tuples as long as ``labels``.  Every engine builds result rows from
    labelled value tuples through this one function.
    """
    return _row_builder(len(labels))(values, *labels)


#: Integers with |v| <= 2**53 are exactly representable as float64, so
#: int-vs-float comparisons and joins can be vectorized in float space.
FLOAT_EXACT_INT = 2**53

#: Text columns whose longest value exceeds this many characters are not
#: materialized as fixed-width unicode arrays (memory blowup guard).
MAX_TEXT_WIDTH = 512


@dataclass
class ColumnData:
    """One column as a numpy array plus nullness metadata.

    ``values`` holds a fill value (0 / 0.0 / "") at null slots; ``nulls``
    is a boolean mask or ``None`` when the column has no NULLs.  ``kind``
    is the array's logical kind (``int`` / ``float`` / ``str``).
    ``exact`` means ``values.astype(object).tolist()`` reproduces the
    stored Python values bit-identically (type and value), so the array
    may be used to *materialize* output values, not just to filter.
    ``float_safe`` means every numeric value is exactly representable as
    a float64, so cross-kind int/float comparisons stay exact.
    """

    values: Any  # np.ndarray
    nulls: Any | None  # np.ndarray[bool] | None
    kind: str  # "int" | "float" | "str"
    exact: bool
    float_safe: bool


_KIND_BY_CTYPE = {
    ColumnType.INTEGER: "int",
    ColumnType.FLOAT: "float",
    ColumnType.TEXT: "str",
    ColumnType.DATE: "str",
}


def _build_column(values: list[Any], ctype: ColumnType) -> "ColumnData | None":
    """Build one column's array, or ``None`` when not vectorizable."""
    null_flags = [v is None for v in values]
    any_nulls = any(null_flags)
    nulls = np.array(null_flags, dtype=bool) if any_nulls else None
    present = [v for v in values if v is not None]

    if not present:  # empty or all-NULL: kind from the declared type
        kind = _KIND_BY_CTYPE[ctype]
        dtype = {"int": np.int64, "float": np.float64, "str": "U1"}[kind]
        return ColumnData(
            values=np.zeros(len(values), dtype=dtype),
            nulls=nulls,
            kind=kind,
            exact=True,
            float_safe=True,
        )

    # type() (not isinstance) so bools never pass as ints.
    if all(type(v) is int for v in present):
        try:
            arr = np.array(
                [0 if v is None else v for v in values], dtype=np.int64
            )
        except OverflowError:
            return None
        float_safe = all(-FLOAT_EXACT_INT <= v <= FLOAT_EXACT_INT for v in present)
        return ColumnData(arr, nulls, "int", exact=True, float_safe=float_safe)

    if all(type(v) in (int, float) for v in present):
        if any(v != v for v in present):  # NaN: ==/sort semantics diverge
            return None
        try:
            arr = np.array(
                [0.0 if v is None else v for v in values], dtype=np.float64
            )
        except OverflowError:
            return None
        all_float = all(type(v) is float for v in present)
        float_safe = all(
            type(v) is float or -FLOAT_EXACT_INT <= v <= FLOAT_EXACT_INT
            for v in present
        )
        return ColumnData(arr, nulls, "float", exact=all_float, float_safe=float_safe)

    if all(type(v) is str for v in present):
        if any("\x00" in v for v in present):  # U-dtype drops trailing NULs
            return None
        if max(len(v) for v in present) > MAX_TEXT_WIDTH:
            return None
        arr = np.array(["" if v is None else v for v in values])
        return ColumnData(arr, nulls, "str", exact=True, float_safe=False)

    return None  # mixed / unsupported value types: row path only


class ColumnStore:
    """Columnar snapshot of one table at one :attr:`Database.version`.

    Arrays are built lazily per column on first access and cached for
    the life of the store; the owning :class:`Database` drops the store
    whenever the table changes, so a store never serves stale data.
    """

    def __init__(self, database: "Database", table_name: str) -> None:
        self.table = table_name
        self.version = database.version
        self._rows = database.scan(table_name)
        self.length = len(self._rows)
        self._ctypes = {
            c.name: c.ctype for c in database.schema.table(table_name).columns
        }
        self._columns: dict[str, ColumnData | None] = {}
        self._non_null: dict[str, list[Any]] = {}
        self._codes: dict[str, "tuple[Any, int, Any] | None"] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnStore({self.table!r}, rows={self.length})"

    def column(self, name: str) -> ColumnData | None:
        """The column's array bundle, or ``None`` when not vectorizable."""
        if name not in self._columns:
            if name not in self._ctypes:
                raise SchemaError(
                    f"table {self.table!r} has no column {name!r}"
                )
            self._columns[name] = _build_column(
                [row[name] for row in self._rows], self._ctypes[name]
            )
        return self._columns[name]

    def factorize(self, name: str) -> "tuple[Any, int, Any] | None":
        """Dictionary codes for one column, or ``None`` if not vectorizable.

        Returns ``(codes, cardinality, dictionary)``: an int64 code array
        over storage order where equal values share a code, the sorted
        array of distinct non-NULL values (``dictionary[c]`` is code
        ``c``'s value), and the cardinality — ``len(dictionary)`` plus one
        when NULLs are present, which take the dedicated top code.  Code
        *values* carry no meaning beyond equality — the executor's
        group-by and DISTINCT kernels order groups by first appearance,
        never by code — and equi-joins merge two columns' dictionaries
        into a shared code space instead of re-uniquing full columns.
        Cached for the life of the store, so repeated queries pay the
        ``np.unique`` sort once per table version instead of per query.
        """
        if name not in self._codes:
            data = self.column(name)
            if data is None:
                self._codes[name] = None
            elif self.length == 0:
                self._codes[name] = (
                    np.zeros(0, dtype=np.int64), 1, data.values[:0]
                )
            else:
                uniq, inverse = np.unique(data.values, return_inverse=True)
                codes = inverse.astype(np.int64).reshape(self.length)
                card = int(codes.max()) + 1
                if data.nulls is not None:
                    codes = np.where(data.nulls, card, codes)
                    card += 1
                self._codes[name] = (codes, card, uniq)
        return self._codes[name]

    def non_null_values(self, name: str) -> list[Any]:
        """Non-null values in insertion order (cached; do not mutate)."""
        if name not in self._non_null:
            if name not in self._ctypes:
                raise SchemaError(
                    f"table {self.table!r} has no column {name!r}"
                )
            self._non_null[name] = [
                row[name] for row in self._rows if row[name] is not None
            ]
        return self._non_null[name]


class Database:
    """A schema plus in-memory rows for each of its tables."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._rows: dict[str, list[Row]] = {t.name: [] for t in schema.tables}
        self._views: dict[str, tuple[Row, ...]] = {}
        self._column_stores: dict[str, ColumnStore] = {}
        self._version = 0

    def __repr__(self) -> str:
        sizes = {name: len(rows) for name, rows in self._rows.items()}
        return f"Database({self.schema.name!r}, rows={sizes})"

    @property
    def version(self) -> int:
        """Monotone counter bumped on every insert (cache invalidation)."""
        return self._version

    def insert(self, table_name: str, row: Mapping[str, Any]) -> None:
        """Insert one row; validates column names and value types."""
        table = self.schema.table(table_name)
        clean: Row = {}
        for column in table.columns:
            value = row.get(column.name)
            if value is not None:
                value = _coerce(value, column.ctype, table_name, column.name)
            clean[column.name] = value
        unknown = set(row) - set(table.column_names)
        if unknown:
            raise SchemaError(
                f"row for table {table_name!r} has unknown columns {sorted(unknown)}"
            )
        self._rows[table_name].append(clean)
        self._views.pop(table_name, None)
        self._column_stores.pop(table_name, None)
        self._version += 1

    def insert_many(self, table_name: str, rows: Iterable[Mapping[str, Any]]) -> None:
        """Insert many rows."""
        for row in rows:
            self.insert(table_name, row)

    def scan(self, table_name: str) -> Sequence[Row]:
        """Zero-copy, read-only view of a table's rows.

        The returned tuple aliases the live row dicts — callers must
        treat them as immutable.  The view is built once per table
        version and shared by every scan, so repeated scans allocate
        nothing (the per-row deep copies :meth:`rows` makes dominated
        the executor profile before this existed).
        """
        if table_name not in self._rows:
            raise SchemaError(
                f"database {self.schema.name!r} has no table {table_name!r}"
            )
        view = self._views.get(table_name)
        if view is None:
            view = tuple(self._rows[table_name])
            self._views[table_name] = view
        return view

    def rows(self, table_name: str) -> list[Row]:
        """All rows of a table as fresh shallow copies (safe to mutate).

        This is the explicit mutation-safe read; use :meth:`scan` for
        read-only access without the per-call allocation churn.
        """
        return [dict(row) for row in self.scan(table_name)]

    def row_count(self, table_name: str) -> int:
        if table_name not in self._rows:
            raise SchemaError(
                f"database {self.schema.name!r} has no table {table_name!r}"
            )
        return len(self._rows[table_name])

    def column_store(self, table_name: str) -> ColumnStore:
        """The table's columnar view, built lazily at the current version.

        Inserts drop the store (same invalidation as :meth:`scan`'s row
        views), so a cached store always reflects the live rows.
        """
        if table_name not in self._rows:
            raise SchemaError(
                f"database {self.schema.name!r} has no table {table_name!r}"
            )
        store = self._column_stores.get(table_name)
        if store is None:
            store = ColumnStore(self, table_name)
            self._column_stores[table_name] = store
        return store

    def column_values(self, table_name: str, column_name: str) -> list[Any]:
        """All non-null values of one column, in insertion order.

        Served from the column store's cached list when one is
        populated (the :class:`~repro.db.index.ValueIndex` and the
        similarity lookups hit this per column); otherwise built
        directly from the rows without forcing a store build.
        """
        self.schema.column(table_name, column_name)
        store = self._column_stores.get(table_name)
        if store is not None:
            return list(store.non_null_values(column_name))
        return [
            row[column_name]
            for row in self._rows[table_name]
            if row[column_name] is not None
        ]


def _coerce(value: Any, ctype: ColumnType, table: str, column: str) -> Any:
    """Coerce ``value`` to the column's logical type or raise."""
    try:
        if ctype is ColumnType.INTEGER:
            if isinstance(value, bool):
                raise TypeError
            return int(value)
        if ctype is ColumnType.FLOAT:
            return float(value)
        if ctype in (ColumnType.TEXT, ColumnType.DATE):
            if not isinstance(value, str):
                raise TypeError
            return value
    except (TypeError, ValueError):
        pass
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(f"unhandled column type {ctype}")
    raise ExecutionError(
        f"value {value!r} is not valid for {table}.{column} of type {ctype.value}"
    )

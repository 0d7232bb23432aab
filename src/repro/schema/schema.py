"""The :class:`Schema` — tables, foreign keys, and the join graph.

The schema is the *only required input* to DBPal's training pipeline
(paper §1).  Beyond bookkeeping, it provides the two pieces of schema
reasoning the paper relies on:

* a *join graph* over tables (nodes are tables, edges are foreign keys),
  used by the runtime post-processor to expand the ``@JOIN`` placeholder
  with the shortest join path (§5.1); and
* column lookup by name across tables, used by the FROM-clause repair
  step (§4.2).
"""

from __future__ import annotations

import itertools

from repro.errors import SchemaError
from repro.schema.column import Column
from repro.schema.table import ForeignKey, Table


class Schema:
    """A relational database schema with NL annotations.

    Parameters
    ----------
    name:
        Identifier for the schema (e.g. ``"patients"``); doubles as the
        domain name in multi-schema benchmarks.
    tables:
        The schema's tables; names must be unique.
    foreign_keys:
        Directed FK edges. Both endpoints must exist.
    """

    def __init__(
        self,
        name: str,
        tables: list[Table] | tuple[Table, ...],
        foreign_keys: list[ForeignKey] | tuple[ForeignKey, ...] = (),
    ) -> None:
        if not tables:
            raise SchemaError(f"schema {name!r} must have at least one table")
        self.name = name
        self.tables = tuple(tables)
        self._by_name = {t.name: t for t in self.tables}
        if len(self._by_name) != len(self.tables):
            raise SchemaError(f"duplicate table names in schema {name!r}")
        self.foreign_keys = tuple(foreign_keys)
        for fk in self.foreign_keys:
            for tbl, col in ((fk.table, fk.column), (fk.ref_table, fk.ref_column)):
                if tbl not in self._by_name:
                    raise SchemaError(f"foreign key {fk} references unknown table {tbl!r}")
                if col not in self._by_name[tbl]:
                    raise SchemaError(f"foreign key {fk} references unknown column {col!r}")
        self._adjacency = self._build_adjacency()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._by_name

    def __iter__(self):
        return iter(self.tables)

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, tables={[t.name for t in self.tables]})"

    def table(self, name: str) -> Table:
        """Return the table called ``name`` or raise :class:`SchemaError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"schema {self.name!r} has no table {name!r}") from None

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)

    def column(self, table_name: str, column_name: str) -> Column:
        """Return ``table_name.column_name``."""
        return self.table(table_name).column(column_name)

    def tables_with_column(self, column_name: str) -> tuple[Table, ...]:
        """All tables containing a column called ``column_name``.

        Used by the FROM-clause repair step: when the model emits a
        column whose table is missing from the FROM clause, the repair
        step looks the column up here (§4.2).
        """
        return tuple(t for t in self.tables if column_name in t)

    def qualified_columns(self) -> list[tuple[Table, Column]]:
        """All (table, column) pairs in schema order."""
        return [(t, c) for t in self.tables for c in t.columns]

    # ------------------------------------------------------------------
    # Join graph
    # ------------------------------------------------------------------

    def _build_adjacency(self) -> dict[str, dict[str, ForeignKey]]:
        """Undirected table adjacency, in ``networkx.Graph`` order.

        Neighbours appear in first-FK order; a pair joined by several
        FKs keeps its first position and its last FK, as
        ``Graph.add_edge`` does.
        """
        adjacency: dict[str, dict[str, ForeignKey]] = {
            name: {} for name in self.table_names
        }
        for fk in self.foreign_keys:
            # Keep the FK on the edge so join conditions can be recovered.
            adjacency[fk.table][fk.ref_table] = fk
            adjacency[fk.ref_table][fk.table] = fk
        return adjacency

    def join_components(self) -> list[set[str]]:
        """Connected components of the join graph, as sets of tables.

        Components come in the order of their first table in the
        schema, as ``networkx.connected_components`` yields them.
        """
        components: list[set[str]] = []
        seen: set[str] = set()
        for start in self.table_names:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                for other in self._adjacency[frontier.pop()]:
                    if other not in component:
                        component.add(other)
                        frontier.append(other)
            seen |= component
            components.append(component)
        return components

    def join_path(self, tables: list[str] | tuple[str, ...]) -> list[ForeignKey]:
        """Shortest join path connecting all ``tables``.

        Implements the paper's post-processing rule: "In case multiple
        join paths are possible ... we select the join path that is
        minimal in its length" (§5.1).  For two tables this is a plain
        shortest path; for more, we grow a Steiner-tree-like union of
        pairwise shortest paths, which is exact for the tree-shaped
        schemas used in the paper's workloads.

        Returns the FK edges along the path (deduplicated, in discovery
        order).  Raises :class:`SchemaError` when some tables cannot be
        connected.
        """
        wanted = list(dict.fromkeys(tables))
        for name in wanted:
            if name not in self._by_name:
                raise SchemaError(f"schema {self.name!r} has no table {name!r}")
        if len(wanted) <= 1:
            return []
        edges: list[ForeignKey] = []
        seen_edges: set[frozenset[str]] = set()
        connected = {wanted[0]}
        for target in wanted[1:]:
            if target in connected:
                continue
            path = self._shortest_path_to_set(target, connected)
            for left, right in itertools.pairwise(path):
                key = frozenset((left, right))
                if key not in seen_edges:
                    seen_edges.add(key)
                    edges.append(self._adjacency[left][right])
            connected.update(path)
        return edges

    def _shortest_path_to_set(self, source: str, targets: set[str]) -> list[str]:
        """Shortest path from ``source`` to any node in ``targets``."""
        best: list[str] | None = None
        for target in sorted(targets):
            path = self._shortest_path(source, target)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        if best is None:
            raise SchemaError(
                f"no join path connects table {source!r} to {sorted(targets)} "
                f"in schema {self.name!r}"
            )
        return best

    def _shortest_path(self, source: str, target: str) -> list[str] | None:
        """Shortest path from ``source`` to ``target``, or None."""
        if source == target:
            return [source]
        found = _bidirectional_bfs(self._adjacency, source, target)
        if found is None:
            return None
        pred, succ, meet = found
        path: list[str] = []
        node: str | None = meet
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[meet]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def join_tables(self, tables: list[str] | tuple[str, ...]) -> list[str]:
        """All tables on the join path (endpoints plus intermediates)."""
        names = list(dict.fromkeys(tables))
        for fk in self.join_path(names):
            for name in (fk.table, fk.ref_table):
                if name not in names:
                    names.append(name)
        return names


def _bidirectional_bfs(adjacency: dict[str, dict], source: str, target: str):
    """``(pred, succ, meeting node)`` of a BFS from both ends, or None.

    The search of ``networkx.shortest_path`` on an undirected graph:
    expand the smaller fringe (the forward one on a tie) and stop at the
    first node both searches have reached.  Over the same neighbour
    order it returns the same path among equally short ones.
    """
    pred: dict[str, str | None] = {source: None}
    succ: dict[str, str | None] = {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for node in level:
                for other in adjacency[node]:
                    if other not in pred:
                        forward.append(other)
                        pred[other] = node
                    if other in succ:
                        return pred, succ, other
        else:
            level, reverse = reverse, []
            for node in level:
                for other in adjacency[node]:
                    if other not in succ:
                        succ[other] = node
                        reverse.append(other)
                    if other in pred:
                        return pred, succ, other
    return None

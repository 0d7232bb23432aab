"""``Schema``'s own join-graph searches equal the networkx ones they replaced.

``Schema`` finds join paths with a bidirectional BFS over an
insertion-ordered adjacency map instead of ``networkx.shortest_path``.
Among equally short paths the choice decides which tables and FK
conditions ``@JOIN`` expansion emits, so the BFS must pick exactly the
path networkx picks.  Likewise ``Schema.join_components`` (the schema
lint's L404 check) must yield ``networkx.connected_components`` in its
order.  The references below run networkx on :func:`join_graph`;
``reference_join_path`` is the networkx-based ``join_path`` as it was,
kept here as the oracle.
"""

import itertools
import random

import networkx as nx
import pytest

from repro.errors import SchemaError
from repro.schema import ForeignKey, Schema, Table, all_schemas, integer

COLUMNS = 3  # FK columns per table: room for parallel FKs between a pair


def join_graph(schema: Schema) -> nx.Graph:
    """The undirected join graph: tables as nodes, each FK on its edge."""
    graph = nx.Graph()
    graph.add_nodes_from(schema.table_names)
    for fk in schema.foreign_keys:
        graph.add_edge(fk.table, fk.ref_table, fk=fk)
    return graph


def reference_shortest_path(schema: Schema, source: str, target: str):
    try:
        return nx.shortest_path(join_graph(schema), source, target)
    except nx.NetworkXNoPath:
        return None


def reference_join_path(schema: Schema, tables) -> list[ForeignKey]:
    graph = join_graph(schema)
    wanted = list(dict.fromkeys(tables))
    if len(wanted) <= 1:
        return []
    edges: list[ForeignKey] = []
    seen_edges: set[frozenset[str]] = set()
    connected = {wanted[0]}
    for target in wanted[1:]:
        if target in connected:
            continue
        best = None
        for goal in sorted(connected):
            path = reference_shortest_path(schema, target, goal)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        if best is None:
            raise SchemaError("no join path")
        for left, right in itertools.pairwise(best):
            key = frozenset((left, right))
            if key not in seen_edges:
                seen_edges.add(key)
                edges.append(graph.edges[left, right]["fk"])
        connected.update(best)
    return edges


def reference_join_tables(schema: Schema, tables) -> list[str]:
    names = list(dict.fromkeys(tables))
    for fk in reference_join_path(schema, names):
        for name in (fk.table, fk.ref_table):
            if name not in names:
                names.append(name)
    return names


def random_schema(seed: int) -> Schema:
    """A random FK multigraph: cycles, parallel FKs, self-loops, islands."""
    rng = random.Random(seed)
    count = rng.randint(2, 12)
    names = [f"t{i}" for i in range(count)]
    rng.shuffle(names)
    tables = [
        Table(
            name,
            [integer("id", primary_key=True)]
            + [integer(f"c{k}") for k in range(COLUMNS)],
        )
        for name in names
    ]
    fks = []
    for _ in range(rng.randint(0, 3 * count)):
        source, target = rng.choice(names), rng.choice(names)
        if rng.random() < 0.1:
            target = source  # self-loop
        fks.append(ForeignKey(source, f"c{rng.randrange(COLUMNS)}", target, "id"))
    if fks and rng.random() < 0.5:
        fks.append(rng.choice(fks))  # repeated FK
    return Schema(f"random{seed}", tables, fks)


def assert_same_as_networkx(schema: Schema, rng: random.Random) -> None:
    assert schema.join_components() == list(
        nx.connected_components(join_graph(schema))
    ), schema.name
    names = schema.table_names
    for source, target in itertools.product(names, repeat=2):
        assert schema._shortest_path(source, target) == reference_shortest_path(
            schema, source, target
        ), (schema.name, source, target)
    subsets = [list(pair) for pair in itertools.permutations(names, 2)]
    subsets += [
        rng.sample(names, rng.randint(1, len(names))) for _ in range(3 * len(names))
    ]
    for tables in subsets:
        try:
            expected = reference_join_path(schema, tables)
        except SchemaError:
            with pytest.raises(SchemaError):
                schema.join_path(tables)
            with pytest.raises(SchemaError):
                schema.join_tables(tables)
            continue
        got = schema.join_path(tables)
        assert len(got) == len(expected) and all(
            a is b for a, b in zip(got, expected)
        ), (schema.name, tables)
        assert schema.join_tables(tables) == reference_join_tables(schema, tables)


@pytest.mark.parametrize("seed", range(60))
def test_random_schemas_match_networkx(seed):
    assert_same_as_networkx(random_schema(seed), random.Random(seed))


def test_catalog_schemas_match_networkx():
    schemas = all_schemas()
    assert len(schemas) == 11
    for schema in schemas:
        assert_same_as_networkx(schema, random.Random(schema.name))


def test_random_schemas_cover_the_hard_shapes():
    """The generator really produces what the property test claims."""
    shapes = set()
    for seed in range(60):
        schema = random_schema(seed)
        graph = join_graph(schema)
        pairs = [frozenset((fk.table, fk.ref_table)) for fk in schema.foreign_keys]
        if len(pairs) != len(set(pairs)):
            shapes.add("parallel")
        if any(fk.table == fk.ref_table for fk in schema.foreign_keys):
            shapes.add("self-loop")
        if not nx.is_connected(graph):
            shapes.add("disconnected")
        if nx.cycle_basis(graph):
            shapes.add("cycle")
    assert shapes == {"parallel", "self-loop", "disconnected", "cycle"}


def test_repeated_pair_joins_on_its_last_foreign_key():
    tables = [
        Table("a", [integer("a_id", primary_key=True), integer("x"), integer("y")]),
        Table("b", [integer("b_id", primary_key=True)]),
    ]
    first = ForeignKey("a", "x", "b", "b_id")
    last = ForeignKey("a", "y", "b", "b_id")
    schema = Schema("pair", tables, [first, last])
    assert schema.join_path(["a", "b"])[0] is last

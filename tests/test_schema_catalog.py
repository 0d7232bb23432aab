"""Tests for the built-in schema catalog."""

import pytest

from repro.schema import SCHEMA_FACTORIES, all_schemas, load_schema


class TestCatalog:
    def test_load_every_schema(self):
        for name in SCHEMA_FACTORIES:
            schema = load_schema(name)
            assert schema.name == name
            assert len(schema.tables) >= 1

    def test_unknown_schema_raises(self):
        with pytest.raises(KeyError):
            load_schema("nonexistent")

    def test_all_schemas_count(self):
        assert len(all_schemas()) == len(SCHEMA_FACTORIES)

    def test_patients_is_single_table(self):
        schema = load_schema("patients")
        assert schema.table_names == ("patients",)
        columns = schema.table("patients").column_names
        assert "age" in columns and "diagnosis" in columns

    def test_multi_table_schemas_have_foreign_keys(self):
        for name in SCHEMA_FACTORIES:
            schema = load_schema(name)
            if len(schema.tables) > 1:
                assert schema.foreign_keys, f"{name} lacks foreign keys"

    def test_fk_endpoints_valid(self):
        for schema in all_schemas():
            for fk in schema.foreign_keys:
                assert fk.column in schema.table(fk.table)
                assert fk.ref_column in schema.table(fk.ref_table)

    def test_join_graph_connected(self):
        """Every multi-table schema must have a fully connected join graph,
        otherwise join templates cannot cover all tables."""
        import networkx as nx

        from tests.test_schema_join_path import join_graph

        for schema in all_schemas():
            if len(schema.tables) > 1:
                assert nx.is_connected(join_graph(schema)), schema.name

    def test_every_table_has_interesting_columns(self):
        """Templates need at least one non-pk column per table."""
        for schema in all_schemas():
            for table in schema.tables:
                non_pk = [c for c in table.columns if not c.primary_key]
                assert non_pk, f"{schema.name}.{table.name}"

    def test_domains_are_valid(self):
        from repro.schema.column import KNOWN_DOMAINS

        for schema in all_schemas():
            for table in schema.tables:
                for column in table.columns:
                    if column.domain:
                        assert column.domain in KNOWN_DOMAINS

    def test_schemas_are_fresh_instances(self):
        assert load_schema("patients") is not load_schema("patients")

"""Shared fixtures for the test suite.

Expensive objects (populated databases, generated corpora, a trained
retrieval model) are session-scoped; neural-model training tests build
their own tiny corpora instead.
"""

from __future__ import annotations

import pytest

from repro.core import GenerationConfig, TrainingPipeline
from repro.db import populate
from repro.schema import load_schema, patients_schema


@pytest.fixture(scope="session")
def patients():
    return patients_schema()


@pytest.fixture(scope="session")
def geography():
    return load_schema("geography")


@pytest.fixture(scope="session")
def retail():
    return load_schema("retail")


@pytest.fixture(scope="session")
def patients_db(patients):
    return populate(patients, rows_per_table=30, seed=3)


@pytest.fixture(scope="session")
def geography_db(geography):
    return populate(geography, rows_per_table=25, seed=5)


@pytest.fixture(scope="session")
def small_config():
    return GenerationConfig(size_slotfills=4)


@pytest.fixture(scope="session")
def patients_corpus(patients, small_config):
    return TrainingPipeline(patients, small_config, seed=1).generate()


@pytest.fixture(scope="session")
def geography_corpus(geography, small_config):
    return TrainingPipeline(geography, small_config, seed=2).generate()


@pytest.fixture(scope="session")
def retrieval_nlidb(patients_db):
    from repro.neural import RetrievalModel
    from repro.runtime import DBPal

    nlidb = DBPal(patients_db)
    nlidb.train(RetrievalModel(), config=GenerationConfig(size_slotfills=4), seed=0)
    return nlidb


@pytest.fixture
def planner_runs(monkeypatch):
    """The printed SQL of every call an ``ExecutorSession`` makes into
    the planner, in order."""
    from repro.db import planner
    from repro.sql.printer import to_sql

    execute_planned = planner.execute_planned
    runs = []

    def counting(query, database, **kwargs):
        runs.append(to_sql(query))
        return execute_planned(query, database, **kwargs)

    monkeypatch.setattr(planner, "execute_planned", counting)
    return runs

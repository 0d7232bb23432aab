"""Unit tests for semantic-metric evaluation and the tuning module."""

import numpy as np
import pytest

from repro.analysis.equivalence import EquivalenceOracle
from repro.bench import Workload, WorkloadItem
from repro.core import GenerationConfig
from repro.core.tuning import SearchResult, TrialResult, grid_search
from repro.db import populate
from repro.eval import evaluate
from repro.neural import RetrievalModel
from repro.schema import patients_schema
from repro.sql import parse


class _FixedModel:
    def __init__(self, table):
        self.table = dict(table)

    def translate(self, nl):
        return self.table.get(nl)

    def translate_for_schema(self, nl, schema):
        return self.translate(nl)


class TestSemanticEvaluation:
    def test_execution_equivalent_counts_as_correct(self):
        schema = patients_schema()
        oracle = EquivalenceOracle(
            schema,
            databases=[populate(schema, rows_per_table=20, seed=s) for s in (1, 2)],
        )
        items = [
            WorkloadItem(
                nl="patient between 20 and 60",
                sql=parse("SELECT name FROM patients WHERE age BETWEEN 20 AND 60"),
                schema_name="patients",
            )
        ]
        # Structurally different, semantically equal prediction.
        model = _FixedModel(
            {
                "patient between 20 and 60": (
                    "SELECT name FROM patients WHERE age >= 20 AND age <= 60"
                )
            }
        )
        exact = evaluate(model, Workload("w", items), metric="exact")
        semantic = evaluate(
            model, Workload("w", items), metric="semantic", oracle=oracle
        )
        assert exact.accuracy == 0.0
        assert semantic.accuracy == 1.0

    def test_semantic_eval_reports_executor_perf_and_cache(self):
        schema = patients_schema()
        oracle = EquivalenceOracle(
            schema, databases=[populate(schema, rows_per_table=20, seed=1)]
        )
        sql = "SELECT name FROM patients WHERE age >= 20 AND age <= 60"
        questions = ["question alpha", "question beta", "question gamma"]
        items = [
            WorkloadItem(
                nl=nl,
                sql=parse("SELECT name FROM patients WHERE age BETWEEN 20 AND 60"),
                schema_name="patients",
            )
            for nl in questions
        ]
        model = _FixedModel({nl: sql for nl in questions})
        result = evaluate(
            model, Workload("w", items), metric="semantic", oracle=oracle
        )
        # Harness stage timings are always recorded...
        assert {"translate", "score"} <= set(result.perf["stages"])
        # ...and execution-match scoring surfaces the cached planned
        # executor: the repeated gold query executes once, then hits.
        assert result.perf["executor_cache"]["cache_hits"] > 0
        assert "scan" in result.perf["executor"]
        summary = result.summary()
        assert "accuracy" in summary
        assert "exec/scan" in summary
        assert "cache" in summary


class TestSearchResult:
    def make(self, accuracies):
        trials = [
            TrialResult(config=GenerationConfig(), accuracy=a, corpus_size=10)
            for a in accuracies
        ]
        trials.sort(key=lambda t: -t.accuracy)
        return SearchResult(trials)

    def test_best(self):
        assert self.make([0.2, 0.8, 0.5]).best.accuracy == 0.8

    def test_summary(self):
        summary = self.make([0.0, 1.0]).summary()
        assert summary["min"] == 0.0
        assert summary["max"] == 1.0
        assert summary["mean"] == 0.5

    def test_histogram_counts(self):
        counts, edges = self.make([0.1, 0.2, 0.9]).histogram(bins=2)
        assert counts.sum() == 3
        assert len(edges) == 3


class TestGridSearch:
    def test_grid_runs_all_configs(self, patients):
        from repro.bench import build_patients_benchmark

        workload = list(build_patients_benchmark().by_category("naive"))[:10]
        grid = list(GenerationConfig.grid({"num_para": (0, 2)}))
        result = grid_search(
            patients,
            workload,
            RetrievalModel,
            grid,
            seed=0,
            corpus_cap=200,
        )
        assert len(result.trials) == 2
        tried = {t.config.num_para for t in result.trials}
        assert tried == {0, 2}

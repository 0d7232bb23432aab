"""Tests for the end-to-end DBPal facade (preprocess + translate + execute)."""

import pytest

from repro.errors import TranslationError
from repro.runtime import DBPal, Preprocessor


class TestPreprocessor:
    def test_anonymize_then_lemmatize(self, patients_db):
        pre = Preprocessor(patients_db)
        age = patients_db.rows("patients")[0]["age"]
        result = pre.preprocess(f"Show me the names of all patients with age {age}")
        assert "@AGE" in result.anonymized_nl
        assert result.model_input == (
            "show me the name of all patient with age @AGE"
        )
        assert result.bindings[0].value == age

    def test_original_preserved(self, patients_db):
        pre = Preprocessor(patients_db)
        result = pre.preprocess("Count the patients")
        assert result.original_nl == "Count the patients"


class TestDBPalFacade:
    def test_translate_produces_sql(self, retrieval_nlidb, patients_db):
        age = patients_db.rows("patients")[0]["age"]
        result = retrieval_nlidb.translate(f"how many patients have age {age}")
        assert result.ok
        assert result.sql is not None
        assert "@" not in result.sql  # constants restored

    def test_query_executes(self, retrieval_nlidb, patients_db):
        rows = retrieval_nlidb.query("how many patients are there")
        assert rows == [{"COUNT(*)": patients_db.row_count("patients")}]

    def test_constants_restored_correctly(self, retrieval_nlidb, patients_db):
        age = patients_db.rows("patients")[0]["age"]
        result = retrieval_nlidb.translate(
            f"show the names of all patients with age greater than {age}"
        )
        assert str(age) in result.sql

    def test_untrained_translate_raises(self, patients_db):
        with pytest.raises(TranslationError):
            DBPal(patients_db).translate("anything")

    def test_explain_mentions_stages(self, retrieval_nlidb):
        text = retrieval_nlidb.explain("how many patients are there")
        assert "model input" in text
        assert "final SQL" in text

    def test_default_backend_is_the_planned_session(self, retrieval_nlidb, patients_db):
        # One execution target: without a named backend, ``execute``
        # runs on the facade's own session and returns its rows exactly.
        nlidb = DBPal(patients_db, retrieval_nlidb.model)
        assert nlidb.backend is nlidb.executor
        query = nlidb.translate("how many patients are there").query
        assert nlidb.execute(query) == nlidb.executor.execute(query)

    def test_max_rows(self, retrieval_nlidb):
        rows = retrieval_nlidb.query("show me all patients", max_rows=3)
        assert len(rows) <= 3

    def test_train_returns_corpus(self, patients_db):
        from repro.core import GenerationConfig
        from repro.neural import RetrievalModel

        nlidb = DBPal(patients_db)
        corpus = nlidb.train(
            RetrievalModel(), config=GenerationConfig(size_slotfills=2), seed=1
        )
        assert len(corpus) > 0
        assert nlidb.model is not None

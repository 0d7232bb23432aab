"""The retrieval model's inverted token index returns exactly the scan's top-1.

``RetrievalModel.translate`` counts token overlaps through posting
lists instead of scoring every training pair.  Each test here compares
it against ``scan_translate``, a reference that does score every pair,
on real and random inputs: same SQL, including the first-example tie
order and the no-shared-token and empty-question edge cases.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import build_patients_benchmark, spider_test_workload
from repro.core import GenerationConfig
from repro.db import populate
from repro.neural import RetrievalModel
from repro.nlp.tokenizer import tokenize
from repro.runtime import DBPal
from repro.schema import load_schema


def scan_translate(model: RetrievalModel, nl: str, examples=None) -> str | None:
    """Reference lookup: Jaccard against every pair; strict ``>`` keeps
    the first of tied examples."""
    if examples is None:
        examples = _tokenized(model)
    for _tokens, e_nl, sql in examples:
        if e_nl == nl:
            return sql
    query_tokens = frozenset(tokenize(nl))
    if not query_tokens:
        return None
    best_score = -1.0
    best_sql: str | None = None
    for tokens, _nl, sql in examples:
        union = len(query_tokens | tokens)
        if union == 0:
            continue
        score = len(query_tokens & tokens) / union
        if score > best_score:
            best_score = score
            best_sql = sql
    return best_sql


def _tokenized(model: RetrievalModel):
    return [(frozenset(tokenize(nl)), nl, sql) for nl, sql in model._examples]


def _assert_same(model: RetrievalModel, questions) -> None:
    examples = _tokenized(model)
    mismatches = [
        q for q in questions if model.translate(q) != scan_translate(model, q, examples)
    ]
    assert not mismatches, mismatches[:5]


def _pairs(*rows):
    """Stand-ins with the three ``TrainingPair`` attributes ``fit`` reads."""
    return [
        SimpleNamespace(nl=nl, sql_text=sql, tokens=tuple(tokenize(nl)))
        for nl, sql in rows
    ]


def test_patients_paraphrases_match_scan(retrieval_nlidb):
    questions = [
        retrieval_nlidb.preprocessor.preprocess(item.nl).model_input
        for item in build_patients_benchmark().items
    ]
    assert len(questions) == 399
    _assert_same(retrieval_nlidb.model, questions)


def test_spider_questions_match_scan():
    schema = load_schema("geography")
    nlidb = DBPal(populate(schema, rows_per_table=20, seed=7))
    nlidb.train(RetrievalModel(), config=GenerationConfig(size_slotfills=3), seed=0)
    questions = [
        nlidb.preprocessor.preprocess(item.nl).model_input
        for item in spider_test_workload().items
        if item.schema_name == schema.name
    ]
    assert questions
    _assert_same(nlidb.model, questions)


def test_random_token_bags_match_scan(retrieval_nlidb):
    model = retrieval_nlidb.model
    vocab = sorted({t for nl, _sql in model._examples for t in tokenize(nl)})
    rng = np.random.default_rng(16)
    bags = [
        " ".join(rng.choice(vocab, size=int(rng.integers(1, 9)), replace=False))
        for _ in range(300)
    ]
    _assert_same(model, bags)


def test_no_shared_token_returns_first_example():
    model = RetrievalModel()
    model.fit(_pairs(("show the names", "SQL0"), ("count the rows", "SQL1")))
    question = "zyzzyva quux"
    assert model.translate(question) == "SQL0" == scan_translate(model, question)


def test_empty_question_returns_none(retrieval_nlidb):
    assert retrieval_nlidb.model.translate("") is None
    assert scan_translate(retrieval_nlidb.model, "") is None


@pytest.mark.parametrize(
    "rows, expected",
    [
        ((("alpha beta", "FIRST"), ("alpha gamma", "SECOND")), "FIRST"),
        ((("alpha gamma", "SECOND"), ("alpha beta", "FIRST")), "SECOND"),
    ],
)
def test_tie_goes_to_first_example(rows, expected):
    model = RetrievalModel()
    model.fit(_pairs(("unrelated words", "OTHER"), *rows))
    # "alpha" scores 1/2 against both tied examples.
    assert model.translate("alpha") == expected == scan_translate(model, "alpha")

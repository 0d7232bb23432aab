"""Byte-identity gate for corpus synthesis and the fitted retrieval model.

``tests/data/corpus_golden.json`` holds, per schema, sha256 digests of
what ``DBPal.train(RetrievalModel(), GenerationConfig(size_slotfills=6),
seed=42)`` produces:

* ``corpus`` — every pair's (nl, sql_text, augmentation, template_id),
  in corpus order;
* ``examples`` — the fitted model's (nl, sql) examples, in fit order;
* ``translations`` — the model's answers to near-miss probes (a corpus
  sentence with its first token dropped), which exercise the inverted
  index that ``fit`` builds from each pair's tokens.

Schemas: patients and the four Spider-substitute test schemas.  A
speed change to synthesis or ``fit`` must leave every digest unchanged.
The same corpora back two checks of ``TrainingPair.tokens``, the token
list the lemmatize stage keeps so ``fit`` need not re-tokenize: it is
present on every pair and equals ``tokenize(pair.nl)``, and every raw
synthesized sentence ``s`` satisfies ``tokenize(" ".join(L)) == L`` for
``L = lemmatize_tokens(tokenize(s))``.

Regenerate only when a corpus change is intended::

    PYTHONPATH=src python -m tests.test_corpus_golden
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bench.spider import TEST_SCHEMAS
from repro.core import GenerationConfig, TrainingPipeline
from repro.db import populate
from repro.neural import RetrievalModel
from repro.nlp import lemmatize_tokens, tokenize
from repro.runtime import DBPal
from repro.schema import load_schema

GOLDEN_PATH = Path(__file__).parent / "data" / "corpus_golden.json"
GOLDEN_SCHEMAS = ("patients", *TEST_SCHEMAS)

#: Every PROBE_STRIDE-th corpus sentence becomes a translation probe.
PROBE_STRIDE = 7


def _sha256(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row, ensure_ascii=False).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@lru_cache(maxsize=len(GOLDEN_SCHEMAS))
def trained(name: str):
    """(corpus, fitted model) for one schema, built once per test run."""
    database = populate(load_schema(name), rows_per_table=10, seed=3)
    model = RetrievalModel()
    corpus = DBPal(database).train(
        model, GenerationConfig(size_slotfills=6), seed=42
    )
    return corpus, model


def digests(name: str) -> dict:
    corpus, model = trained(name)
    pairs = corpus.pairs
    probes = [
        " ".join(pair.nl.split()[1:]) for pair in pairs[::PROBE_STRIDE]
    ]
    return {
        "pairs": len(pairs),
        "corpus": _sha256(
            (p.nl, p.sql_text, p.augmentation, p.template_id) for p in pairs
        ),
        "examples": _sha256(model._examples),
        "translations": _sha256(
            (probe, model.translate(probe)) for probe in probes
        ),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", GOLDEN_SCHEMAS)
def test_corpus_and_model_match_golden(golden, name):
    assert digests(name) == golden[name]


@pytest.mark.parametrize("name", GOLDEN_SCHEMAS)
def test_every_pair_keeps_its_tokens(name):
    corpus, _model = trained(name)
    stale = [
        p.nl for p in corpus.pairs if p.__dict__.get("tokens") != tuple(tokenize(p.nl))
    ]
    assert not stale, stale[:5]


@pytest.mark.parametrize("name", GOLDEN_SCHEMAS)
def test_synthesized_sentences_retokenize_to_their_lemmas(name):
    raw = TrainingPipeline(
        load_schema(name),
        GenerationConfig(size_slotfills=6),
        seed=42,
        apply_lemmatizer=False,
    ).generate()
    broken = []
    for pair in raw.pairs:
        lemmas = lemmatize_tokens(tokenize(pair.nl))
        if tokenize(" ".join(lemmas)) != lemmas:
            broken.append(pair.nl)
    assert len(raw.pairs) > 1000
    assert not broken, broken[:5]


def test_golden_covers_every_schema(golden):
    assert sorted(golden) == sorted(GOLDEN_SCHEMAS)


if __name__ == "__main__":
    record = {name: digests(name) for name in GOLDEN_SCHEMAS}
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")

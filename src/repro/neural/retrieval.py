"""A deterministic retrieval baseline translator.

Nearest-neighbour translation: return the SQL of the training pair
whose NL is most similar (token-level Jaccard, tie-broken by insertion
order).  It trains instantly, which makes it the workhorse for unit
tests of the pipeline/runtime plumbing, and serves as a sanity-check
baseline in the benchmarks — a neural model that cannot beat retrieval
has learned nothing.

Lookup goes through an inverted token index, exact top-1: ``fit``
builds token → example-id posting lists from each pair's memoized
``TrainingPair.tokens`` (kept by the lemmatize stage, so the corpus is
tokenized once), and ``translate`` counts ``|q ∩ t|`` for every
example by concatenating the query tokens' postings, so only examples
sharing a token are ever touched.  The
scores are the same int/int quotients as a scan over every pair, and
``argmax`` keeps the scan's first-example tie order.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from repro.core.templates import TrainingPair
from repro.errors import ModelError
from repro.neural.base import TranslationModel
from repro.nlp.tokenizer import tokenize


class RetrievalModel(TranslationModel):
    """Jaccard nearest-neighbour NL -> SQL lookup."""

    def __init__(self) -> None:
        self._examples: list[tuple[str, str]] = []  # (nl, sql) in fit order
        self._exact: dict[str, str] = {}
        # Inverted index in CSR layout: the examples containing token
        # ``v`` are ``_postings[_offsets[v]:_offsets[v + 1]]``, ascending.
        self._vocab: dict[str, int] = {}
        self._offsets = np.zeros(1, dtype=np.int64)
        self._postings = np.zeros(0, dtype=np.int32)
        self._sizes = np.zeros(0, dtype=np.int64)  # |token set| per example

    def fit(self, pairs: Sequence[TrainingPair], **kwargs) -> None:
        if kwargs:
            raise TypeError(f"unexpected fit arguments: {sorted(kwargs)}")
        self._examples = []
        self._exact = {}
        vocab: dict[str, int] = {}
        token_ids = array("i")
        sizes = array("q")
        for pair in pairs:
            tokens = frozenset(pair.tokens)
            token_ids.extend(vocab.setdefault(token, len(vocab)) for token in tokens)
            sizes.append(len(tokens))
            self._examples.append((pair.nl, pair.sql_text))
            self._exact.setdefault(pair.nl, pair.sql_text)
        if not self._examples:
            raise ModelError("cannot fit on an empty training set")
        by_token = np.asarray(token_ids, dtype=np.int32)
        self._sizes = np.asarray(sizes, dtype=np.int64)
        # Entries are example-major, so a stable sort by token keeps
        # each posting list in example order.
        order = np.argsort(by_token, kind="stable")
        example_ids = np.arange(len(self._examples), dtype=np.int32)
        self._vocab = vocab
        self._postings = np.repeat(example_ids, self._sizes)[order]
        self._offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(by_token, minlength=len(vocab)), out=self._offsets[1:])

    def translate(self, nl: str) -> str | None:
        if not self._examples:
            raise ModelError("translate called before fit")
        exact = self._exact.get(nl)
        if exact is not None:
            return exact
        query_tokens = frozenset(tokenize(nl))
        if not query_tokens:
            return None
        known = [self._vocab[t] for t in query_tokens if t in self._vocab]
        if not known:
            # Every score is 0, so the first example wins the tie.
            return self._examples[0][1]
        offsets = self._offsets
        hits = [self._postings[offsets[v] : offsets[v + 1]] for v in known]
        overlap = np.bincount(np.concatenate(hits), minlength=len(self._examples))
        # |q ∪ t| = |q| + |t| − |q ∩ t| >= 1, since q is non-empty.
        score = overlap / (len(query_tokens) + self._sizes - overlap)
        return self._examples[int(np.argmax(score))][1]

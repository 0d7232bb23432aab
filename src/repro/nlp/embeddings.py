"""Distributional word embeddings (GloVe stand-in).

SyntaxSQLNet "uses pre-trained GloVe word embeddings ... which already
allows the model to handle variations of individual words efficiently"
(paper §6.1).  GloVe vectors cannot be downloaded offline, so we train
count-based embeddings with the classic PPMI + truncated-SVD recipe
(Levy & Goldberg 2014 show these approximate skip-gram/GloVe factor
models).  The embeddings are fit on whatever corpus the caller supplies
— in our benchmarks, the union of generated NL across all catalog
domains — so that synonyms used by the templates land close together.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np


class WordEmbeddings:
    """PPMI + SVD embeddings over a token corpus."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int) -> None:
        self._vectors = vectors
        self.dim = dim

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        sentences: Iterable[Sequence[str]],
        dim: int = 50,
        window: int = 3,
        min_count: int = 2,
        seed: int = 11,
    ) -> "WordEmbeddings":
        """Train embeddings on tokenized ``sentences``.

        Words rarer than ``min_count`` are dropped (callers should map
        them to zero vectors via :meth:`vector`).
        """
        # Imported here: scipy adds ~30 MB of resident memory to any
        # process that imports it, and only fitting needs it.
        import scipy.sparse as sp
        from scipy.sparse.linalg import svds

        sentences = [list(s) for s in sentences]
        counts = Counter(t for s in sentences for t in s)
        vocab = sorted(t for t, c in counts.items() if c >= min_count)
        if not vocab:
            return cls({}, dim)
        index = {t: i for i, t in enumerate(vocab)}
        size = len(vocab)

        # Symmetric co-occurrence with linearly decaying window weights.
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for sentence in sentences:
            ids = [index.get(t) for t in sentence]
            for pos, center in enumerate(ids):
                if center is None:
                    continue
                for offset in range(1, window + 1):
                    ctx_pos = pos + offset
                    if ctx_pos >= len(ids):
                        break
                    context = ids[ctx_pos]
                    if context is None:
                        continue
                    weight = 1.0 / offset
                    rows.extend((center, context))
                    cols.extend((context, center))
                    data.extend((weight, weight))
        matrix = sp.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()

        # Positive PMI transform.
        total = matrix.sum()
        if total == 0:
            return cls({}, dim)
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        col_sums = np.asarray(matrix.sum(axis=0)).ravel()
        matrix = matrix.tocoo()
        pmi = np.log(
            (matrix.data * total)
            / (row_sums[matrix.row] * col_sums[matrix.col])
        )
        keep = pmi > 0
        ppmi = sp.coo_matrix(
            (pmi[keep], (matrix.row[keep], matrix.col[keep])), shape=(size, size)
        ).tocsc()

        k = min(dim, size - 1)
        if k < 1:
            return cls({t: np.zeros(dim) for t in vocab}, dim)
        u, s, _ = svds(ppmi.astype(np.float64), k=k, random_state=seed)
        # svds returns ascending singular values; flip for convention.
        order = np.argsort(-s)
        u = u[:, order] * np.sqrt(s[order])
        if k < dim:
            u = np.pad(u, ((0, 0), (0, dim - k)))
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        u = u / norms
        return cls({t: u[i].copy() for t, i in index.items()}, dim)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def vector(self, word: str) -> np.ndarray:
        """Embedding of ``word`` (zero vector when unknown)."""
        vec = self._vectors.get(word)
        if vec is None:
            return np.zeros(self.dim)
        return vec

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity (0.0 when either word is unknown)."""
        a, b = self.vector(left), self.vector(right)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(a @ b / (na * nb))

    def nearest(self, word: str, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` most similar in-vocabulary words."""
        if word not in self._vectors:
            return []
        scored = [
            (other, self.similarity(word, other))
            for other in self._vectors
            if other != word
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

    def matrix_for(self, tokens: Sequence[str]) -> np.ndarray:
        """Stack embeddings for a token list into a (len, dim) matrix."""
        return np.stack([self.vector(t) for t in tokens]) if tokens else np.zeros((0, self.dim))

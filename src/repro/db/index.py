"""Value index: constant -> candidate (table, column) attributions.

"As a temporary solution in the basic version of DBPal, we build an
index on each attribute of the schema that maps constants to possible
attribute names" (paper §4.1).  The runtime parameter handler uses this
index to anonymize constants in the user's NL query, with a similarity
fallback for string constants that only approximately match database
values (e.g. "New York City" vs "NYC").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.similarity import SimilarityFn, TrigramPhrase, best_match, jaccard_trigram
from repro.db.storage import Database


@dataclass(frozen=True)
class ValueHit:
    """One attribution of a constant to a schema column."""

    table: str
    column: str
    value: int | float | str
    score: float  # 1.0 for exact hits, the similarity score otherwise


class ValueIndex:
    """Inverted index over every attribute of the database."""

    def __init__(
        self,
        database: Database,
        similarity: SimilarityFn = jaccard_trigram,
        similarity_threshold: float = 0.4,
    ) -> None:
        self._similarity = similarity
        self._threshold = similarity_threshold
        self._exact: dict[str, list[tuple[str, str, object]]] = {}
        self._text_values: dict[tuple[str, str], list[str]] = {}
        for table in database.schema.tables:
            for column in table.columns:
                values = database.column_values(table.name, column.name)
                unique = list(dict.fromkeys(values))
                if not column.is_numeric:
                    self._text_values[(table.name, column.name)] = [
                        str(v) for v in unique
                    ]
                for value in unique:
                    key = self._normalize(value)
                    self._exact.setdefault(key, []).append(
                        (table.name, column.name, value)
                    )
        # One int per text value: its trigram count, for the size window.
        self._trigram_counts: dict[tuple[str, str], list[int]] = {}
        if similarity is jaccard_trigram:
            self._trigram_counts = {
                key: [TrigramPhrase(v).size for v in values]
                for key, values in self._text_values.items()
            }
        self._largest = max(
            (n for counts in self._trigram_counts.values() for n in counts), default=0
        )

    @staticmethod
    def _normalize(value) -> str:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return str(value).strip().lower()

    def lookup(self, constant: str) -> list[ValueHit]:
        """Exact (normalized) lookup of a constant."""
        hits = self._exact.get(self._normalize(constant), [])
        return [ValueHit(t, c, v, 1.0) for t, c, v in hits]

    def fuzzy_lookup(self, constant: str) -> list[ValueHit]:
        """Exact lookup with a similarity fallback for strings (§4.1).

        When the similarity of all values is below the threshold —
        "which could mean that the value does not exist in the
        database" — an empty list is returned and the caller keeps the
        constant as given by the user.

        With the default trigram metric the phrase's trigram set is built
        once, and a value whose trigram count lies outside the phrase's
        size window is skipped unscored: its score is provably below the
        threshold (see :class:`TrigramPhrase`), so the hits are exactly
        the full scan's.  Any other metric scores every value.
        """
        exact = self.lookup(constant)
        if exact:
            return exact
        trigram = self._similarity is jaccard_trigram
        if trigram:
            phrase = TrigramPhrase(constant)
            lo, hi = phrase.size_window(self._threshold, self._largest)
        hits: list[ValueHit] = []
        for (table, column), values in self._text_values.items():
            if trigram:
                counts = self._trigram_counts[(table, column)]
                match, score = phrase.best_match(
                    (v for v, n in zip(values, counts) if lo <= n <= hi),
                    self._threshold,
                )
            else:
                match, score = best_match(
                    constant, values, self._similarity, self._threshold
                )
            if match is not None:
                hits.append(ValueHit(table, column, match, score))
        hits.sort(key=lambda h: (-h.score, h.table, h.column))
        return hits

    def columns_for(self, constant: str) -> list[tuple[str, str]]:
        """Candidate (table, column) pairs for a constant, best first."""
        return [(h.table, h.column) for h in self.fuzzy_lookup(constant)]

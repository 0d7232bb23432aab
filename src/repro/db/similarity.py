"""String similarity metrics for fuzzy constant matching.

The runtime pre-processor matches user-provided string constants
against database values "using a string similarity metric.  In our
prototype, we currently use the Jaccard index, but the function can be
replaced with any other similarity metric" (paper §4.1).  We implement
Jaccard over character trigrams (the common realization for short
strings) plus a token-set variant, behind a pluggable callable type.

:class:`TrigramPhrase` owns the trigram set and the Jaccard quotient,
so a phrase scored against many strings builds its own set once.
"""

from __future__ import annotations

from typing import Callable

#: A similarity function maps two strings to a score in [0, 1].
SimilarityFn = Callable[[str, str], float]


def _trigrams(text: str) -> set[str]:
    # The padding leaves at least 3 characters, so the set is never empty.
    padded = f"  {text.lower()} "
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


class TrigramPhrase:
    """A string's padded, lower-cased trigram set, built once.

    ``score(other)`` is the Jaccard index |A∩B| / |A∪B| of the two sets.
    Since |A∩B| <= min(|A|,|B|) and |A∪B| >= max(|A|,|B|), and float
    division rounds monotonically, the score never exceeds
    ``min(|A|,|B|) / max(|A|,|B|)`` as computed in floats: a string whose
    trigram count falls outside :meth:`size_window` scores below the
    threshold, so a caller may skip it without building its set.  The
    window only removes strings that cannot reach the threshold, so
    :func:`best_match` picks the same winner with or without it.
    """

    __slots__ = ("grams", "size")

    def __init__(self, text: str) -> None:
        self.grams = _trigrams(text)
        self.size = len(self.grams)

    def score(self, other: str) -> float:
        other_grams = _trigrams(other)
        shared = len(self.grams & other_grams)
        return shared / (self.size + len(other_grams) - shared)

    def size_window(self, threshold: float, largest: int) -> tuple[int, int]:
        """``(lo, hi)``: the trigram counts ``b`` up to ``largest`` with
        ``min(size, b) / max(size, b) >= threshold`` are ``lo <= b <= hi``.

        The ratio rises with ``b`` up to ``size`` and falls after it, so
        the admitted counts form one interval around ``size`` (empty,
        ``lo > hi``, when ``threshold > 1``); each end is found by testing
        the same float quotient the class docstring's bound is about.
        """
        size = self.size

        def admits(b: int) -> bool:
            return min(size, b) / max(size, b) >= threshold

        if not admits(size):
            return size + 1, size
        lo = hi = size
        while lo > 1 and admits(lo - 1):
            lo -= 1
        while hi < largest and admits(hi + 1):
            hi += 1
        return lo, hi

    def best_match(
        self, candidates, threshold: float = 0.0
    ) -> tuple[str | None, float]:
        """:func:`best_match` with this phrase as the needle."""
        return _first_best(((c, self.score(c)) for c in candidates), threshold)


def jaccard_trigram(left: str, right: str) -> float:
    """Jaccard index over padded character trigrams."""
    return TrigramPhrase(left).score(right)


def jaccard_tokens(left: str, right: str) -> float:
    """Jaccard index over whitespace tokens."""
    left_set = set(left.lower().split())
    right_set = set(right.lower().split())
    union = left_set | right_set
    if not union:
        return 1.0
    return len(left_set & right_set) / len(union)


def best_match(
    needle: str,
    candidates,
    similarity: SimilarityFn = jaccard_trigram,
    threshold: float = 0.0,
) -> tuple[str | None, float]:
    """The candidate most similar to ``needle`` (ties broken by order).

    Returns ``(None, 0.0)`` when no candidate reaches ``threshold``.
    """
    return _first_best(((c, similarity(needle, c)) for c in candidates), threshold)


def _first_best(scored, threshold: float) -> tuple[str | None, float]:
    """The first (candidate, score) with a strictly highest positive score,
    or ``(None, 0.0)`` when that score is below ``threshold``."""
    best_candidate: str | None = None
    best_score = 0.0
    for candidate, score in scored:
        if score > best_score:
            best_candidate = candidate
            best_score = score
    if best_candidate is None or best_score < threshold:
        return None, 0.0
    return best_candidate, best_score

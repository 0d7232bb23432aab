"""Cache ablation: run synthesis with the hot-path caches disabled.

The caching work (memoized :class:`TrainingPair` keys, the lemmatizer
word and token caches, the PPDB lookup cache) claims a sequential
speedup; a claim like that needs an A/B under the *same* code version.
:func:`uncached_hot_paths` temporarily restores the uncached behaviour
of every memoized hot path so benchmarks can measure "caching alone"
honestly — the surrounding engine (sharding, fast-fail) stays active in
both arms.
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def uncached_hot_paths():
    """Disable all synthesis hot-path caches inside the ``with`` block.

    Patches are class/module level, so pairs created before the block
    keep working (``property`` is a data descriptor and shadows any
    previously cached ``__dict__`` entry).  Not thread-safe — intended
    for benchmark processes only.
    """
    # Imported here, not at module level: repro.core.parallel imports
    # repro.perf.instrumentation, so importing repro.core at import time
    # of this package would create a cycle.
    from repro.core import templates as _templates
    from repro.nlp import lemmatizer as _lemmatizer
    from repro.nlp import ppdb as _ppdb
    from repro.sql.printer import to_sql

    def uncached_sql_text(pair) -> str:
        return to_sql(pair.sql)

    def uncached_key(pair) -> tuple[str, str]:
        return (pair.nl, to_sql(pair.sql))

    def uncached_lookup(self, phrase, max_candidates=None):
        phrase = phrase.lower().strip()
        entries = self._resolve(phrase)
        if max_candidates is not None:
            entries = entries[:max_candidates]
        return entries

    cached_sql_text = _templates.TrainingPair.__dict__["sql_text"]
    cached_key = _templates.TrainingPair.key
    cached_word = _lemmatizer.lemmatize_word
    cached_token = _lemmatizer.lemmatize_token
    cached_lookup = _ppdb.ParaphraseDatabase.lookup
    try:
        _templates.TrainingPair.sql_text = property(uncached_sql_text)
        _templates.TrainingPair.key = uncached_key
        _lemmatizer.lemmatize_word = _lemmatizer.lemmatize_word_uncached
        _lemmatizer.lemmatize_token = _lemmatizer.lemmatize_token_uncached
        _ppdb.ParaphraseDatabase.lookup = uncached_lookup
        yield
    finally:
        _templates.TrainingPair.sql_text = cached_sql_text
        _templates.TrainingPair.key = cached_key
        _lemmatizer.lemmatize_word = cached_word
        _lemmatizer.lemmatize_token = cached_token
        _ppdb.ParaphraseDatabase.lookup = cached_lookup

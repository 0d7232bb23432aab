"""Rule-based English lemmatizer.

DBPal lemmatizes both the generated training pairs and the runtime
input "to normalize the representation of individual words ...
different forms of the same word are mapped to the word's root" (paper
§2.2.3, §4.1) — e.g. *is/are/am → be*, *cars/car's → car*.

We implement a conservative suffix-stripping lemmatizer with exception
tables for irregular verbs and nouns, in the spirit of the WordNet
morphy algorithm but dependency-free.  It is deliberately conservative:
an over-aggressive lemmatizer (e.g. *during → dure*) would corrupt the
training distribution, which hurts more than missing a rare form.
"""

from __future__ import annotations

from functools import lru_cache

from repro.nlp.tokenizer import is_placeholder_token

#: Irregular verb forms -> lemma (includes the copula per the paper).
IRREGULAR_VERBS = {
    "am": "be", "is": "be", "are": "be", "was": "be", "were": "be",
    "been": "be", "being": "be",
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "done": "do", "doing": "do",
    "goes": "go", "went": "go", "gone": "go",
    "gave": "give", "given": "give",
    "got": "get", "gotten": "get",
    "made": "make", "took": "take", "taken": "take",
    "said": "say", "shown": "show", "showed": "show",
    "found": "find", "kept": "keep", "held": "hold",
    "paid": "pay", "sold": "sell", "bought": "buy",
    "stayed": "stay", "came": "come",
    "saw": "see", "seen": "see",
    "wrote": "write", "written": "write",
    "treated": "treat", "diagnosed": "diagnose",
}

#: Irregular noun plurals -> singular.
IRREGULAR_NOUNS = {
    "people": "person", "children": "child", "men": "man", "women": "woman",
    "feet": "foot", "teeth": "tooth", "mice": "mouse", "geese": "goose",
    "data": "datum", "criteria": "criterion", "indices": "index",
    "diagnoses": "diagnosis", "analyses": "analysis", "theses": "thesis",
    "staff": "staff", "series": "series", "species": "species",
}

#: Words that look inflected but are not; never strip these.
PROTECTED = frozenset(
    """
    during its this thus less best address business analysis diagnosis
    status always perhaps species series news plus various bus gas
    class cross process access mass loss pass express themselves hers
    ours yours theirs whose these those press stress
    """.split()
)

#: Adjectives whose -er/-est forms we fold back (used by comparatives).
GRADABLE_ADJECTIVES = frozenset(
    """
    old young tall short long small large big high low great cheap
    fast slow heavy light new late early few strong weak deep wide
    narrow rich poor sick busy close near far safe
    """.split()
)

_VOWELS = set("aeiou")


def lemmatize_word_uncached(word: str) -> str:
    """Lemma of a single lower-case word (uncached implementation).

    Kept importable so tests and perf ablations can compare the cached
    wrapper against the raw rules.
    """
    if is_placeholder_token(word) or not word.isalpha():
        # Placeholders, numbers, and punctuation pass through.
        return _strip_possessive(word)
    if word in IRREGULAR_VERBS:
        return IRREGULAR_VERBS[word]
    if word in IRREGULAR_NOUNS:
        return IRREGULAR_NOUNS[word]
    if word in PROTECTED or len(word) <= 3:
        return word

    # Superlative / comparative of known gradable adjectives.
    for suffix, min_len in (("est", 2), ("er", 2)):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            for candidate in (stem, stem + "e", stem[:-1] if stem and stem[-1] == stem[-2:-1] else stem):
                if candidate in GRADABLE_ADJECTIVES:
                    return candidate
            # larg+est -> large
            if stem and (stem + "e") in GRADABLE_ADJECTIVES:
                return stem + "e"

    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("sses") or word.endswith("shes") or word.endswith("ches") or word.endswith("xes"):
        return word[:-2]
    if word.endswith("oes") and len(word) > 4:
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s") and not word.endswith("us") and not word.endswith("is"):
        return word[:-1]

    if word.endswith("ied") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("ed") and len(word) > 4:
        return _strip_participle(word, 2)
    if word.endswith("ing") and len(word) > 5:
        return _strip_participle(word, 3)
    return word


#: Bound of each lemma cache.  Corpus synthesis lemmatizes a small
#: vocabulary (under 600 tokens over all eleven catalog schemas)
#: hundreds of thousands of times, so the bound never evicts during
#: set-up; it exists because runtime pre-processing feeds every
#: distinct user token through the same caches.
LEMMA_CACHE_SIZE = 16384

#: The suffix rules are pure, so caching removes them from the hot path.
lemmatize_word = lru_cache(maxsize=LEMMA_CACHE_SIZE)(lemmatize_word_uncached)


def _strip_participle(word: str, suffix_len: int) -> str:
    stem = word[:-suffix_len]
    # doubled final consonant: stopped -> stop, running -> run
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS and stem[-1] not in "sl":
        return stem[:-1]
    # consonant + e elision: stored -> store, hiring -> hire
    if len(stem) >= 2 and stem[-1] not in _VOWELS and stem[-2] in _VOWELS:
        candidate = stem + "e"
        if candidate.endswith(("are", "ore", "ure", "ire", "ive", "ate", "ame", "ase", "ose", "ide", "ine", "age")):
            return candidate
    return stem


def _strip_possessive(word: str) -> str:
    if word.endswith("'s"):
        return word[:-2]
    if word.endswith("'"):
        return word[:-1]
    return word


def lemmatize_token_uncached(token: str) -> str:
    """Lemma of one token: possessive stripped, then :func:`lemmatize_word`."""
    return lemmatize_word(_strip_possessive(token))


#: One cache probe per token does the possessive strip and the lemma.
lemmatize_token = lru_cache(maxsize=LEMMA_CACHE_SIZE)(lemmatize_token_uncached)


def lemmatize_tokens(tokens: list[str]) -> list[str]:
    """Lemmatize a token sequence (placeholders untouched).

    Tokens that lemmatize to nothing (a bare possessive apostrophe)
    are dropped so the output re-tokenizes stably.
    """
    return [lemma for token in tokens if (lemma := lemmatize_token(token))]


def lemmatize(text: str) -> str:
    """Tokenize and lemmatize ``text``, returning a space-joined string."""
    from repro.nlp.tokenizer import tokenize

    return " ".join(lemmatize_tokens(tokenize(text)))

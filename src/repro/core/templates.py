"""Template machinery: seed templates, slot filling, training pairs.

DBPal's generator instantiates *NL-SQL template pairs* (paper §3.1).
Each :class:`SeedTemplate` couples one NL surface pattern (a string
with named ``{slot}`` holes) to a *SQL kind* — a structural query shape
realized by a builder function in :mod:`repro.core.seed_templates`.
A builder picks schema elements (tables, attributes, filters) and
returns a :class:`SlotFill`: the SQL AST plus the NL slot values that
keep both sides consistent.

Constants never appear in generated pairs; filters use typed
placeholders (``@AGE``, ``@DOCTOR.NAME``), making the trained model
independent of database contents (§3.1), and join queries use the
``@JOIN`` FROM placeholder (§5.1).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from repro.errors import TemplateError
from repro.nlp.lemmatizer import lemmatize_tokens
from repro.nlp.tokenizer import tokenize
from repro.schema.column import Column
from repro.schema.schema import Schema
from repro.schema.table import Table
from repro.sql.ast import ColumnRef, CompOp, Comparison, Placeholder, Query
from repro.sql.printer import to_sql
from repro.nlp.lexicons import comparative_phrases


class Family(enum.Enum):
    """Structural query families, the unit of training-set balancing."""

    SELECT = "select"
    FILTER = "filter"
    AGGREGATE = "aggregate"
    GROUPBY = "groupby"
    ORDER = "order"
    JOIN = "join"
    NESTED = "nested"


class ParaphraseKind(enum.Enum):
    """Which §3.1 manual-paraphrase class an NL pattern represents."""

    NAIVE = "naive"
    SYNTACTIC = "syntactic"
    LEXICAL = "lexical"
    MORPHOLOGICAL = "morphological"


@dataclass(frozen=True)
class SeedTemplate:
    """One NL-SQL template pair."""

    tid: str
    family: Family
    sql_kind: str
    nl_pattern: str
    paraphrase_kind: ParaphraseKind = ParaphraseKind.NAIVE

    def __post_init__(self) -> None:
        if not re.search(r"\{\w+\}", self.nl_pattern):
            raise TemplateError(
                f"template {self.tid!r} has no slots: {self.nl_pattern!r}"
            )


@dataclass(frozen=True)
class TrainingPair:
    """One generated (NL, SQL) example.

    ``sql_text`` and ``key()`` are memoized: deduplication probes every
    pair's key several times along the pipeline (augment, lemmatize,
    merge), and printing the SQL AST on each probe dominated the
    synthesis profile.  ``tokens`` is memoized too: the lemmatize stage
    stores the token list it already computed, so ``fit`` never
    re-tokenizes the corpus.  The caches live in the instance
    ``__dict__`` (fields stay frozen) and ``sql_text`` and ``tokens``
    survive pickling, so pairs returned by parallel synthesis workers
    arrive with both already computed.
    """

    nl: str
    sql: Query
    template_id: str
    family: Family
    schema_name: str
    augmentation: str = "none"

    @cached_property
    def sql_text(self) -> str:
        return to_sql(self.sql)

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """``tokenize(self.nl)`` (memoized)."""
        return tuple(tokenize(self.nl))

    def with_nl(self, nl: str, augmentation: str) -> "TrainingPair":
        """A copy with a linguistically varied NL side (same SQL).

        Builds the copy's ``__dict__`` directly: ``dataclasses.replace``
        introspects the fields on every call, which showed in the
        synthesis profile.
        """
        clone = object.__new__(TrainingPair)
        state = clone.__dict__
        state["nl"] = nl
        state["sql"] = self.sql
        state["template_id"] = self.template_id
        state["family"] = self.family
        state["schema_name"] = self.schema_name
        state["augmentation"] = augmentation
        cached_sql = self.__dict__.get("sql_text")
        if cached_sql is not None:
            # Same AST, so the printed SQL carries over to the copy.
            state["sql_text"] = cached_sql
        return clone

    def lemmatized(self) -> "TrainingPair":
        """A copy with the NL side lemmatized, its tokens memoized."""
        tokens = tuple(lemmatize_tokens(tokenize(self.nl)))
        clone = self.with_nl(" ".join(tokens), self.augmentation)
        # Joined lemmas re-tokenize to themselves when the text is ASCII
        # (property-tested); other text keeps ``tokens`` lazy, since
        # ``str.lower`` may turn one character into several.
        if clone.nl.isascii():
            clone.__dict__["tokens"] = tokens
        return clone

    def key(self) -> tuple[str, str]:
        """Deduplication key (memoized)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (self.nl, self.sql_text)
            self.__dict__["_key"] = cached
        return cached

    def semantic_key(self, schema=None) -> tuple[str, str]:
        """Canonical-form deduplication key (memoized).

        Strictly coarser than :meth:`key`: pairs with one exact key
        share a semantic key, and additionally pairs whose SQL differs
        only by a result-invariant rewrite
        (:func:`repro.sql.canonical.canonicalize`) collapse together.
        Memoized on first use — callers must be consistent about the
        ``schema`` they pass for a given pair.
        """
        cached = self.__dict__.get("_semantic_key")
        if cached is None:
            from repro.sql.canonical import canonical_text

            cached = (self.nl, canonical_text(self.sql, schema))
            self.__dict__["_semantic_key"] = cached
        return cached

    def __getstate__(self) -> dict:
        # Ship the printed SQL across process boundaries (the parent
        # merge needs it for every key probe) but not the key tuples,
        # which just duplicate strings and are cheap to rebuild.
        state = dict(self.__dict__)
        state.pop("_key", None)
        state.pop("_semantic_key", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def dedupe_pairs(
    pairs: Iterable[TrainingPair],
    seen: set[tuple[str, str]] | None = None,
    *,
    semantic: bool = False,
    schemas: dict | None = None,
) -> list[TrainingPair]:
    """Order-preserving deduplication by :meth:`TrainingPair.key`.

    The single dedupe implementation shared by the generator output,
    both augmenter paths, the pipeline's lemmatize stage, and the
    parallel engine's shard merge.  Passing ``seen`` threads one key set
    through successive calls (global dedupe across streamed batches);
    the set is updated in place.

    ``semantic=True`` keys on :meth:`TrainingPair.semantic_key`
    instead — pairs whose SQL canonicalizes identically (optionally
    schema-aware via ``schemas``, a ``name -> Schema`` mapping) count
    as duplicates even when their printed SQL differs.  The default is
    exact-key dedupe, bit-identical to the pre-PR 10 behavior; a
    ``seen`` set must not be shared between modes.
    """
    if seen is None:
        seen = set()
    unique: list[TrainingPair] = []
    for pair in pairs:
        if semantic:
            schema = schemas.get(pair.schema_name) if schemas else None
            key = pair.semantic_key(schema)
        else:
            key = pair.key()
        if key not in seen:
            seen.add(key)
            unique.append(pair)
    return unique


@dataclass
class SlotFill:
    """Result of one builder invocation: SQL plus NL slot values."""

    query: Query
    slots: dict[str, str] = field(default_factory=dict)


def render(pattern: str, slots: dict[str, str]) -> str:
    """Fill an NL pattern and tidy up whitespace."""
    try:
        text = pattern.format(**slots)
    except KeyError as exc:
        raise TemplateError(f"pattern {pattern!r} missing slot {exc}") from exc
    return re.sub(r"\s+", " ", text).strip()


# ----------------------------------------------------------------------
# NL helpers shared by builders
# ----------------------------------------------------------------------

_ES_ENDINGS = ("ss", "x", "z", "ch", "sh")


def pluralize(phrase: str) -> str:
    """Naive English pluralization of the head noun (last word).

    Words already ending in a bare "s" (e.g. "patients") are treated as
    plural and left unchanged.
    """
    words = phrase.split()
    head = words[-1]
    if head.endswith("y") and len(head) > 1 and head[-2] not in "aeiou":
        head = head[:-1] + "ies"
    elif head.endswith(_ES_ENDINGS):
        head = head + "es"
    elif not head.endswith("s"):
        head = head + "s"
    words[-1] = head
    return " ".join(words)


def _choice(rng: np.random.Generator, options) -> str:
    return options[int(rng.integers(len(options)))]


def pick_table(schema: Schema, rng: np.random.Generator) -> Table:
    """Uniformly pick a table."""
    return schema.tables[int(rng.integers(len(schema.tables)))]


def pick_column(
    table: Table,
    rng: np.random.Generator,
    numeric: bool | None = None,
    exclude: tuple[str, ...] = (),
) -> Column | None:
    """Pick a column, optionally constrained to (non-)numeric types.

    Primary-key id columns are avoided for filters and aggregates when
    alternatives exist (users rarely ask about surrogate keys).
    """
    candidates = [c for c in table.columns if c.name not in exclude]
    if numeric is True:
        candidates = [c for c in candidates if c.is_numeric]
    elif numeric is False:
        candidates = [c for c in candidates if not c.is_numeric]
    interesting = [c for c in candidates if not c.primary_key]
    if interesting:
        candidates = interesting
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


def nl_phrase(element, rng: np.random.Generator) -> str:
    """Pick one NL phrase (annotation or a synonym) for a schema element."""
    return _choice(rng, element.nl_phrases)


@dataclass
class FilterSpec:
    """A single filter predicate with consistent SQL and NL sides."""

    table: Table
    column: Column
    op: CompOp
    qualified: bool = False  # join queries qualify refs and placeholders

    @property
    def placeholder(self) -> Placeholder:
        """SQL-side placeholder (table-qualified for join templates)."""
        if self.qualified:
            return Placeholder(f"{self.table.name}.{self.column.name}".upper())
        return Placeholder(self.column.name.upper())

    @property
    def nl_placeholder(self) -> Placeholder:
        """NL-side placeholder — always unqualified.

        The runtime parameter handler replaces a constant with ``@COL``
        without knowing whether the model will need a table-qualified
        SQL placeholder, so training NL must use the unqualified form
        too; the model learns the ``@COL -> @TABLE.COL`` mapping from
        context.
        """
        return Placeholder(self.column.name.upper())

    def sql(self) -> Comparison:
        ref = ColumnRef(
            self.column.name, table=self.table.name if self.qualified else None
        )
        return Comparison(ref, self.op, self.placeholder)

    def nl(self, rng: np.random.Generator, name_prefix: str = "") -> str:
        """Verbalize, e.g. "age greater than @AGE" or "state is @STATE"."""
        attribute = nl_phrase(self.column, rng)
        phrase = _choice(rng, comparative_phrases(self.op, self.column.domain))
        return f"{name_prefix}{attribute} {phrase} {self.nl_placeholder}"


def pick_filter(
    table: Table,
    rng: np.random.Generator,
    qualified: bool = False,
    exclude: tuple[str, ...] = (),
    numeric: bool | None = None,
) -> FilterSpec | None:
    """Pick a filter column and a type-appropriate operator."""
    column = pick_column(table, rng, numeric=numeric, exclude=exclude)
    if column is None:
        return None
    if column.is_numeric:
        ops = (CompOp.EQ, CompOp.GT, CompOp.LT, CompOp.GE, CompOp.LE)
        op = ops[int(rng.integers(len(ops)))]
    else:
        op = CompOp.EQ if rng.random() < 0.9 else CompOp.NE
    return FilterSpec(table, column, op, qualified=qualified)

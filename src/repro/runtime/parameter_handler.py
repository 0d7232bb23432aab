"""The Parameter Handler: constant anonymization (paper §2.1.2, §4.1).

Replaces the constants in an input NL query with typed placeholders so
the translation model works independently of database contents.  The
handler uses the value index (exact lookup, then Jaccard similarity
fallback) to attribute each constant to a schema column; numeric
constants that match no column become the generic ``@NUM`` placeholder
(used e.g. for HAVING counts).

When the same column is matched by exactly two numeric constants, they
are renamed ``@COL.LOW`` / ``@COL.HIGH`` (smaller first) to align with
the BETWEEN templates of the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.index import ValueIndex
from repro.db.storage import Database
from repro.nlp.tokenizer import tokenize


@dataclass
class Binding:
    """One anonymized constant."""

    placeholder: str  # name without '@', upper-case, possibly dotted
    value: int | float | str
    table: str = ""
    column: str = ""

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.placeholder.lower().split("."))


@dataclass
class AnonymizedQuery:
    """Result of anonymization: rewritten NL plus the extracted bindings."""

    nl: str
    bindings: list[Binding] = field(default_factory=list)


class ParameterHandler:
    """Replaces constants in NL questions with placeholders."""

    def __init__(
        self,
        database: Database,
        value_index: ValueIndex | None = None,
        similarity_threshold: float = 0.45,
    ) -> None:
        self.database = database
        self.index = value_index or ValueIndex(
            database, similarity_threshold=similarity_threshold
        )
        self._schema_words = schema_words(database)

    # ------------------------------------------------------------------

    def anonymize(self, nl: str) -> AnonymizedQuery:
        """Rewrite ``nl``, replacing constants with placeholders."""
        tokens = tokenize(nl)
        out_tokens: list[str] = []
        bindings: list[Binding] = []
        position = 0
        while position < len(tokens):
            token = tokens[position]
            if token.startswith("@"):
                # Pre-anonymized input (the paper's evaluation setting).
                out_tokens.append(token)
                bindings.append(Binding(placeholder=token[1:], value=token))
                position += 1
                continue
            number = _as_number(token)
            if number is not None:
                binding = self._bind_number(number)
                bindings.append(binding)
                out_tokens.append("@" + binding.placeholder)
                position += 1
                continue
            match = self._match_string(tokens, position)
            if match is not None:
                binding, consumed = match
                bindings.append(binding)
                out_tokens.append("@" + binding.placeholder)
                position += consumed
                continue
            out_tokens.append(token)
            position += 1
        self._rename_pairs(bindings, out_tokens)
        return AnonymizedQuery(nl=" ".join(out_tokens), bindings=bindings)

    # ------------------------------------------------------------------

    def _bind_number(self, value: int | float) -> Binding:
        hits = self.index.lookup(str(value))
        numeric_hits = [
            h
            for h in hits
            if self.database.schema.column(h.table, h.column).is_numeric
            and not self.database.schema.column(h.table, h.column).primary_key
        ]
        hits = numeric_hits or hits
        if hits:
            hit = hits[0]
            return Binding(
                placeholder=hit.column.upper(),
                value=value,
                table=hit.table,
                column=hit.column,
            )
        return Binding(placeholder="NUM", value=value)

    def _match_string(self, tokens: list[str], position: int):
        """Try to match a (multi-word) string constant starting here.

        Longest match first, up to 3 tokens, using exact-then-fuzzy
        lookup.  The fuzzy path also *corrects* the constant to the most
        similar stored value ("New York City" -> "NYC", §4.1).  A schema
        word is never a constant, so it skips the lookup altogether.
        """
        if not tokens[position].isalpha():
            return None
        for length in (3, 2, 1):
            if position + length > len(tokens):
                continue
            phrase = " ".join(tokens[position : position + length])
            if phrase.lower() in self._schema_words:
                continue
            # Exact hits score 1.0, so the threshold keeps all of them.
            hits = [h for h in self.index.fuzzy_lookup(phrase) if h.score >= 0.55]
            if hits:
                hit = hits[0]
                return (
                    Binding(
                        placeholder=hit.column.upper(),
                        value=hit.value,
                        table=hit.table,
                        column=hit.column,
                    ),
                    length,
                )
        return None

    @staticmethod
    def _rename_pairs(bindings: list[Binding], out_tokens: list[str]) -> None:
        """Rename duplicate numeric column bindings to .LOW/.HIGH."""
        by_placeholder: dict[str, list[int]] = {}
        for index, binding in enumerate(bindings):
            by_placeholder.setdefault(binding.placeholder, []).append(index)
        for placeholder, indices in by_placeholder.items():
            if len(indices) != 2 or placeholder == "NUM":
                continue
            pair = [bindings[i] for i in indices]
            if not all(isinstance(b.value, (int, float)) for b in pair):
                continue
            old = "@" + placeholder
            positions = [t for t, token in enumerate(out_tokens) if token == old]
            if len(positions) != 2:
                continue
            low_index = min(indices, key=lambda i: bindings[i].value)
            # Bindings appear in token order, so indices[k] sits at
            # positions[k].
            for k, binding_index in enumerate(indices):
                suffix = "LOW" if binding_index == low_index else "HIGH"
                bindings[binding_index].placeholder = f"{placeholder}.{suffix}"
                out_tokens[positions[k]] = "@" + bindings[binding_index].placeholder


def _as_number(token: str) -> int | float | None:
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            return None


def schema_words(database: Database) -> frozenset[str]:
    """Lower-cased NL phrases of every table and column of ``database``.

    Schema-element names should stay words, not become constants:
    "show me the names of patients" must not anonymize "patients" just
    because some text column happens to contain that string.
    """
    return frozenset(
        phrase.lower()
        for table in database.schema.tables
        for element in (table, *table.columns)
        for phrase in element.nl_phrases
    )

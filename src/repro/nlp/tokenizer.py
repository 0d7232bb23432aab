"""Word tokenizer shared by the training and runtime phases.

The tokenizer must satisfy two constraints that generic NLP tokenizers
do not: the paper's placeholders (``@AGE``, ``@STATE.NAME``, ``@JOIN``)
must survive as single tokens, and tokenization must be exactly
identical at training and inference time so the model's input
distribution does not shift.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(
    r"""
    @[A-Za-z_][A-Za-z0-9_.]*      # placeholder, possibly dotted
    | \d+\.\d+                    # decimal number
    | \d+                         # integer
    | [A-Za-z_]+(?:'[A-Za-z]+)?   # word, optionally with apostrophe (car's)
    | [<>=!]=? | <>               # comparison operators (for SQL-ish text)
    | [^\sA-Za-z0-9]              # any other single symbol
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lower-cased tokens (placeholders upper-cased)."""
    return [t.upper() if t[0] == "@" else t.lower() for t in _TOKEN_RE.findall(text)]


def detokenize(tokens: list[str]) -> str:
    """Join tokens back into a readable string (inverse up to spacing)."""
    out: list[str] = []
    for token in tokens:
        if token in (",", ".", "?", "!", ";", ":") and out:
            out[-1] += token
        else:
            out.append(token)
    return " ".join(out)


def is_placeholder_token(token: str) -> bool:
    """Whether a token is a constant placeholder such as ``@AGE``."""
    return token.startswith("@")

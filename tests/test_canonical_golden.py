"""Byte-identity gate for the canonicalizer's printed outputs.

``tests/data/canonical_golden.json`` maps every input query to one
digest of its four printed forms: ``canonical_sql(q)``,
``canonical_text(q, None)``, ``canonical_text(q, schema)`` and
``canonical_key(q, schema)``.  Exact match, the planner's result-cache
key and pattern signatures all hang off these strings, so a
canonicalizer refactor must leave every one of them byte-identical.

Inputs:

* every query both seed corpora synthesize, raw (with placeholders)
  and bound to probe-database constants;
* the randomized schema-derived probe queries of the soundness gate,
  over every catalog schema at both seeds;
* the ``equivalent_variants`` shuffles of all of the above.

A failure names the query.  Regenerate only when a canonical-form
change is intended::

    PYTHONPATH=src python -m tests.test_canonical_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.db import populate
from repro.schema import SCHEMA_FACTORIES, load_schema
from repro.sql import canonical_sql
from repro.sql.canonical import canonical_key, canonical_text
from repro.sql.printer import to_sql
from tests.test_canonical_soundness import (
    _executable_corpus_queries,
    _probe_queries,
    equivalent_variants,
)

pytestmark = pytest.mark.canonical

GOLDEN_PATH = Path(__file__).parent / "data" / "canonical_golden.json"


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def _outputs(query, schema) -> str:
    """The four printed forms, joined (an exception's name if one raises)."""
    try:
        forms = (
            canonical_sql(query),
            canonical_text(query, None),
            canonical_text(query, schema),
            canonical_key(query, schema),
        )
    except Exception as exc:  # pinned like any other output
        return f"<{type(exc).__name__}>"
    return "\n".join(forms)


def golden_inputs(corpora, corpus_databases):
    """``(schema, query)`` for every input, shuffles included."""
    bases = []
    for corpus, database in zip(corpora, corpus_databases):
        schema = database.schema
        bases += [(schema, pair.sql) for pair in corpus.pairs]
        bases += [
            (schema, q) for q in _executable_corpus_queries(corpus, database)
        ]
    for name in sorted(SCHEMA_FACTORIES):
        schema = load_schema(name)
        for seed in (0, 17):
            database = populate(schema, rows_per_table=25, seed=seed)
            bases += [(schema, q) for q in _probe_queries(database)]
    for schema, query in bases:
        yield schema, query
        for variant in equivalent_variants(query):
            yield schema, variant


def golden_records(inputs) -> dict[str, tuple[str, str]]:
    """``input digest -> (printed input, output digest)``."""
    records: dict[str, tuple[str, str]] = {}
    for schema, query in inputs:
        text = f"{schema.name}: {to_sql(query)}"
        outputs = _digest(_outputs(query, schema))
        key = _digest(text)
        previous = records.setdefault(key, (text, outputs))
        assert previous == (text, outputs), f"ambiguous golden input: {text}"
    return records


def test_canonical_forms_byte_identical(
    patients_corpus, geography_corpus, patients_db, geography_db
):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    records = golden_records(
        golden_inputs(
            (patients_corpus, geography_corpus), (patients_db, geography_db)
        )
    )
    changed = [
        text
        for key, (text, outputs) in records.items()
        if golden.get(key) != outputs
    ]
    assert not changed, (
        f"{len(changed)} canonical form(s) changed or unrecorded, e.g.:\n  "
        + "\n  ".join(changed[:5])
    )
    # Coverage: every recorded input is still generated.
    assert set(golden) == set(records)


def _regenerate() -> None:
    from repro.core import GenerationConfig, TrainingPipeline

    config = GenerationConfig(size_slotfills=4)
    patients, geography = load_schema("patients"), load_schema("geography")
    corpora = (
        TrainingPipeline(patients, config, seed=1).generate(),
        TrainingPipeline(geography, config, seed=2).generate(),
    )
    databases = (
        populate(patients, rows_per_table=30, seed=3),
        populate(geography, rows_per_table=25, seed=5),
    )
    records = golden_records(golden_inputs(corpora, databases))
    golden = {key: outputs for key, (_, outputs) in sorted(records.items())}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} records to {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()

"""DBPal: a fully pluggable NL2SQL training pipeline (SIGMOD 2020 reproduction).

Public API tour
---------------

>>> from repro import (
...     GenerationConfig, TrainingPipeline,   # the paper's contribution
...     Seq2SeqModel, SyntaxAwareModel,       # pluggable translators
...     DBPal,                                # end-to-end NLIDB
...     load_schema, populate,                # schemas + sample data
... )

Train a translator for a schema with zero manual training data::

    schema = load_schema("patients")
    pipeline = TrainingPipeline(schema)
    model = Seq2SeqModel()
    pipeline.train(model)

Serve it as a natural-language interface::

    nlidb = DBPal(populate(schema), model)
    nlidb.query("show me the names of all patients with age 80")

Or serve it concurrently, with micro-batching, caching, and graceful
degradation (``repro serve`` on the command line)::

    with TranslationService(nlidb) as service:
        service.translate("show me the names of all patients with age 80")
"""

from repro.core import (
    Augmenter,
    GenerationConfig,
    Generator,
    SEED_TEMPLATES,
    TrainingCorpus,
    TrainingPair,
    TrainingPipeline,
    grid_search,
    random_search,
)
from repro.db import Database, ValueIndex, populate
from repro.neural import (
    RetrievalModel,
    Seq2SeqModel,
    SyntaxAwareModel,
    TranslationModel,
    load_model,
    save_model,
)
from repro.runtime import DBPal
from repro.schema import Schema, all_schemas, load_schema, patients_schema
from repro.serving import ServingConfig, ServingResponse, TranslationService
from repro.sql import parse, to_sql

__version__ = "1.0.0"

__all__ = [
    "Augmenter",
    "DBPal",
    "Database",
    "GenerationConfig",
    "Generator",
    "RetrievalModel",
    "SEED_TEMPLATES",
    "Schema",
    "Seq2SeqModel",
    "ServingConfig",
    "ServingResponse",
    "SyntaxAwareModel",
    "TrainingCorpus",
    "TranslationService",
    "TrainingPair",
    "TrainingPipeline",
    "TranslationModel",
    "ValueIndex",
    "all_schemas",
    "grid_search",
    "load_model",
    "load_schema",
    "parse",
    "patients_schema",
    "populate",
    "random_search",
    "save_model",
    "to_sql",
    "__version__",
]

"""Integration tests for cross-domain learning on the Spider substitute.

Smaller-scale versions of the benchmark claims, so regressions in the
Table 2 mechanism are caught by the fast test suite, not only by the
benchmark run.
"""

import pytest

from repro.bench import spider_schemas, spider_test_workload, spider_train_pairs
from repro.core import GenerationConfig, TrainingPipeline
from repro.eval import evaluate
from repro.neural import CrossDomainModel, Seq2SeqModel


@pytest.fixture(scope="module")
def setup():
    train_schemas, test_schemas = spider_schemas()
    all_schemas = train_schemas + test_schemas
    spider = [
        p.lemmatized() for p in spider_train_pairs(pairs_per_schema=100, seed=100)
    ]
    workload = spider_test_workload(items_per_schema=12, seed=200)
    schemas_map = {s.name: s for s in all_schemas}
    return train_schemas, test_schemas, all_schemas, spider, workload, schemas_map


def train(pairs, all_schemas, epochs):
    model = CrossDomainModel(
        Seq2SeqModel(embed_dim=48, hidden_dim=96, epochs=epochs, seed=1),
        all_schemas,
    )
    model.fit(pairs)
    return model


class TestCrossDomainLearning:
    def test_dbpal_full_beats_baseline(self, setup):
        """The core Table 2 mechanism at small scale: target-schema
        synthesis yields a large accuracy gain on unseen schemas."""
        train_schemas, test_schemas, all_schemas, spider, workload, schemas_map = setup
        baseline = train(spider, all_schemas, epochs=12)
        base_acc = evaluate(
            baseline, workload, metric="exact", schemas=schemas_map
        ).accuracy

        synth = TrainingPipeline(
            all_schemas, GenerationConfig(size_slotfills=6), seed=10
        ).generate().subsample(6000, seed=0)
        full = train(spider + synth.pairs, all_schemas, epochs=6)
        full_acc = evaluate(
            full, workload, metric="exact", schemas=schemas_map
        ).accuracy

        assert full_acc > base_acc, (base_acc, full_acc)
        assert full_acc >= 0.15, full_acc

    def test_translations_target_correct_schema(self, setup):
        """Slot de-anonymization must emit the right schema's names."""
        train_schemas, test_schemas, all_schemas, spider, workload, schemas_map = setup
        synth = TrainingPipeline(
            all_schemas, GenerationConfig(size_slotfills=3), seed=11
        ).generate().subsample(2500, seed=0)
        model = train(spider + synth.pairs, all_schemas, epochs=5)
        flights = schemas_map["flights"]
        output = model.translate_for_schema("how many flight be there", flights)
        assert output is not None
        # Whatever the exact query, every identifier must come from the
        # flights schema.
        for token in output.split():
            if token.islower() and token.isidentifier():
                tables = set(flights.table_names)
                columns = {c.name for t in flights.tables for c in t.columns}
                assert token in tables | columns | {"x"}, output

"""Linguistic robustness on the Patients benchmark (paper §6.2).

Trains the SyntaxSQLNet stand-in with DBPal synthesis for the Patients
schema and evaluates it on all seven linguistic-variation categories of
the Patients benchmark (ParaphraseBench stand-in), printing a Table 3
style per-category breakdown plus a few example translations.

Run:  python examples/patients_nlidb.py
"""

from repro.analysis import EquivalenceOracle
from repro.bench import build_patients_benchmark
from repro.core import GenerationConfig, TrainingPipeline
from repro.eval import evaluate, format_table
from repro.neural import CrossDomainModel, SyntaxAwareModel
from repro.schema import patients_schema


def main() -> None:
    schema = patients_schema()
    workload = build_patients_benchmark()
    print(f"Patients benchmark: {len(workload)} NL-SQL pairs, "
          f"categories {workload.categories()}")

    # DBPal synthesis for the target schema (the "DBPal (Full)" setting
    # of §6.2.2 with respect to this benchmark).
    pipeline = TrainingPipeline(schema, GenerationConfig(size_slotfills=10), seed=0)
    corpus = pipeline.generate().subsample(5000, seed=0)
    print(f"synthesized corpus: {len(corpus)} pairs "
          f"({corpus.augmentation_counts()})")

    model = CrossDomainModel(
        SyntaxAwareModel(embed_dim=48, hidden_dim=96, epochs=8, seed=1),
        [schema],
        default_schema=schema,
    )
    print("training ...")
    model.fit(corpus.pairs)

    # Semantic-equivalence evaluation, as the benchmark specifies: the
    # oracle's probe databases (seeds 3 and 11) supply execution evidence.
    oracle = EquivalenceOracle(schema, seeds=(3, 11))
    result = evaluate(
        model,
        workload,
        metric="semantic",
        oracle=oracle,
        schemas={schema.name: schema},
    )

    by_category = result.by_category()
    print()
    print(
        format_table(
            ["Category", "Accuracy"],
            [[c, by_category[c]] for c in workload.categories()]
            + [["overall", result.accuracy]],
            title="Patients benchmark (semantic equivalence)",
        )
    )

    print("\nexample failures:")
    for record in result.failures(limit=5):
        print(f"  [{record.item.category}] {record.item.nl}")
        print(f"    gold: {record.item.sql_text}")
        print(f"    got : {record.prediction}")


if __name__ == "__main__":
    main()

"""Cross-domain evaluation on the Spider substitute (paper §6.1).

Trains the three configurations of Table 2 — the baseline model on the
human-annotated training set alone, DBPal (Train), and DBPal (Full) —
and evaluates on held-out schemas with per-difficulty breakdowns.

Run:  python examples/spider_eval.py          (fast, a few minutes)
"""

from repro.bench import spider_schemas, spider_test_workload, spider_train_pairs
from repro.core import GenerationConfig, TrainingPipeline
from repro.eval import evaluate, format_table
from repro.neural import CrossDomainModel, SyntaxAwareModel
from repro.sql.difficulty import DIFFICULTY_ORDER


def train_model(pairs, all_schemas, seed=1):
    epochs = max(5, min(30, 25_000 // max(len(pairs), 1)))
    model = CrossDomainModel(
        SyntaxAwareModel(embed_dim=48, hidden_dim=96, epochs=epochs, seed=seed),
        all_schemas,
    )
    model.fit(pairs)
    return model


def main() -> None:
    train_schemas, test_schemas = spider_schemas()
    all_schemas = train_schemas + test_schemas
    schemas_map = {s.name: s for s in all_schemas}

    # The "manually annotated" training set (held-out phrasing style).
    spider = [
        p.lemmatized() for p in spider_train_pairs(pairs_per_schema=150, seed=100)
    ]
    workload = spider_test_workload(items_per_schema=24, seed=200)
    print(f"training set: {len(spider)} pairs over {[s.name for s in train_schemas]}")
    print(f"test workload: {len(workload)} items over {[s.name for s in test_schemas]}")

    config = GenerationConfig(size_slotfills=6)
    synth_train = TrainingPipeline(train_schemas, config, seed=10).generate()
    synth_full = TrainingPipeline(all_schemas, config, seed=10).generate()

    configurations = {
        "SyntaxSQLNet (baseline)": spider,
        "DBPal (Train)": spider + synth_train.subsample(6000, seed=0).pairs,
        "DBPal (Full)": spider + synth_full.subsample(10000, seed=0).pairs,
    }

    rows = []
    for name, pairs in configurations.items():
        print(f"\ntraining {name} on {len(pairs)} pairs ...")
        model = train_model(pairs, all_schemas)
        result = evaluate(model, workload, metric="exact", schemas=schemas_map)
        by_difficulty = result.by_difficulty()
        rows.append(
            [name]
            + [by_difficulty[d] for d in DIFFICULTY_ORDER]
            + [result.accuracy]
        )
        print(f"  overall accuracy: {result.accuracy:.3f}")

    print()
    print(
        format_table(
            ["Algorithm", "Easy", "Medium", "Hard", "Very Hard", "Overall"],
            rows,
            title="Spider-substitute results (cf. paper Table 2)",
        )
    )


if __name__ == "__main__":
    main()

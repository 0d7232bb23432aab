"""Table 3 — Patients benchmark results (paper §6.2.2).

Semantic-equivalence accuracy per linguistic-variation category.
Paper numbers:

    Algorithm      Naive  Syntactic  Lexical  Morph.  Semantic  Missing  Mixed  Overall
    SyntaxSQLNet   0.281  0.228      0.070    0.175   0.175     0.088    0.140  0.165
    DBPal (Train)  0.930  0.333      0.404    0.667   0.228     0.088    0.193  0.409
    DBPal (Full)   0.947  0.632      0.544    0.667   0.491     0.158    0.298  0.531

Expected shape on the substitute: large gains from DBPal overall, the
naive category nearly solved by DBPal, and target-schema synthesis
(Full) pulling far ahead on the semantically hard categories; the
missing/mixed categories stay the hardest.
"""

from __future__ import annotations

from repro.analysis.equivalence import EquivalenceOracle
from repro.bench.patients import CATEGORIES
from repro.eval import evaluate, format_table
from repro.schema import patients_schema


def _oracle():
    return EquivalenceOracle(patients_schema(), seeds=(3, 11), rows_per_table=25)


def _evaluate_all(models, workload, schemas_map, oracle):
    return {
        name: evaluate(
            model, workload, metric="semantic", oracle=oracle, schemas=schemas_map
        )
        for name, model in models.items()
    }


def test_table3_patients(
    benchmark,
    baseline_model,
    dbpal_train_model,
    dbpal_full_patients_model,
    patients_workload,
    schemas_map,
):
    models = {
        "SyntaxSQLNet": baseline_model,
        "DBPal (Train)": dbpal_train_model,
        "DBPal (Full)": dbpal_full_patients_model,
    }
    oracle = _oracle()
    results = benchmark.pedantic(
        _evaluate_all,
        args=(models, patients_workload, schemas_map, oracle),
        rounds=1,
        iterations=1,
    )

    rows = []
    for name, result in results.items():
        by_category = result.by_category()
        rows.append(
            [name]
            + [by_category.get(c, float("nan")) for c in CATEGORIES]
            + [result.accuracy]
        )
    print()
    print(
        format_table(
            ["Algorithm", *[c.capitalize() for c in CATEGORIES], "Overall"],
            rows,
            title="Table 3: Patients benchmark results (semantic equivalence)",
        )
    )

    base = results["SyntaxSQLNet"].accuracy
    train = results["DBPal (Train)"].accuracy
    full = results["DBPal (Full)"].accuracy
    assert train > base, f"DBPal (Train) {train:.3f} should beat baseline {base:.3f}"
    assert full > train, f"DBPal (Full) {full:.3f} should beat DBPal (Train) {train:.3f}"
    # DBPal (Full) should nearly solve the naive category (paper: 0.947).
    naive_full = results["DBPal (Full)"].by_category().get("naive", 0.0)
    assert naive_full >= 0.5, f"naive category too low: {naive_full:.3f}"

"""``repro translate``: one model call per question.

The command prints the translated SQL and then executes that same
translation; asking the model again for the rows would double the cost
of every question and could print rows of a different query than the
SQL shown.
"""

from __future__ import annotations

import repro.neural
from repro.cli import main


class CountingModel:
    """Answers every question with one fixed query and counts calls."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def translate(self, question: str) -> str:
        self.calls.append(question)
        return "SELECT COUNT(*) FROM patients"


def test_translate_asks_the_model_once_per_question(monkeypatch, capsys):
    model = CountingModel()
    monkeypatch.setattr(repro.neural, "load_model", lambda path: model)
    code = main(
        [
            "translate",
            "patients",
            "--checkpoint",
            "unused.npz",
            "--ask",
            "how many patients are there",
        ]
    )
    assert code == 0
    assert len(model.calls) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SQL: SELECT COUNT(*) FROM patients"
    assert out[1] == "  {'COUNT(*)': 30}"


"""Seeded question streams for the end-to-end serving benchmark.

Every stream is a plain list of :class:`Request` built from ``--seed``
before any service starts, so the program under test only ever sees
question strings.  Each request also carries what the benchmark needs
to grade the answer afterwards: the gold query (still anonymized, with
``@JOIN`` unexpanded) and the constants bound into this question.

Three workloads:

``patients``
    The 399 Patients paraphrase questions (paper §6.2), a fresh seeded
    order per pass, with fresh constants drawn from the Patients
    database every pass.  Anonymized shapes repeat from pass to pass,
    so the translation cache warms as the run goes on.
``spider_join``
    The 92 Spider-substitute held-out questions over four schemas
    (``@JOIN``, GROUP BY, nested, LIKE), fresh constants every pass.
``hot_repeat``
    Zipf-skewed draws (s = 1.1) from a small fixed pool of
    constant-bound Patients questions: after the first sight of a
    question the preprocess memo and the translation cache answer it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.bench import build_patients_benchmark, spider_test_workload
from repro.bench.spider import TEST_SCHEMAS
from repro.runtime.parameter_handler import Binding
from repro.sql.ast import Query

WORKLOADS = ("patients", "spider_join", "hot_repeat")

#: Schemas each workload serves; one service per schema.
SCHEMAS = {
    "patients": ("patients",),
    "spider_join": TEST_SCHEMAS,
    "hot_repeat": ("patients",),
}

#: Distinct constant-bound questions in the ``hot_repeat`` pool.  The
#: pool is the same for every ``--seed`` (only the draws change), so
#: its answer quality does not vary from seed to seed.
HOT_POOL = 48
HOT_POOL_SEED = 7
#: Zipf exponent of the ``hot_repeat`` draws.
HOT_ZIPF_S = 1.1
#: Passes over the base question set built up front.  Far more than a
#: run consumes, so a faster program never runs out of fresh questions.
PASSES = {"patients": 40, "spider_join": 120}
HOT_DRAWS = 400_000


@dataclass(frozen=True)
class Request:
    """One question as sent, plus what grading it needs."""

    nl: str
    schema: str
    gold: Query  # anonymized gold query (placeholders, maybe @JOIN)
    bindings: tuple[tuple[str, object], ...]  # (gold placeholder, constant)
    item: int  # index of the base question this was built from

    def gold_bindings(self) -> list[Binding]:
        return [
            Binding(placeholder=name, value=value, column=_column_of(name))
            for name, value in self.bindings
        ]


def _column_of(name: str) -> str:
    segments = name.lower().split(".")
    if segments[-1] in ("low", "high") and len(segments) > 1:
        segments = segments[:-1]
    return "" if segments[-1] == "num" else segments[-1]


class _ConstantPicker:
    """Draws constants for the placeholders of one question."""

    def __init__(self, databases: dict) -> None:
        self._databases = databases
        self._values: dict[tuple[str, str, str], list] = {}

    def _domain(self, schema_name: str, table: str | None, column: str) -> list:
        key = (schema_name, table or "", column)
        if key not in self._values:
            database = self._databases[schema_name]
            schema = database.schema
            if table is None or table not in schema or column not in schema.table(table):
                owners = schema.tables_with_column(column)
                table = owners[0].name if owners else None
            values: list = []
            if table is not None:
                values = sorted(
                    {v for v in database.column_values(table, column) if v is not None},
                    key=lambda v: (str(type(v)), v),
                )
            self._values[key] = values
        return self._values[key]

    def bind(self, nl: str, gold: Query, schema_name: str, rng) -> tuple[str, tuple]:
        """Replace every ``@PLACEHOLDER`` token of ``nl`` by a constant.

        Each NL placeholder is matched to a placeholder of the gold
        query (same name, else same column, else the next unused one)
        and the constant is drawn from that column, so the question and
        its gold query always agree on what the constant means.
        """
        sql_names = list(dict.fromkeys(ph.name for ph in gold.placeholders()))
        tokens = nl.split()
        targets: dict[str, str] = {}  # NL placeholder -> gold placeholder
        values: dict[str, object] = {}
        bindings: list[tuple[str, object]] = []
        for position, token in enumerate(tokens):
            if not token.startswith("@") or len(token) < 2:
                continue
            name = token[1:]
            if name not in targets:
                targets[name] = _match(name, sql_names, set(targets.values()))
            target = targets[name]
            if target not in values:
                values.update(self._draw(target, schema_name, rng))
            bindings.append((target, values[target]))
            tokens[position] = _render(values[target])
        return " ".join(tokens), tuple(bindings)

    def _draw(self, name: str, schema_name: str, rng) -> dict:
        segments = name.lower().split(".")
        pair = segments[-1] in ("low", "high") and len(segments) > 1
        column = segments[-2] if pair else segments[-1]
        table = segments[0] if len(segments) > (2 if pair else 1) else None
        domain = [] if column == "num" else self._domain(schema_name, table, column)
        if not pair:
            if not domain:
                return {name: int(rng.integers(1, 6))}
            return {name: domain[int(rng.integers(len(domain)))]}
        stem = name.rsplit(".", 1)[0]
        low, high = sorted(
            domain[int(i)] for i in rng.choice(len(domain), size=2, replace=False)
        )
        return {f"{stem}.LOW": low, f"{stem}.HIGH": high}


def _match(name: str, sql_names: list[str], used: set[str]) -> str:
    if name in sql_names:
        return name
    unused = [s for s in sql_names if s not in used]
    for candidate in unused:
        if _column_of(candidate) == _column_of(name):
            return candidate
    return unused[0] if unused else name


def _render(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _base_items(workload: str):
    if workload == "spider_join":
        return list(spider_test_workload())
    return list(build_patients_benchmark())


def build_stream(workload: str, seed: int, databases: dict) -> list[Request]:
    """The full request stream of ``workload`` for ``seed``.

    ``databases`` maps schema name to the populated database whose
    values the constants are drawn from (the same content the services
    are built over).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    picker = _ConstantPicker(databases)
    items = _base_items(workload)

    def bound(index: int, rng=rng) -> Request:
        item = items[index]
        nl, bindings = picker.bind(item.nl, item.sql, item.schema_name, rng)
        return Request(nl, item.schema_name, item.sql, bindings, index)

    if workload == "hot_repeat":
        pool_rng = np.random.default_rng(HOT_POOL_SEED)
        pool_items = pool_rng.choice(len(items), size=HOT_POOL, replace=False)
        pool = [bound(int(index), pool_rng) for index in pool_items]
        ranks = np.arange(1, HOT_POOL + 1, dtype=float)
        weights = ranks**-HOT_ZIPF_S
        draws = rng.choice(HOT_POOL, size=HOT_DRAWS, p=weights / weights.sum())
        return [pool[int(k)] for k in draws]

    stream: list[Request] = []
    for _ in range(PASSES[workload]):
        stream.extend(bound(int(index)) for index in rng.permutation(len(items)))
    return stream


def stream_digest(stream: list[Request]) -> str:
    """sha256 over the whole generated stream (schema and question)."""
    digest = hashlib.sha256()
    for request in stream:
        digest.update(f"{request.schema}\t{request.nl}\n".encode())
    return digest.hexdigest()

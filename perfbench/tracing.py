"""Spans recorded from outside the program, around each layer's entry point.

:class:`Tracer` wraps public entry points (and two service attributes
the serving tier calls through) with timing wrappers.  A thread-local
stack of open spans gives each span its parent; a span opened on a
thread with no open span (the micro-batcher's worker running the model
and the cache put) is parented to the request in flight, which is
unambiguous with one client thread.  Spans stay in memory and are
written as JSON lines once the run ends.

Layers and the entry points wrapped for them:

=============  ==========================================================
``request``    ``TranslationService.query`` (the root span)
``preprocess`` the service's preprocess step (memo included), then
               ``Preprocessor.preprocess`` on a memo miss
``tokenize``   ``repro.runtime.parameter_handler.tokenize``
``lemmatize``  ``repro.runtime.preprocess.lemmatize``
``index``      ``ValueIndex.lookup``, ``ValueIndex.fuzzy_lookup``
``model``      the served model's ``translate_batch``
``postprocess`` ``PostProcessor.process``
``canonical``  ``repro.sql.canonical.canonical_key_for_sql``
``repair``     ``RepairPipeline.run``
``execute``    ``repro.db.executor.execute``, ``ExecutorSession.execute``,
               ``BackendAdapter.execute`` of every registered backend
=============  ==========================================================

``execute`` stays one layer whichever executor the serving path calls.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

import repro.db.executor
import repro.runtime.parameter_handler
import repro.runtime.preprocess
import repro.sql.canonical
from repro.adapters import BackendAdapter
from repro.db.index import ValueIndex
from repro.db.planner import ExecutorSession
from repro.runtime.postprocess import PostProcessor
from repro.runtime.preprocess import Preprocessor
from repro.serving import RepairPipeline

#: Span name -> layer.
LAYER_OF = {
    "request": "serving",
    "preprocess": "preprocess",
    "preprocess.miss": "preprocess",
    "tokenize": "preprocess.tokenize",
    "lemmatize": "preprocess.lemmatize",
    "index.lookup": "index",
    "index.fuzzy": "index",
    "model": "model",
    "postprocess": "postprocess",
    "canonical": "canonical",
    "repair": "repair",
    "execute": "execute",
}

# Span tuple fields.
SID, PARENT, REQUEST, NAME, START, END, OK, EXTRA = range(8)


def _backend_classes() -> list[type]:
    seen, pending = [], list(BackendAdapter.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "execute" in vars(cls)]


class Tracer:
    """In-memory span recorder; install it with :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.request = -1  # benchmark request index in flight
        self._root = None  # open root span id

    def wrap(self, name: str, fn, extra=None, root: bool = False):
        """``fn`` recording one span per call; ``extra(args, result)``."""
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            if root:
                self._root = sid
            stack.append(sid)
            ok, result, start = False, None, clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if root:
                    self._root = None
                info = extra(args, result) if (extra is not None and ok) else None
                spans.append((sid, parent, self.request, name, start, end, ok, info))

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the class- and module-level entry points for the block.

        Must be active while services are constructed: the service's
        preprocess memo captures ``Preprocessor.preprocess`` when built.
        """
        targets = [
            (Preprocessor, "preprocess", "preprocess.miss", None),
            (repro.runtime.parameter_handler, "tokenize", "tokenize", None),
            (repro.runtime.preprocess, "lemmatize", "lemmatize", None),
            (ValueIndex, "lookup", "index.lookup", None),
            (ValueIndex, "fuzzy_lookup", "index.fuzzy", None),
            (PostProcessor, "process", "postprocess", None),
            (repro.sql.canonical, "canonical_key_for_sql", "canonical", None),
            (RepairPipeline, "run", "repair", lambda args, report: report.outcome),
            (repro.db.executor, "execute", "execute", None),
            (ExecutorSession, "execute", "execute", None),
        ] + [(cls, "execute", "execute", None) for cls in _backend_classes()]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, extra in targets:
                setattr(owner, attr, self.wrap(name, vars(owner)[attr], extra))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def attach(self, service) -> None:
        """Wrap one service's request entry, preprocess step and model."""
        service.query = self.wrap("request", service.query, root=True)
        # The service calls preprocessing through a memo attribute; the
        # span around it counts exactly what the service's own
        # ``preprocess`` stage counts, memo hits included.
        service._preprocess = self.wrap("preprocess", service._preprocess)
        model = service.nlidb.model
        model.translate_batch = self.wrap(
            "model", model.translate_batch, extra=lambda args, out: len(args[0])
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": span[SID],
                            "parent": span[PARENT],
                            "request": span[REQUEST],
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "ok": span[OK],
                            "info": span[EXTRA],
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Per-layer metrics from finished spans
# ----------------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_breakdown(spans: list[tuple]) -> dict:
    """Per-layer durations, self times and counts over finished spans.

    A layer's *outer* spans are those whose nearest ancestor belongs to
    another layer (nested calls of one layer, such as a memory adapter
    calling its executor session, count once).  A span's self time is
    its duration minus its children's.
    """
    by_id = {span[SID]: span for span in spans}
    child_ns: dict[int, int] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + span[END] - span[START]

    layers: dict[str, dict] = {}
    for span in spans:
        layer = LAYER_OF[span[NAME]]
        entry = layers.setdefault(
            layer, {"outer_ns": [], "self_ns": 0, "names": {}, "extras": []}
        )
        duration = span[END] - span[START]
        entry["self_ns"] += max(0, duration - child_ns.get(span[SID], 0))
        entry["names"].setdefault(span[NAME], []).append(duration)
        if span[EXTRA] is not None:
            entry["extras"].append(span[EXTRA])
        parent = by_id.get(span[PARENT])
        if parent is None or LAYER_OF[parent[NAME]] != layer:
            entry["outer_ns"].append(duration)
    return layers


def per_layer_metrics(
    spans: list[tuple],
    services: dict,
    measured_wall_s: float,
    speed_factor: float,
    untraced_latencies: list[float],
    traced_latencies: list[float],
    setup_phases: dict,
    text_values: int,
) -> dict:
    """Every per-layer metric of the benchmark, as ``{name: value}``.

    Span times are scaled by ``speed_factor`` (see ``speed.py``); the
    latencies are already scaled.
    """
    layers = layer_breakdown(spans)
    empty = {"outer_ns": [], "self_ns": 0, "names": {}, "extras": []}

    def get(layer):
        return layers.get(layer, empty)

    requests = len(get("serving")["outer_ns"]) or 1
    total_ns = sum(get("serving")["outer_ns"]) or 1

    def share(layer):
        return sum(get(layer)["outer_ns"]) / total_ns

    us, ms = 1e3 / speed_factor, 1e6 / speed_factor

    def per_request_ms(layer):
        return sum(get(layer)["outer_ns"]) / requests / ms

    def names(layer, name):
        return get(layer)["names"].get(name, [])

    stats = [service.stats() for service in services.values()]
    counters = [s["counters"] for s in stats]
    lookups = sum(s["cache"]["hits"] + s["cache"]["misses"] for s in stats)
    cache_hits = sum(s["cache"]["hits"] for s in stats)
    preprocess_calls = len(names("preprocess", "preprocess"))
    preprocess_misses = len(names("preprocess", "preprocess.miss"))
    outcomes = get("repair")["extras"]
    sessions = [service.nlidb.executor.stats() for service in services.values()]
    session_lookups = sum(s["cache_hits"] + s["cache_misses"] for s in sessions)
    # Same requests on both sides; medians, because the tails hold the
    # model's first-sight batches whose timing tracing does not change.
    common = min(len(traced_latencies), len(untraced_latencies))
    traced_p50 = statistics.median(traced_latencies[:common]) if common else 0.0
    untraced_p50 = statistics.median(untraced_latencies[:common]) if common else 0.0

    return {
        "serving.cache_hit_rate": cache_hits / lookups if lookups else 0.0,
        "serving.memo_hit_rate": (
            1 - preprocess_misses / preprocess_calls if preprocess_calls else 0.0
        ),
        "serving.model_calls_per_request": (
            sum(c.get("model.calls", 0) for c in counters) / requests
        ),
        "serving.self_ms": get("serving")["self_ns"] / requests / ms,
        "serving.self_share": get("serving")["self_ns"] / total_ns,
        "preprocess.p50_ms": _pct(names("preprocess", "preprocess"), 0.50) / ms,
        "preprocess.p95_ms": _pct(names("preprocess", "preprocess"), 0.95) / ms,
        "preprocess.share": share("preprocess"),
        "preprocess.tokenize_ms": per_request_ms("preprocess.tokenize"),
        "preprocess.lemmatize_ms": per_request_ms("preprocess.lemmatize"),
        "preprocess.self_ms": get("preprocess")["self_ns"] / requests / ms,
        "index.lookup_per_request": len(names("index", "index.lookup")) / requests,
        "index.fuzzy_per_request": len(names("index", "index.fuzzy")) / requests,
        "index.fuzzy_p50_us": _pct(names("index", "index.fuzzy"), 0.50) / us,
        "index.fuzzy_share": sum(names("index", "index.fuzzy")) / total_ns,
        "index.text_values": text_values,
        "model.calls": sum(get("model")["extras"]),
        "model.p50_ms": _pct(get("model")["outer_ns"], 0.50) / ms,
        "model.share": share("model"),
        "postprocess.p50_us": _pct(get("postprocess")["outer_ns"], 0.50) / us,
        "postprocess.share": share("postprocess"),
        "canonical.calls": len(get("canonical")["outer_ns"]),
        "canonical.p50_us": _pct(get("canonical")["outer_ns"], 0.50) / us,
        "canonical.share": share("canonical"),
        "repair.p50_us": _pct(get("repair")["outer_ns"], 0.50) / us,
        "repair.share": share("repair"),
        "repair.clean": outcomes.count("clean"),
        "repair.repaired": outcomes.count("repaired"),
        "repair.abandoned": outcomes.count("abandoned"),
        "repair.budget_exhausted": outcomes.count("budget_exhausted"),
        "execute.p50_ms": _pct(get("execute")["outer_ns"], 0.50) / ms,
        "execute.p95_ms": _pct(get("execute")["outer_ns"], 0.95) / ms,
        "execute.share": share("execute"),
        "execute.calls_per_request": len(get("execute")["outer_ns"]) / requests,
        "planner.cache_hit_rate": (
            sum(s["cache_hits"] for s in sessions) / session_lookups
            if session_lookups
            else 0.0
        ),
        "setup.populate_s": setup_phases["populate"],
        "setup.index_s": setup_phases["index"],
        "setup.synthesis_s": setup_phases["synthesis"],
        "setup.fit_s": setup_phases["fit"],
        "trace.overhead_pct": (
            (traced_p50 / untraced_p50 - 1) * 100 if untraced_p50 else 0.0
        ),
        "trace.unattributed_share": max(
            0.0, 1 - sum(get("serving")["outer_ns"]) / 1e9 / measured_wall_s
        )
        if measured_wall_s > 0
        else 0.0,
    }


def reconcile(spans: list[tuple], services: dict) -> list[str]:
    """Outside spans against the program's own counters; mismatches."""
    stats = [service.stats() for service in services.values()]
    preprocess_spans = sum(1 for s in spans if s[NAME] == "preprocess" and s[OK])
    stage_calls = sum(
        s["stages"].get("preprocess", {}).get("calls", 0) for s in stats
    )
    model_items = sum(s[EXTRA] for s in spans if s[NAME] == "model" and s[OK])
    model_calls = sum(s["counters"].get("model.calls", 0) for s in stats)
    problems = []
    if preprocess_spans != stage_calls:
        problems.append(
            f"preprocess spans {preprocess_spans} != stages.preprocess.calls {stage_calls}"
        )
    if model_items != model_calls:
        problems.append(f"model span items {model_items} != counter model.calls {model_calls}")
    for name, snapshot in zip(services, stats):
        if not snapshot["accounting"]["consistent"]:
            broken = [i["identity"] for i in snapshot["accounting"]["identities"] if not i["ok"]]
            problems.append(f"{name}: accounting inconsistent: {broken}")
    return problems

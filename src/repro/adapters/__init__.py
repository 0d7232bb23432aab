"""Backend adapter SDK: pluggable database engines behind one protocol.

DBPal's pipeline is "fully pluggable" (paper §1) only if the layers
that execute SQL — the runtime, the eval harness, corpus synthesis, the
CLI — are written against an engine-neutral seam.  This package is that
seam:

* :class:`BackendAdapter` — the protocol (connect / execute /
  introspect / load);
* :class:`MemoryAdapter` — the in-memory reference engine
  (:mod:`repro.db`) behind the protocol;
* :class:`SqliteAdapter` — a real engine via the stdlib ``sqlite3``
  module: DDL + bulk load, deterministic execution of compiled SQL,
  and schema introspection with ``L5xx`` diagnostics.

Callers that take a backend by name (``DBPal(backend=...)``, ``repro db
explain --backend``) map ``"memory"`` and ``"sqlite"`` to these two
classes themselves.

The differential test suite (``tests/test_adapters_differential.py``)
holds every backend to bit-identical normalized results against the
reference engine.
"""

from repro.adapters.base import BackendAdapter, normalize_rows
from repro.adapters.memory import MemoryAdapter
from repro.adapters.sqlite3_adapter import (
    SqliteAdapter,
    compile_select,
    split_identifier,
)

__all__ = [
    "BackendAdapter",
    "MemoryAdapter",
    "SqliteAdapter",
    "compile_select",
    "normalize_rows",
    "split_identifier",
]

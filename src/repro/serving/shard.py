"""Shard-side of the horizontally sharded serving tier.

A *shard* is one OS process hosting a complete
:class:`~repro.serving.service.TranslationService` replica — its own
model, translation cache, micro-batcher, breaker, and metrics.  Shards
share nothing; the front door (:mod:`repro.serving.front_door`) owns
the consistent-hash ring and talks to each shard over a duplex
:func:`multiprocessing.Pipe` with small tuple messages:

=====================  =============================================
parent → shard          meaning
=====================  =============================================
``("translate", wid,    serve one question; reply ``("response",
nl, timeout)``          wid, ServingResponse)`` when done
``("stats", mid)``      reply ``("stats", mid, snapshot)`` where the
                        snapshot carries raw latency samples so the
                        parent can compute *merged* percentiles
``("cache_keys",        reply ``("cache_keys", mid, [key, ...])`` —
mid)``                  the shard-exclusivity audit surface
``("reload", mid,       build ``loader(*args, **kwargs)`` in a
loader, args,           background thread, atomically swap it in via
kwargs)``               :meth:`TranslationService.reload_model`, and
                        reply ``("reloaded", mid, generation)``; the
                        recv loop keeps serving throughout
``("stop",)``           drain the local service, reply
                        ``("stopped",)``, exit 0
=====================  =============================================

Responses are sent from service executor threads (translation) and the
reload thread as well as the recv loop, so every ``conn.send`` goes
through one lock — :class:`multiprocessing.connection.Connection` is
not safe for concurrent writers.

The child ignores ``SIGINT``: on Ctrl-C the whole foreground process
group receives the signal, and shard shutdown must stay parent-driven
(``stop`` message, then ``SIGKILL`` after the grace period) so the
drain is orderly.  A shard that dies any other way is detected by the
parent as EOF on the pipe and respawned.  The shard watches its parent
in turn: it receives through :func:`repro.core.workers.recv`, so when
the front door dies without a ``stop`` the shard stops its service and
exits within a second.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection
from typing import Callable

from repro.core.workers import recv
from repro.runtime.interface import DBPal
from repro.serving.config import ServingConfig


@dataclass(frozen=True)
class ShardSpec:
    """Recipe for building one shard's service replica.

    ``factory(*args, **kwargs)`` must return a fitted
    :class:`~repro.runtime.interface.DBPal`.  It runs *inside the child
    process* (each shard builds its own replica post-fork — nothing is
    shared), so it must be a module-level callable with picklable
    arguments.
    """

    factory: Callable[..., DBPal]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    config: ServingConfig = field(default_factory=ServingConfig)

    def build(self) -> DBPal:
        return self.factory(*self.args, **self.kwargs)

    def with_config(self, config: ServingConfig) -> "ShardSpec":
        return replace(self, config=config)


def shard_main(conn: Connection, shard_id: str, spec: ShardSpec) -> None:
    """Child-process entry point: serve until ``stop`` or parent death."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # parent is gone; nothing left to tell it

    try:
        nlidb = spec.build()
        from repro.serving.service import TranslationService

        service = TranslationService(nlidb, spec.config)
        service.start()
    except Exception as exc:  # noqa: BLE001 — report, don't traceback-spam
        send(("boot_error", f"{type(exc).__name__}: {exc}"))
        return
    generation = 0
    send(("ready", shard_id))

    def on_done(wid: int, future) -> None:
        try:
            response = future.result()
        except Exception as exc:  # noqa: BLE001 — defensive; submit never raises
            send(("response_error", wid, f"{type(exc).__name__}: {exc}"))
            return
        send(("response", wid, response))

    def do_reload(mid: int, loader, args, kwargs) -> None:
        nonlocal generation
        try:
            model = loader(*args, **kwargs)
            service.reload_model(model)
        except Exception as exc:  # noqa: BLE001
            send(("reload_error", mid, f"{type(exc).__name__}: {exc}"))
            return
        generation += 1
        send(("reloaded", mid, generation))

    try:
        while True:
            try:
                message = recv(conn, parent)
            except (EOFError, OSError):
                break  # parent died; die with it
            kind = message[0]
            if kind == "translate":
                _, wid, nl, timeout = message
                future = service.submit(nl, timeout)
                future.add_done_callback(lambda f, wid=wid: on_done(wid, f))
            elif kind == "stats":
                snap = service.stats(include_samples=True)
                snap["generation"] = generation
                send(("stats", message[1], snap))
            elif kind == "cache_keys":
                keys = service.cache.keys() if service.cache is not None else []
                send(("cache_keys", message[1], keys))
            elif kind == "reload":
                _, mid, loader, args, kwargs = message
                # Background thread: the recv loop must keep dispatching
                # translations while the new model is being built — that
                # is the whole point of a *rolling* reload.
                threading.Thread(
                    target=do_reload,
                    args=(mid, loader, args, kwargs),
                    name=f"repro-shard-{shard_id}-reload",
                    daemon=True,
                ).start()
            elif kind == "stop":
                break
    finally:
        service.stop()
        send(("stopped",))

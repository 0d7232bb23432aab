"""Admission queue + worker pool with micro-batching.

Requests enter a bounded queue; worker threads drain it in *micro
batches*: a worker blocks for the first request of a batch, then takes
whatever else is already queued, up to ``max_batch_size``, without
waiting for more, and hands the whole batch to the processing callback
(which calls :meth:`~repro.neural.base.TranslationModel.translate_batch`
once).  A lone request therefore never waits for company; under load,
requests queue up while the model runs, so batches still form.

The batcher is deliberately policy-free: caching, single-flight
coalescing, circuit breaking, and fallbacks all live in
:mod:`repro.serving.service`; this module only moves requests from the
queue into batches without losing any, including during shutdown.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServingError

#: Worker shutdown sentinel (one per worker is enqueued by ``stop``).
_STOP = object()


@dataclass
class BatchRequest:
    """One queued translation request.

    ``future`` resolves to whatever the processing callback decides —
    the batcher itself only guarantees it resolves (an exception is set
    if the callback dies), so frontend waiters can never hang forever.
    """

    key: str
    model_input: str
    future: Future = field(default_factory=Future)


class MicroBatcher:
    """Bounded admission queue drained by micro-batching workers."""

    def __init__(
        self,
        process_batch: Callable[[list[BatchRequest]], None],
        workers: int = 2,
        max_batch_size: int = 8,
        queue_capacity: int = 256,
    ) -> None:
        self._process_batch = process_batch
        self._workers_n = workers
        self._max_batch = max_batch_size
        self._queue: queue.Queue = queue.Queue(maxsize=queue_capacity)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        with self._lock:
            if self._running:
                return
            self._running = True
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serving-{i}",
                    daemon=True,
                )
                for i in range(self._workers_n)
            ]
            for thread in self._threads:
                thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Drain and join the workers (queued requests still complete)."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(_STOP)
        for thread in threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: BatchRequest) -> bool:
        """Enqueue one request; ``False`` means the queue is full (shed)."""
        if not self._running:
            raise ServingError("batcher is not running (call start() first)")
        try:
            self._queue.put_nowait(request)
            return True
        except queue.Full:
            return False

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _gather_batch(self) -> list[BatchRequest] | None:
        """Block for one request, then add the requests already queued.

        Returns ``None`` when a stop sentinel arrives with no batch in
        progress; a sentinel arriving mid-gather is re-queued so sibling
        workers also wind down.
        """
        first = self._queue.get()
        if first is _STOP:
            return None
        batch = [first]
        while len(batch) < self._max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                self._queue.put(_STOP)
                break
            batch.append(item)
        return batch

    def _worker_loop(self) -> None:
        while True:
            batch = self._gather_batch()
            if batch is None:
                return
            try:
                self._process_batch(batch)
            except BaseException as exc:  # noqa: BLE001 — never hang waiters
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)

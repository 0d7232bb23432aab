"""One worker-process lifecycle, shared by synthesis and serving.

The synthesis supervisor (:mod:`repro.core.parallel`) and the sharded
serving front door (:mod:`repro.serving.front_door`) start, watch and
reap their child processes here; retry, quarantine, re-dispatch and
respawn budgets stay with each tier.  A child that dies is seen by its
parent as EOF on the pipe.  The reverse needs :func:`recv`: under
``fork`` every child inherits the parent's end of its own pipe (and of
its older siblings' pipes), so a killed parent closes no pipe and no
EOF comes; the child checks its parent pid instead.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable

#: How often a child waiting for a message checks that its parent lives.
_PARENT_CHECK_SECONDS = 1.0


def spawn(
    target: Callable[..., None], *args, name: str
) -> tuple[BaseProcess, Connection]:
    """Start ``target(conn, *args)`` in a daemon process named ``name``.

    Returns the process and the parent's end of its duplex pipe.
    """
    parent_conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=target, args=(child_conn, *args), name=name, daemon=True
    )
    process.start()
    child_conn.close()  # parent keeps only its end
    return process, parent_conn


def recv(conn: Connection, parent_pid: int):
    """Child side: the next message, or :class:`EOFError` once the
    process whose pid was ``parent_pid`` is no longer its parent."""
    while not conn.poll(_PARENT_CHECK_SECONDS):
        if os.getppid() != parent_pid:
            raise EOFError("parent process exited")
    return conn.recv()


def reap(process: BaseProcess, conn: Connection) -> None:
    """Parent side: close the pipe, kill the process if alive, join it."""
    conn.close()
    if process.is_alive():
        process.kill()
    process.join()

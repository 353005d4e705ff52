"""Forked shares of one job: the worker-count rule and a pipe per child.

``synth_trainer.compare`` trains its modes this way,
``calibration.reports_from_csv`` parses and counts a records file (each
share sends a per-class count table, not its columns) and
``label_uncertainty.evaluate_tracks`` decodes, gates and evaluates a tracks
document. The last two run every file through ``run_shares``, with one
share (run here, with no pipe and no fork) where the file is small or
there is one CPU. All three keep one failure policy: ``run_shares`` gives
every share's value or ``None``, and on ``None`` the caller does the whole
job in one pass in this process, so its results and errors are those of
that pass.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from typing import BinaryIO, Callable, NoReturn, TypeVar

T = TypeVar("T")


def workers(most: int) -> int:
    """How many shares to run at once: one per CPU in the process's affinity
    mask, at most ``most`` and at least 1; 1 outside Linux (no
    ``os.sched_getaffinity``) or while another Python thread runs, since a
    forked child holds only the calling thread."""
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return max(1, min(most, len(os.sched_getaffinity(0))))
    return 1


def run_shares(run: Callable[[int], T], n: int) -> list[T] | None:
    """``[run(0), ..., run(n - 1)]``, or ``None`` if a pipe or a fork cannot
    be had, a share raises, or a child ends without sending its value in full.

    Share 0 runs in this process once the children are forked, so with
    ``n == 1`` no pipe is opened and nothing is forked. Each other share runs
    in a child forked from it, which sees the caller's data as it was at the
    fork, pickles its one value down a private pipe and leaves through
    ``os._exit``. A child whose pipe has been read to its end is reaped, not
    killed: it has closed its end and is leaving, and where SIGCHLD is
    ignored it may have reaped itself and freed its pid for reuse. Any
    other child is killed and then reaped. No child outlives the call.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for k in range(1, n):
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                return None
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                return None
            if pid == 0:
                _send(run, k, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        try:
            values = [run(0)]
        except Exception:  # the caller's one pass raises it again
            return None
        while children:
            pid, pipe = children[0]
            # A child that failed sent nothing, or part of a value if it died writing.
            with pipe, contextlib.suppress(EOFError, pickle.UnpicklingError):
                values.append(pickle.load(pipe))
            children.pop(0)
            with contextlib.suppress(ChildProcessError):  # already reaped: SIGCHLD is ignored
                os.waitpid(pid, 0)
            if len(values) + len(children) < n:  # this child's value is missing
                return None
        return values
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _send(run: Callable[[int], object], k: int, write_fd: int) -> NoReturn:
    """In a forked child: pickle ``run(k)`` down the pipe, then leave through
    ``os._exit`` (status 0 once it is sent), never returning."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            # Pickled whole first, so a value that cannot be pickled sends no bytes.
            pipe.write(pickle.dumps(run(k)))
        status = 0
    finally:
        os._exit(status)

"""Forked shares of one job: the worker-count rule and a pipe per child.

``synth_trainer.compare`` trains its modes this way,
``calibration.records_from_csv`` parses a large records file and
``label_uncertainty.evaluate_tracks`` decodes, gates and evaluates a large
tracks document. The first share runs in the calling process and
each other share in a child forked from it, which sees the caller's data as it
was at the fork, pickles its records down a private pipe and leaves through
``os._exit``. No child outlives ``run_shares``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from typing import Callable, Iterator, NoReturn, Sequence


def workers(most: int) -> int:
    """How many shares to run at once: one per CPU in the process's affinity
    mask, at most ``most``; 1 outside Linux (no ``os.sched_getaffinity``) or
    while another Python thread runs, since a forked child holds only the
    calling thread."""
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return min(most, len(os.sched_getaffinity(0)))
    return 1


def run_shares(
    run: Callable[[range], Iterator[tuple[int, object]]], shares: list[range], tasks: Sequence[str]
) -> list[tuple[int, object]]:
    """The records ``run`` gives for every share: the first share's from this
    process, each other's from a forked child, or from here if the fork fails.

    A record is ``(i, value)`` for task ``i`` of its share, in the share's
    order; a share that fails gives its error as the value and stops. A child
    that ends before its share is done, without an error to report, gives
    ``(i, ChildProcessError)`` for the first task ``i`` it did not report,
    naming ``tasks[i]`` and the child's exit status or signal, or saying that
    its status is unknown where the child reaped itself (SIGCHLD ignored); a
    record cut short by the child's death counts as not reported. Every child
    is reaped before the call returns or raises, and killed first if it raises.
    """
    children = []
    here = shares[:1]
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                here.append(share)
                continue
            if pid == 0:
                send_records(run(share), write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), share))
        records = [record for share in here for record in run(share)]
        while children:
            pid, pipe, share = children[0]
            got = []
            # A child that dies partway through a record leaves it truncated.
            with pipe, contextlib.suppress(EOFError, pickle.UnpicklingError):
                while True:
                    got.append(pickle.load(pipe))
            try:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            except ChildProcessError:  # already reaped: this process ignores SIGCHLD
                code = None
            children.pop(0)
            records += got
            if len(got) < len(share) and not (got and isinstance(got[-1][1], Exception)):
                if code is None:
                    ended = "ended with an unknown status"
                else:
                    ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                i = share[len(got)]
                records.append((i, ChildProcessError(f"the worker process {tasks[i]} {ended}")))
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return records


def send_records(records: Iterator[tuple[int, object]], write_fd: int) -> NoReturn:
    """In a forked child: pickle each record down the pipe as it comes, then
    leave through ``os._exit`` (status 0 once all are sent), never returning."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            for record in records:
                # Pickled whole first, so a record that cannot be pickled sends no bytes.
                pipe.write(pickle.dumps(record))
                pipe.flush()
        status = 0
    finally:
        os._exit(status)

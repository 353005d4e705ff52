"""Hypothesis profiles, and the helpers of the forked-share tests.

``ci`` replays the same examples on every run and prints a reproduction blob
for each failure, so a failure seen in a CI log can be replayed locally with
``@reproduce_failure``. Select it with ``HYPOTHESIS_PROFILE=ci``; without it
the default profile applies.

The tests of ``compare()``, ``reports_from_csv`` and ``evaluate_tracks``,
which fork, import their helpers from here. Each suite checks the one
failure policy of a forked split on the same seven ``SHARE_FAILURES``,
injected by ``share_failure``: whatever fails (a child that exits, is
killed, raises or sends part of its value, a refused fork or pipe, a child
that reaps itself), the result is that of the job done in one pass, and no
child outlives the call.
"""

import contextlib
import errno
import os
import pickle
import signal

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

SHARE_FAILURES = ["exit", "kill", "raise", "truncated", "refused fork", "refused pipe", "SIGCHLD ignored"]


def cpus(n):
    """A stand-in for os.sched_getaffinity: a mask of n CPUs."""
    return lambda pid: set(range(n))


def refuse_fork():
    raise OSError("fork refused")


@contextlib.contextmanager
def share_failure(failure, module, name, fails=lambda *args, **kwargs: True):
    """Inject one of ``SHARE_FAILURES`` into the forked shares of a split.

    ``module.name`` is the function a share calls. In a child, a call for
    which ``fails`` holds exits, is killed or raises; for "truncated" the
    child pickles half its value. "refused fork" and "refused pipe" make
    ``os.fork`` and ``os.pipe`` raise ``OSError``, and "SIGCHLD ignored" has
    the children reap themselves. Yields the list that gets one item per
    call of ``module.name`` in this process. Everything is put back on exit.
    """
    parent, calls = os.getpid(), []
    real, real_dumps = getattr(module, name), pickle.dumps

    def share(*args, **kwargs):
        if os.getpid() == parent:
            calls.append(None)
        elif fails(*args, **kwargs):
            if failure == "exit":
                os._exit(3)
            elif failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif failure == "raise":
                raise OSError("share failed")
        return real(*args, **kwargs)

    def refuse_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    def dumps(obj, *args, **kwargs):
        # In a child, half its value: as if it died partway through the write.
        data = real_dumps(obj, *args, **kwargs)
        return data[: len(data) // 2] if os.getpid() != parent and failure == "truncated" else data

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, share)
        patch.setattr(pickle, "dumps", dumps)
        if failure == "refused fork":
            patch.setattr(os, "fork", refuse_fork)
        if failure == "refused pipe":
            patch.setattr(os, "pipe", refuse_pipe)
        if failure == "SIGCHLD ignored":
            # A child reaps itself, so waiting for it fails with ECHILD.
            previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            yield calls
        finally:
            if failure == "SIGCHLD ignored":
                signal.signal(signal.SIGCHLD, previous)


def assert_all_children_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

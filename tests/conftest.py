"""Hypothesis profiles, and the helpers of the forked-share tests.

``ci`` replays the same examples on every run and prints a reproduction blob
for each failure, so a failure seen in a CI log can be replayed locally with
``@reproduce_failure``. Select it with ``HYPOTHESIS_PROFILE=ci``; without it
the default profile applies.

The tests of ``compare()``, ``records_from_csv`` and ``evaluate_tracks``,
which fork, import ``cpus``, ``refuse_fork``, ``refuse_pipe`` and
``assert_all_children_reaped`` from here. Each suite checks the one failure
policy of a forked split: whatever fails (a child that exits, is killed,
raises or sends part of its value, a refused fork or pipe), the result is
that of the job done in one pass, and no child outlives the call.
"""

import errno
import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def cpus(n):
    """A stand-in for os.sched_getaffinity: a mask of n CPUs."""
    return lambda pid: set(range(n))


def refuse_fork():
    raise OSError("fork refused")


def refuse_pipe():
    raise OSError(errno.EMFILE, "Too many open files")


def assert_all_children_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

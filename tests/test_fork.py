"""Tests for the worker-count rule and the lone share of ``_fork``."""

import os
import threading

import pytest

from conftest import cpus
from lkld import _fork


class TestWorkers:
    @pytest.mark.parametrize("most, n_cpus, want", [(0, 4, 1), (0, 1, 1), (1, 4, 1), (3, 4, 3), (8, 2, 2), (8, 1, 1)])
    def test_one_per_cpu_at_most_most_and_at_least_one(self, monkeypatch, most, n_cpus, want):
        monkeypatch.setattr(os, "sched_getaffinity", cpus(n_cpus))
        assert _fork.workers(most) == want

    def test_one_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", cpus(4))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _fork.workers(8) == 1
        finally:
            stop.set()
            thread.join(timeout=60)
        assert _fork.workers(8) == 4


class TestLoneShare:
    @pytest.fixture(autouse=True)
    def no_pipe_or_fork(self, monkeypatch):
        monkeypatch.setattr(os, "pipe", lambda: pytest.fail("opened a pipe"))
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))

    def test_runs_here_with_no_pipe_or_fork(self):
        ran = []
        assert _fork.run_shares(lambda k: ran.append((k, os.getpid())) or "value", 1) == ["value"]
        assert ran == [(0, os.getpid())]

    def test_a_lone_share_that_raises_gives_none(self):
        def run(k):
            raise ValueError("share failed")

        assert _fork.run_shares(run, 1) is None

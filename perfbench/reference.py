"""Machine-speed sampling, so that timings can be scaled to a reference speed.

The benchmark runs on a few cores of a shared host, and other tenants slow
those cores, CPU time included, by up to 1.6x for minutes at a time; a
run's raw times move with them. So while an operation is timed, a
``Sampler`` interrupts it every ``interval`` seconds (``SIGALRM``) and times
one pass of a fixed pure-Python loop on the same thread. The pass calls
nothing of ``lkld``, so a change to the library does not move it, but a
slow spell of the host does. The operation's time, less the passes, is
then reported as

    seconds * REF_S / (harmonic mean of the pass times)

that is, in seconds on a machine that runs one pass in ``REF_S`` seconds.
The harmonic mean is the right one: the passes sample the pass time at
even steps of wall time, and the operation's speed is the time average of
the reciprocal. Raw times are kept beside the scaled ones.

Stdlib only: the import probe loads this module before it times
``import lkld.cli``, so it must not pull in anything the library imports.
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

# A fixed constant near the time of one pass on the machine the benchmark
# was written on (2-vCPU Xeon, Python 3.11; 0.21-0.35 ms as its host's load
# varied), so scaled times read close to seconds on that machine.
REF_S = 0.00025
INTERVAL_S = 0.1

_D = 128
_ROUNDS = 40
_X = [0.5 * j for j in range(_D)]
_W = [0.01 * j for j in range(_D)]


def _pass() -> float:
    loc = 0.0
    for _ in range(_ROUNDS):
        for j in range(_D):
            loc += _W[j] * _X[j]
    return loc


class Sampler:
    """Times reference passes during a ``with`` block.

    One pass runs on entry, before the block, so that there is always a
    sample; the rest run from the timer inside the block, and their total
    wall and CPU time (``inside_wall``, ``inside_cpu``) is what the caller
    subtracts from its own measurement of the block.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.inside_wall = 0.0
        self.inside_cpu = 0.0
        self._previous = None

    def _sample(self) -> tuple[float, float]:
        w0, c0 = perf_counter(), thread_time()
        _pass()
        wall, cpu = perf_counter() - w0, thread_time() - c0
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall, cpu

    def _tick(self, signum, frame) -> None:
        wall, cpu = self._sample()
        self.inside_wall += wall
        self.inside_cpu += cpu

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds: float, cpu: bool = False) -> float:
        """``seconds`` at reference speed, gauged by the wall (or CPU) pass times."""
        times = self.cpus if cpu else self.walls
        return seconds * REF_S * sum(1.0 / t for t in times) / len(times)

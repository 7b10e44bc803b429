"""The machine's speed, measured beside the program's, for normalised times.

The shared virtual machine the benchmark was built on runs up to 1.5x
slower in phases that last from seconds to many minutes (README, Noise),
so raw wall times of the same code differ by more than a regression
bound between runs.  The benchmark therefore times a fixed piece of
reference work (`snippet`: pure-Python `Fraction` arithmetic and dict and
list operations, the stdlib only, nothing of the program) while the
program runs, and reports time normalised to a reference speed:

    normalised = CPU time * REFERENCE_S * mean(1 / snippet time)

`REFERENCE_S` fixes the scale; it is not a wall second (README,
"Normalised time"), so compare normalised times only with each other.
A change to the program moves its wall time and leaves the snippet
alone, so it moves normalised time by the same share; a slow phase of
the machine slows both and cancels.

During a timed operation a `Sampler` runs the snippet from a SIGALRM
handler every `INTERVAL_S` of wall time, in the program's own thread, so
the samples cover the whole operation; the handler's own time is taken
out of the operation's.  The mean of 1/snippet time weights each sample
by the speed it shows, so a sample stretched by the process being
descheduled counts for little; the operation's time is its process CPU
time for the same reason, which leaves out time spent descheduled.  The
product measures how fast the process runs while it runs.  Set-up, too
short for a sampler, is normalised by `rate` bursts just before and
after it.
"""

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0003  # the snippet's time in a fast phase (2 vCPU VM, Python 3.11)
INTERVAL_S = 0.02


def snippet():
    """The fixed reference work: about 0.3 ms."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[i] = (i * 7919) % 101
    return acc, sorted(table.values())


def _timed_snippet():
    start = time.perf_counter()
    snippet()
    return time.perf_counter() - start


def rate(n=30):
    """Mean of 1/snippet time over `n` snippets run now."""
    return sum(1.0 / _timed_snippet() for _ in range(n)) / n


class Sampler:
    """Runs the snippet every INTERVAL_S of wall time until stopped."""

    def __init__(self):
        self.samples = []
        self.handler_cpu = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        cpu = time.process_time()
        self.samples.append(_timed_snippet())
        self.handler_cpu += time.process_time() - cpu

    def start(self):
        self.samples = []
        self.handler_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, elapsed, elapsed_cpu):
        """(wall time, CPU time, normalised time, relative speed) of an
        operation that took `elapsed` seconds of wall time and
        `elapsed_cpu` of the process's CPU time in all; the handler's own
        time is taken out of both."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        wall = elapsed - sum(self.samples)
        cpu = elapsed_cpu - self.handler_cpu
        inverse = ([1.0 / s for s in self.samples] if self.samples
                   else [rate(10)])
        speed = REFERENCE_S * sum(inverse) / len(inverse)
        return wall, cpu, cpu * speed, speed

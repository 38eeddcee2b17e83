"""The machine's speed, sampled while a step works, and times expressed at
a fixed reference speed.

On a small shared virtual machine the speed at which one pure-Python
thread runs swings by up to a factor of two within seconds and drifts
from minute to minute.  No steal time shows, and CPU time tracks wall
time, so the processor itself runs slower, and neither clock can tell.
A benchmark that reports raw seconds then measures the neighbours.

A ``Speedometer`` interrupts the step every ``INTERVAL_S`` of wall time
(``SIGALRM``) and times a fixed pure-Python kernel of the kind of work
the package does: building tuples, and looking them up in dicts and
sets.  The handler's own wall and CPU time are kept out of the step's
clocks (``wall`` and ``cpu``).  A span of the step is then expressed in
reference seconds: its length on those clocks, times
``REFERENCE_KERNEL_S`` over the mean kernel time sampled within
``WINDOW_S`` of the span.  The mean, because the span's time is the sum
of its slow and fast stretches.  A slower program takes more reference
seconds; a slower machine does not.

The kernel never calls into the package, so a change to the package
cannot change the yardstick.
"""

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.1
WINDOW_S = 0.5
# The kernel's time at the reference speed: about its time in the
# machine's fast stretches, on a 2-vCPU Intel Xeon virtual machine with
# Python 3.11.7.
REFERENCE_KERNEL_S = 0.0025

_PERMS = tuple(tuple((k * i + s) % 13 for i in range(13))
               for k in range(1, 13) for s in (0, 3, 5, 8))


def kernel():
    """A fixed piece of pure-Python work: a table of permutation
    products, its images as a set, and frozensets of their prefixes."""
    table = {}
    for a in _PERMS:
        for b in _PERMS:
            table[a, b] = tuple([a[i] for i in b])
    images = set(table.values())
    return len(images) + len({frozenset(c[:6]) for c in images})


class Speedometer:
    def __init__(self):
        self._at = array("d")
        self._kernel_s = array("d")
        self._paused_wall = 0.0
        self._paused_cpu = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        done = time.perf_counter()
        self._at.append(wall)
        self._kernel_s.append(done - wall)
        self._paused_cpu += time.process_time() - cpu
        self._paused_wall += time.perf_counter() - wall
        self._busy = False

    def start(self, samples=10, timer=True):
        """Take ``samples`` samples now, then, with ``timer``, one every
        ``INTERVAL_S`` until ``stop``."""
        self.sample(samples)
        if not timer:
            return
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, samples=10):
        """Stop the timer and take ``samples`` samples more."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample(samples)

    def sample(self, count):
        for _ in range(count):
            self._sample()

    def wall(self):
        """Wall seconds, not counting the sampling."""
        return time.perf_counter() - self._paused_wall

    def cpu(self):
        """CPU seconds of the process, not counting the sampling."""
        return time.process_time() - self._paused_cpu

    def factor(self, start, end):
        """Reference seconds per second of the span from ``start`` to
        ``end``, two readings of ``time.perf_counter``."""
        low = bisect_left(self._at, start - WINDOW_S)
        high = bisect_right(self._at, end + WINDOW_S)
        window = self._kernel_s[low:high] or self._kernel_s
        return REFERENCE_KERNEL_S / statistics.fmean(window)

    def kernel_ms(self):
        """The mean kernel time over the whole step, in milliseconds."""
        return statistics.fmean(self._kernel_s) * 1000


class Span:
    """Wall and CPU time of the work inside ``with``, at the reference
    speed (``wall_s``, ``cpu_s``) and as measured (``raw_wall_s``)."""

    def __init__(self, meter):
        self.meter = meter

    def __enter__(self):
        meter = self.meter
        self._at = time.perf_counter()
        self._cpu = meter.cpu()
        self._wall = meter.wall()
        return self

    def __exit__(self, *exc):
        meter = self.meter
        self.raw_wall_s = meter.wall() - self._wall
        self.raw_cpu_s = meter.cpu() - self._cpu
        self.end = time.perf_counter()

    def settle(self):
        """Convert to reference seconds, once the samples after the span
        are in."""
        factor = self.meter.factor(self._at, self.end)
        self.wall_s = self.raw_wall_s * factor
        self.cpu_s = self.raw_cpu_s * factor
        return self

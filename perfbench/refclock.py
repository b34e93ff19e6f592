"""A clock that counts in units of a fixed reference computation.

Other tenants of the host slow this machine by up to 1.8x for seconds to
minutes at a time (README.md has the measurements), and wall time swings
with them.  While a `RefClock` is active, a timer signal every INTERVAL
seconds runs a short reference kernel that shares no code with mdistinct
and times it.  Between two samples the clock advances by wall time divided
by the latest kernel time, so an interval reads as "how many reference
kernels would have run in it": the host's speed at each moment cancels out.
Time spent in the signal handler is excluded from both readings, so the
wall reading is the time the program had, not counting the sampler.

The handler runs in the main thread between bytecodes; it starts no thread
or process.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.05
# The reference kernel's time on the unloaded 2-core Xeon host this
# benchmark was written on (0.41-0.49 ms when no other tenant competed,
# 0.7-0.9 ms when one did).  Multiplying reference units by it gives
# seconds as that host gives them unloaded.
UNLOADED_KERNEL_S = 0.00045


def reference_kernel() -> None:
    """About half a millisecond of Fraction arithmetic and dict updates,
    the same kind of work as the program's inner loops."""
    total, tally = Fraction(0), {}
    for i in range(1, 201):
        total += Fraction(1, i % 97 + 1)
        tally[i % 113] = tally.get(i % 113, 0) + 1


def _kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class RefClock:
    def __init__(self):
        self.samples: list[float] = []
        # (reference units so far, wall time they were counted to, latest
        # kernel seconds, handler seconds so far); replaced whole so that a
        # reader interrupted by the handler never sees a mix
        self._state = (0.0, 0.0, 1.0, 0.0)
        self._previous = None

    def __enter__(self) -> "RefClock":
        kernel = _kernel_seconds()
        self._state = (0.0, time.perf_counter(), kernel, 0.0)
        self.samples.append(kernel)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        enter = time.perf_counter()
        units, since, kernel, handler_s = self._state
        units += (enter - since) / kernel
        kernel = _kernel_seconds()
        leave = time.perf_counter()
        self._state = (units, leave, kernel, handler_s + leave - enter)
        self.samples.append(kernel)

    @property
    def handler_s(self) -> float:
        return self._state[3]

    def read(self) -> tuple[float, float]:
        """(wall seconds, reference units) now; subtract two readings to
        time an interval both ways."""
        units, since, kernel, handler_s = self._state
        now = time.perf_counter()
        return now - handler_s, units + (now - since) / kernel

    def since(self, mark: tuple[float, float]) -> tuple[float, float]:
        wall, units = self.read()
        return wall - mark[0], units - mark[1]

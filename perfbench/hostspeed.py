"""The host's current speed, read from a fixed reference loop.

On a shared machine the same pure-Python code runs 1.3-2x slower in phases
that last from seconds to minutes, and a run of tens of seconds may fall in
any mix of them.  The benchmark therefore runs a fixed reference loop, which
does not depend on the program, between the program's operations: before
and after each timed piece of work and, inside a long one, about every
INTERVAL_S at a point where one operation has ended and the next has not
begun.  Inside a single long call (a batch job) a timer signal takes the
samples instead, between two bytecodes of whatever the program is doing.  A timed interval is measured without the samples taken inside it,
and each stretch of it between two samples is scaled by REFERENCE_US over
the mean loop time of the samples at its two ends.  A scaled time reads as
the time the interval would have taken with the host at the reference
speed; a change in the program moves it exactly as much as the raw time.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from contextlib import contextmanager
from bisect import bisect_left, bisect_right

# best time of one reference loop on a quiet phase of a 2-vCPU x86_64 VM
# (Intel Xeon) with CPython 3.11.7; only the scale of the reported times
# depends on it
REFERENCE_US = 1100.0
INTERVAL_S = 0.1  # inside a long piece of work, from one sample to the next
REPEATS = 3  # a sample is the best of this many loops

_KEYS = [f"k{i}" for i in range(20_000)]
_ORDER = random.Random(0).sample(range(20_000), 2_000)


def reference_loop() -> int:
    """Dicts, tuples, frozensets and a sort over scattered keys: the kind of
    work the program does, in a fixed amount."""
    table = {}
    for j in _ORDER:
        key = _KEYS[j]
        table[key] = (key, j, frozenset((j, j + 1)))
    return len(sorted(table.values(), key=lambda row: row[1]))


class HostSpeed:
    """Reference-loop samples: `pauses[i]` is the interval the i-th sample
    took out of the program's time, `loop_us[i]` its best loop time."""

    def __init__(self) -> None:
        self.pauses: list[tuple[int, int]] = []
        self.loop_us: list[float] = []
        self._ends: list[int] = []

    def due(self) -> bool:
        return time.perf_counter_ns() - self._ends[-1] >= INTERVAL_S * 1e9 if self._ends else True

    @contextmanager
    def on_timer(self):
        """Sample about every INTERVAL_S while the block runs."""

        def on_alarm(signum, frame):
            self.sample()
            # one-shot and re-armed here, so that samples never overlap
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def sample(self) -> None:
        clock = time.perf_counter_ns
        collecting = gc.isenabled()
        gc.disable()  # the loop frees all it allocates; collect nothing here
        start = clock()
        best = None
        for _ in range(REPEATS):
            t0 = clock()
            reference_loop()
            elapsed = clock() - t0
            best = elapsed if best is None else min(best, elapsed)
        end = clock()
        if collecting:
            gc.enable()
        self.pauses.append((start, end))
        self._ends.append(end)
        self.loop_us.append(best / 1000)

    def scaled_us(self, start_ns: int, end_ns: int) -> float:
        """The interval's length less the samples taken in it, each stretch
        between two samples scaled by the samples at its ends."""
        return self._length_us(start_ns, end_ns, True)

    def raw_us(self, start_ns: int, end_ns: int) -> float:
        """The interval's length less the samples taken in it."""
        return self._length_us(start_ns, end_ns, False)

    def _length_us(self, start_ns: int, end_ns: int, scaled: bool) -> float:
        first = bisect_right(self._ends, start_ns)  # first sample ending after start
        last = bisect_left(self._ends, end_ns)  # samples first..last-1 lie inside
        total = 0.0
        begin = start_ns
        for i in range(first, last + 1):
            stop = self.pauses[i][0] if i < last else end_ns
            stretch = (stop - begin) / 1000
            if scaled:
                before = self.loop_us[max(i - 1, 0)]
                after = self.loop_us[min(i, len(self.loop_us) - 1)]
                stretch *= REFERENCE_US * 2 / (before + after)
            total += stretch
            if i < last:
                begin = self.pauses[i][1]
        return total

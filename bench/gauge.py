"""A speed gauge for a shared machine.

On the host the benchmark was developed on (2 vCPUs of a shared Intel Xeon
machine), the same pure-Python loop runs up to 1.5x slower for seconds or
minutes at a time. The changes come from outside the process: its CPU time
grows with its wall time, and the host's counters are not visible. A run that
falls in a slow stretch would read as a regression of the program.

So the serving process times a fixed probe of the benchmark's own code
(`probe`) 10 times a second while it serves. The probe never changes with the
library, so its duration tracks only the machine's speed. A timed request is
reported as

    (wall time - probe time inside it) * REF_S * mean(1 / probe duration)

over the probes taken from 0.5 s before the request to 0.5 s after it. That is
the time the request would take on a machine where the probe takes REF_S: the
host above, in its fast state. run.py prints the wall times too.

    gauge = Gauge(); gauge.start(); ...; gauge.stop()
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

from algebra import Block

REF_S = 0.36e-3         # the probe's duration in the fast state of the reference machine
INTERVAL_S = 0.1        # one probe every 100 ms of wall time while serving
WINDOW_S = 0.5          # probes this close to a request set its speed
MAX_STRETCH = 1.5       # a stream of S reference seconds stops after at most this x S of wall

_ROW = (3, 7, 0, 5, 8, 1, 6, 2, 4)
_TABLE = (_ROW,) * len(_ROW)


def probe():
    """Fixed work resembling the library's: automorphisms of a small abelian
    group from its addition table, a braid-style walk over a table and a sort."""
    auts = Block((2, 2)).automorphisms()
    s, n = _TABLE, len(_TABLE)
    agree = sum(1 for x in range(n) for y in range(n) for z in range(n)
                if s[x][s[y][z]] == s[s[x][y]][s[x][z]])
    return len(auts), agree, sorted((i * 7919) % 1009 for i in range(600))


def timed_probe():
    """(midpoint, duration, cost): the probe runs twice with the garbage
    collector off and the second, warm run is timed, so that neither the
    serving process's heap nor its cache footprint sets the duration."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    probe()
    t1 = perf_counter()
    probe()
    t2 = perf_counter()
    if enabled:
        gc.enable()
    return (t1 + t2) / 2, t2 - t1, t2 - t0


class Gauge:
    """Probes the machine every INTERVAL_S from a SIGALRM handler, in the
    serving process itself, so the probe shares the request's core and time."""

    def __init__(self):
        self.times, self.durations = [], []
        self.spent = 0.0            # probe time so far, to take out of latencies

    def _sample(self, *_):
        mid, dur, cost = timed_probe()
        self.times.append(mid)
        self.durations.append(dur)
        self.spent += cost

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def elapsed(self, start, spent):
        """Seconds at the reference speed since `start`, when `spent` was the
        probe time so far; the speed is that of the probes since then."""
        now = perf_counter()
        speed = speed_factor(self.times, self.durations, start, now, window=0.0)
        return (now - start - (self.spent - spent)) * speed

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()


def speed_factor(times, durations, start, end, window=WINDOW_S):
    """REF_S * mean(1 / probe duration) over the probes near [start, end]."""
    lo, hi = bisect_left(times, start - window), bisect_right(times, end + window)
    near = durations[lo:hi] or durations
    return REF_S * sum(1 / d for d in near) / len(near)

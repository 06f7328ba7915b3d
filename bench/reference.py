"""Host speed, measured with a fixed reference load.

The benchmark shares a few cores of a busy host, whose speed for this
process drifts by up to half for stretches of a second to tens of
seconds.  Those stretches are shorter than a run, so every figure of a
run moves with them, parent and change alike.

A probe times a fixed pure-Python load that does not touch the engine:
tuple sorting, dict updates and bisection over a small working set; a
leapfrog intersection of sorted lists through cursor objects, the
engine's own kind of work; and random lookups in a dict too large for
the core's own caches.  While
``running``, an interval timer interrupts the benchmark every
PROBE_EVERY seconds to probe, so long measurements see probes too.  A
measurement over ``[t0, t1]`` is split at the probes inside it; the
probes' own time is left out, and each piece ``d`` between two probes
counts as ``d * REFERENCE_NS / p``, where ``p`` is the mean of the
probe before the piece and the probe after.  REFERENCE_NS is about
what a probe takes on a 2-vCPU 2.0 GHz Xeon VM in its quieter
stretches, so there the scaled figures read about as measured.

The engine cannot change the probe, so a change to the engine moves
scaled figures as it moves measured ones.

This module does not import the engine.
"""

import bisect
import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

REFERENCE_NS = 15_000_000  # a probe on the reference machine
PROBE_EVERY = 0.2  # s of benchmark time between timed probes


class _Cursor:
    __slots__ = ("keys", "i")

    def __init__(self, keys):
        self.keys = keys
        self.i = 0

    def key(self):
        return self.keys[self.i]

    def at_end(self):
        return self.i >= len(self.keys)

    def next(self):
        self.i += 1

    def seek(self, k):
        self.i = bisect.bisect_left(self.keys, k, self.i)


def _leapfrog(lists, out):
    """Count each key common to all ``lists`` into ``out``."""
    cursors = sorted((_Cursor(keys) for keys in lists), key=_Cursor.key)
    hi = cursors[-1].key()
    p = 0
    while True:
        c = cursors[p]
        if c.key() == hi:
            out[hi] = out.get(hi, 0) + 1
            c.next()
        else:
            c.seek(hi)
        if c.at_end():
            return
        hi = c.key()
        p = (p + 1) % len(cursors)


class Speed:
    """Reference probes of one run, and the scale they give."""

    def __init__(self):
        rng = random.Random(20130322)
        table = {(rng.randrange(1 << 30), i): i for i in range(100_000)}
        order = list(table)
        rng.shuffle(order)
        self._table = table
        self._order = order[:10_000]
        self._lists = [sorted(rng.sample(range(12_000), 3_000)) for _ in range(3)]
        self._start = []  # perf_counter_ns when each probe began
        self._end = []  # and ended
        self._ns = []  # its time
        self._probing = False

    def _load(self):
        keys = sorted((i * 7919 % 1009, i) for i in range(600))
        seen = {}
        acc = 0
        for _ in range(12):
            for k in keys:
                seen[k] = seen.get(k, 0) + 1
                acc += bisect.bisect_left(keys, k)
            acc += sum(x for x, _ in keys if x & 1)
        common = {}
        _leapfrog(self._lists, common)
        _leapfrog(self._lists[:2], common)
        table = self._table
        for k in self._order:
            acc += table[k]
        return acc + len(common)

    def probe(self):
        if self._probing:  # the timer fired during a probe
            return
        self._probing = True
        start = perf_counter_ns()
        self._load()
        end = perf_counter_ns()
        self._probing = False
        self._start.append(start)
        self._end.append(end)
        self._ns.append(end - start)

    def _tick(self, signum, frame):
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY)

    @contextmanager
    def running(self):
        """Probe every PROBE_EVERY seconds until the block exits."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def _pieces(self, t0, t1):
        """(length, gap) for each part of ``[t0, t1]`` outside the probes.

        Gap ``g`` lies between probe ``g - 1`` and probe ``g``.
        """
        n = len(self._ns)
        g = bisect.bisect_right(self._end, t0)
        while True:
            lo = max(t0, self._end[g - 1]) if g > 0 else t0
            hi = min(t1, self._start[g]) if g < n else t1
            if hi > lo:
                yield hi - lo, g
            if g >= n or self._start[g] >= t1:
                return
            g += 1

    def active(self, t0, t1):
        """The time in ``[t0, t1]`` that no probe took, in ns."""
        return sum(d for d, _ in self._pieces(t0, t1))

    def scaled(self, t0, t1):
        """``active(t0, t1)`` at reference speed, in ns."""
        return sum(
            d * REFERENCE_NS / statistics.fmean(self._ns[max(g - 1, 0) : g + 1])
            for d, g in self._pieces(t0, t1)
        )

    def summary(self):
        """(probes, median probe ns, quartile spread of probes / median)."""
        if len(self._ns) < 2:
            return len(self._ns), (self._ns or [0])[0], 0.0
        q1, med, q3 = statistics.quantiles(self._ns, n=4)
        return len(self._ns), med, (q3 - q1) / med

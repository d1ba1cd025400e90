"""Times scaled to a reference CPU speed.

The benchmark shares its CPUs: the same pure-Python work was measured
taking anywhere from 20 ms to 51 ms within one minute, and sums over
1.7 s of work still varied by 25% (IQR over median).  So while
operations are timed, an interval timer interrupts them every 20 ms to
run a short fixed calibration loop, and each operation's time is
multiplied by ``REFERENCE_NS / calibration time``, averaged over the
calibrations made from WINDOW_NS before it starts to WINDOW_NS after it
ends: the time it would take on a CPU that runs the loop in
REFERENCE_NS.  The time the calibrations take is not counted.
"""

from __future__ import annotations

import random
import signal
from array import array
from time import perf_counter_ns

# The calibration loop does what the program mostly does: reachability by
# bitmask BFS on small graphs, plus a small dict and a sort.  Over 83
# stretches of 0.75 s, times scaled by it varied 4.6% (IQR over median),
# by a plain integer loop 9.5%, unscaled 17%.


def _graphs(count: int = 14, n: int = 9, p: float = 0.4) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(20121)
    out = []
    for _ in range(count):
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        out.append(tuple(adj))
    return tuple(out)


GRAPHS = _graphs()

# about the loop's time on the 2-CPU box the figures in README.md come
# from, when that box was idle
REFERENCE_NS = 200_000
PERIOD_S = 0.02
WINDOW_NS = 50_000_000


def calibrate(repeats: int = 1) -> float:
    """Mean nanoseconds the fixed calibration loop takes now."""
    t0 = perf_counter_ns()
    total = 0
    for _ in range(repeats):
        for adj in GRAPHS:
            for s in range(len(adj)):
                comp = frontier = 1 << s
                while frontier:
                    reach = 0
                    m = frontier
                    while m:
                        b = m & -m
                        m ^= b
                        reach |= adj[b.bit_length() - 1]
                    frontier = reach & ~comp
                    comp |= frontier
                total += comp.bit_count()
            degrees = {v: row.bit_count() for v, row in enumerate(adj)}
            total += len(sorted(degrees, key=degrees.get))
    if total < repeats * len(GRAPHS):
        raise AssertionError("calibration loop miscounted")
    return (perf_counter_ns() - t0) / repeats


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time for work run between two
    calibrations."""
    return 2 * REFERENCE_NS / (before + after)


class Meter:
    """Scales operation times to reference time while a timer interleaves
    calibrations with them.

    Use as a context manager around the timed loop, entered once or once
    per round, and ``record`` each operation, in the order they run, as
    (kind, start, end) in perf_counter_ns.  The totals are complete after
    each exit.  ``program_ns`` sums every operation's scaled time;
    ``latency_ns`` keeps those of kind 1.  A calibration runs whole
    between two bytecodes of the loop, so it lies inside an operation
    exactly when it starts inside it, and its time is taken out.
    """

    def __init__(self):
        self.cal_at = array("q")
        self.cal_ns = array("d")
        self.cal_len = array("q")
        self.kind = array("b")
        self.start = array("q")
        self.end = array("q")
        self.program_ns = 0.0
        self.latency_ns = array("d")
        self._k = 0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter_ns()
        self.cal_ns.append(calibrate())
        self.cal_at.append(t0)
        self.cal_len.append(perf_counter_ns() - t0)

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self._flush(final=True)

    def record(self, kind: int, start: int, end: int) -> None:
        self.kind.append(kind)
        self.start.append(start)
        self.end.append(end)
        if len(self.kind) >= 4096:
            self._flush(final=False)

    def _flush(self, final: bool) -> None:
        """Scale the pending operations whose calibration window has closed."""
        at, ns, length = self.cal_at, self.cal_ns, self.cal_len
        n = len(at)
        last = at[n - 1]
        k = self._k
        done = 0
        for kind, start, end in zip(self.kind, self.start, self.end):
            if not final and end + WINDOW_NS >= last:
                break
            while k < n and at[k] < start - WINDOW_NS:
                k += 1
            j, total, lost = k, 0.0, 0
            while j < n and at[j] <= end + WINDOW_NS:
                total += ns[j]
                if start <= at[j] <= end:
                    lost += length[j]
                j += 1
            count = j - k
            if count == 0:
                near = [ns[i] for i in (k - 1, k) if 0 <= i < n]
                total, count = sum(near), len(near)
            value = (end - start - lost) * REFERENCE_NS * count / total
            self.program_ns += value
            if kind == 1:
                self.latency_ns.append(value)
            done += 1
        self._k = k
        del self.kind[:done], self.start[:done], self.end[:done]

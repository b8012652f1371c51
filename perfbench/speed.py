"""Host-speed reference for normalising times on a shared machine.

On a host whose virtual CPUs are shared with other tenants the same code
runs up to twice as slowly from one minute to the next (thread CPU time
slows down with wall time, so the slowdown is not visible as waiting).
The benchmark therefore times a fixed reference loop, written here and
independent of the program, during the work it measures, and scales each
measured time by NOMINAL_UNIT_S / (seconds per reference unit at the time).
Inside a task the loop runs on a timer signal (``Clock``), so the speed
estimate covers the same moments and the same CPU as the task; slices
timed only between tasks missed most of the swings within long tasks.
The loop uses only integer arithmetic and lookups in a prebuilt table, so
changes to the program, its allocator use or its garbage-collector settings
do not change the loop's cost.
"""

import math
import signal
import time

# seconds per reference unit on a quiet Intel Xeon (2 vCPU) host; any fixed
# value works, this one makes normalised times read as that host's seconds
NOMINAL_UNIT_S = 0.0009

# a task is interrupted every TICK_S of wall time for one reference unit,
# which takes 0.9-3 ms on that host: 2-6% of the task's time, taken out of
# the busy and wall times
TICK_S = 0.05

_TABLE = tuple(tuple((a * b + 7) % 251 for b in range(16)) for a in range(16))
_MODULUS = 2 ** 255 - 19


def unit():
    """One reference unit of integer work."""
    t = _TABLE
    acc, big = 0, 1
    for i in range(4000):
        acc = (acc + t[i & 15][(i >> 4) & 15] * i) % 1000003
        big = big * 3 + i
        if big.bit_length() > 300:
            big = math.gcd(big, _MODULUS) + acc
    return acc + big


def sample(min_seconds):
    """(elapsed seconds, units run) for at least min_seconds of reference work."""
    start = time.perf_counter()
    units = 0
    while True:
        unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed, units


class Clock:
    """Times tasks of one process with reference units run inside them.

    After ``run``, ``last`` holds (busy seconds without the reference work,
    reference seconds, reference units).  A task shorter than one tick gets
    one unit after it.  Creating a Clock installs its SIGALRM handler, which
    processes forked later inherit; the timer itself runs only inside ``run``.
    """

    def __init__(self):
        self.cal_s, self.units, self.last = 0.0, 0, None
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        unit()
        self.cal_s += time.perf_counter() - start
        self.units += 1

    def run(self, fn, *args, **kwargs):
        self.cal_s, self.units = 0.0, 0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            busy = time.perf_counter() - start - self.cal_s
            if not self.units:
                self._tick()
            self.last = (busy, self.cal_s, self.units)


def warm_up():
    """Run the reference until the interpreter has specialised its code, so
    the first slice a process times is not slowed by that."""
    sample(0.05)


def combine(workers):
    """Busy time, host speed and calibration time of one iteration.

    workers holds, per worker process, one (busy_s, cal_s, cal_units) triple
    per task it ran (``Clock.last``).  Returns the summed busy time, the
    seconds per reference unit weighted by the busy time of the task the
    units ran in, and the mean reference time per worker (to be taken out
    of the iteration's wall time).
    """
    records = [r for w in workers for r in w]
    busy = sum(b for b, _, _ in records)
    if not busy:  # nothing ran, e.g. the command failed
        return 0.0, NOMINAL_UNIT_S, 0.0
    unit_s = sum(b * e / u for b, e, u in records) / busy
    cal = [sum(e for _, e, _ in w) for w in workers if w]
    return busy, unit_s, sum(cal) / len(cal)


def normalise(seconds, unit_s):
    """A time measured while the reference took unit_s, at nominal speed."""
    return seconds * NOMINAL_UNIT_S / unit_s

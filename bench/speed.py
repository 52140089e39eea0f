"""Host-speed sampling, so that times can be reported at a reference speed.

On a shared host the speed at which one Python thread runs can move by
20% or more within seconds, as other tenants load the machine.  Times
measured in plain seconds then spread more from run to run than the
regressions the benchmark has to catch.

``Sampler`` runs a small fixed pure-Python kernel from a ``SIGALRM``
handler every ``INTERVAL`` seconds inside its ``with`` block, and records when
each sample ran and the thread CPU time it took.  CPU time, not wall
time, so that a sample that waits for a core (on ``tree_scan_par2`` the
pool workers can hold both) does not read as a slow host; a slow host
shows in CPU time as well, as the measured ``cpu_s`` tracks ``wall_s``
on the serial workloads.  The kernel does only integer and
big-integer arithmetic (like the bitsets of ``sgp``), and allocates no
container, so it never starts a garbage collection whose cost would
depend on the program's heap.

A time measured over ``[a, b]`` is reported at the reference speed by
``Sampler.normalize``: the seconds measured, less the time the handler
itself took in that interval, times ``REF_SAMPLE_S`` over the mean sample
time in ``[a - WINDOW, b + WINDOW]``.  When the host runs at the speed
where one sample takes ``REF_SAMPLE_S``, reference seconds are seconds.

The host can also stop running this machine's CPUs for a while
("steal"): that time passes on the wall clock but not in CPU time, so
the samples do not see it.  Each sample therefore also reads the steal
counter in ``/proc/stat``, and the factor is further multiplied by one
less the share of time stolen per CPU over ``[a - STEAL_WINDOW, b +
STEAL_WINDOW]`` (a wider window, as the counter moves in 10 ms ticks).
CPU times are not corrected for steal, as they do not count it.
Where ``/proc/stat`` is missing, nothing is taken out.

The timer is not inherited by forked children, so pool workers are not
sampled; their CPU time is scaled by the samples taken in the parent
over the same interval.
"""

from __future__ import annotations

import bisect
import os
import signal
import time
from array import array

INTERVAL = 0.02
WINDOW = 0.03
STEAL_WINDOW = 0.25
# one kernel call on a 2-core Intel Xeon host at its usual speed, Python 3.11
REF_SAMPLE_S = 0.0005
_CPUS = os.cpu_count() or 1
_TICK = 1.0 / os.sysconf("SC_CLK_TCK")
_BITS = (1 << 4000) - 1
_KERNEL_STEPS = 1200


def kernel() -> int:
    s = acc = 0
    for i in range(_KERNEL_STEPS):
        s += i * i % 7
        acc ^= _BITS >> (i & 63)
    return s ^ acc.bit_count()


def steal_seconds() -> float:
    """Steal time of all CPUs so far, from /proc/stat; 0 if not reported."""
    try:
        with open("/proc/stat", "rb") as fh:
            return int(fh.readline().split()[8]) * _TICK
    except (OSError, IndexError, ValueError):
        return 0.0


class Sampler:
    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.steal = array("d")
        self.spent = 0.0  # seconds spent in the handler so far
        self._old = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        c0 = time.thread_time()
        kernel()
        c1 = time.thread_time()
        self.at.append(t0)
        self.took.append(c1 - c0)
        self.steal.append(steal_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def factor(self, a: float, b: float, wall: bool = True) -> float:
        """REF_SAMPLE_S over the mean sample time around [a, b]; for a wall
        time, times one less the share of time stolen per CPU around [a, b]
        (CPU time does not count stolen time in the first place)."""
        i = bisect.bisect_left(self.at, a - WINDOW)
        j = bisect.bisect_right(self.at, b + WINDOW)
        if i == j:  # no sample near: use the nearest one on either side
            i, j = max(0, i - 1), min(len(self.at), j + 1)
        if i == j:
            raise ValueError("no speed samples were taken")
        f = REF_SAMPLE_S * (j - i) / sum(self.took[i:j])
        i = bisect.bisect_left(self.at, a - STEAL_WINDOW)
        j = bisect.bisect_right(self.at, b + STEAL_WINDOW) - 1
        if wall and j > i:
            stolen = (self.steal[j] - self.steal[i]) / (_CPUS * (self.at[j] - self.at[i]))
            f *= 1.0 - min(max(stolen, 0.0), 0.9)
        return f

    def normalize(self, seconds: float, a: float, b: float) -> float:
        """``seconds`` measured over [a, b] (handler time already taken out),
        at the reference speed."""
        return seconds * self.factor(a, b)

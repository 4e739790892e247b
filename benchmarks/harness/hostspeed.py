"""Host-speed normalization of measured times.

The benchmark runs on a few cores of a shared machine whose speed, for
the same Python code, swings by 20–80% over seconds to minutes as other
tenants load it.  Such a swing outlasts a run, so repeating work inside
a run does not average it out.  :class:`SpeedProbe` measures the swing
as it happens instead: a background thread of the measured process runs
a fixed reference loop every ``PERIOD_S`` and records how long it took.
:meth:`SpeedProbe.scaled` then rescales a measured interval, second by
second, to the time it would have taken at a nominal host speed, the one
at which the reference loop takes ``REF_UNIT_S``.

The probe and the program must run on the same core, so
:func:`pin_to_one_cpu` is called before the probe starts; threads and
forked processes inherit the pinning.  A probe sample is the reference
loop's own execution time (the thread holds the interpreter lock while
it runs), and that time is taken out of the program's time again.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from array import array
from bisect import bisect_left

__all__ = ["PERIOD_S", "REF_UNIT_S", "SpeedProbe", "pin_to_one_cpu",
           "reference_unit"]

#: Seconds between two probe samples.
PERIOD_S = 0.025
#: Probe samples per rescaling window: about one second.
WINDOW = 40
#: The reference loop's time at the nominal host speed.  Scaled times
#: are seconds on a host where one reference loop takes this long; the
#: loop took 0.45–0.7 ms on the 2-vCPU Xeon host the bounds were set on.
REF_UNIT_S = 0.5e-3

_KEYS = tuple((i * 7919) % 4099 for i in range(1500))


def reference_unit() -> int:
    """The fixed reference work: dict building, str allocation, sorting.

    Interpreter-bound like the synthesis engine, and allocating almost
    no objects the garbage collector tracks, so it never triggers a
    collection of the program's heap.
    """
    table = {}
    for key in _KEYS:
        table[key] = str(key)
    order = sorted(table, key=table.__getitem__)
    return len("".join([table[key] for key in order[:200]]))


def pin_to_one_cpu() -> None:
    """Pin this process to one CPU, so the probe samples the program's core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    """Background reference-loop samples; use as a context manager."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        reference_unit()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            reference_unit()
            self.starts.append(t0)
            self.durations.append(clock() - t0)

    def median_unit_s(self) -> float:
        """Median reference-loop time over every sample."""
        return statistics.median(self.durations)

    def scaled(self, t0: float, t1: float) -> float:
        """The program's time in ``[t0, t1)`` at the nominal host speed.

        The interval is cut into windows of ``WINDOW`` samples.  Each
        window's length, less the probe's own time in it, is divided by
        the median reference-loop time of that window.  An interval too
        short for half a window uses the median over all samples.
        """
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        durations = self.durations
        if j - i < WINDOW // 2:
            busy = sum(durations[i:j])
            return (t1 - t0 - busy) / self.median_unit_s() * REF_UNIT_S
        cuts = list(range(i, j, WINDOW))
        if j - cuts[-1] < WINDOW // 2 and len(cuts) > 1:
            cuts.pop()
        total = 0.0
        for k, a in enumerate(cuts):
            last = k == len(cuts) - 1
            b = j if last else cuts[k + 1]
            lo = t0 if k == 0 else self.starts[a]
            hi = t1 if last else self.starts[b]
            window = durations[a:b]
            total += (hi - lo - sum(window)) / statistics.median(window)
        return total * REF_UNIT_S

"""Convert measured times to the machine's nominal speed.

On a shared machine the same pass took from 0.75 to 1.35 times its usual
time within a minute, as other tenants came and went.  So while a pass
runs, a timer signal interrupts it every PROBE_INTERVAL_S seconds to time
a fixed piece of interpreter work, ``reference_work``, owned by the
benchmark and untouched by any change to the library.  The ratio of its
nominal duration to its measured duration is the machine's speed at that
moment, smoothed over neighbouring probes.  A query's nominal time is
its wall time with the probes taken out, each stretch weighted by that
speed: the time it would have taken with the machine at nominal speed.

The reference allocates tuples, sets and dict entries and makes calls,
like the library does, because a loop of integer arithmetic alone
tracked the library's slowdowns about half as well.  Collection is
switched off while it runs, so the library's heap cannot slow it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
SMOOTHING = 4  # probes on each side of the one being smoothed
# Median duration of reference_work on a 2-vCPU 2.1 GHz Xeon VM, Python 3.11.
REFERENCE_NOMINAL_S = 0.0010


def _mix(x: int) -> int:
    return (x * 2654435761 >> 7) & 1023


def reference_work() -> int:
    """Fixed interpreter work: calls, tuples, dict updates, frozensets and bit operations."""
    table: dict = {}
    total = 0
    for i in range(1800):
        key = (i & 31, i >> 5)
        table[key] = table.get(key, 0) + _mix(i)
        total += len(frozenset((i & 7, i & 12, i & 3)))
    return total + len(table)


def time_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        reference_work()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times ``reference_work`` on a timer while active; see the module docstring."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factors: list[float] | None = None

    def probe(self, *_signal_args) -> None:
        began = time.perf_counter()
        duration = time_reference()
        self.starts.append(began)
        self.ends.append(began + duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()
        return False

    def factors(self) -> list[float]:
        """Nominal over measured reference duration, per probe, smoothed."""
        if self._factors is None:
            durations = [e - s for s, e in zip(self.starts, self.ends)]
            self._factors = [
                REFERENCE_NOMINAL_S
                / statistics.median(durations[max(0, k - SMOOTHING):k + SMOOTHING + 1])
                for k in range(len(durations))
            ]
        return self._factors

    def nominal(self, t0: float, t1: float) -> float:
        """Time from t0 to t1 without the probes, at nominal machine speed.

        The stretch before each probe is weighted by that probe's factor,
        and any stretch after the last probe by the last factor.
        """
        factors = self.factors()
        total, cursor = 0.0, t0
        k = bisect.bisect_right(self.ends, t0)
        while k < len(self.starts) and self.starts[k] < t1:
            if self.starts[k] > cursor:
                total += (self.starts[k] - cursor) * factors[k]
            cursor = max(cursor, self.ends[k])
            k += 1
        if t1 > cursor:
            total += (t1 - cursor) * factors[min(k, len(factors) - 1)]
        return total

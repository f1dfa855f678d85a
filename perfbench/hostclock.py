"""Host time, scaled to the speed of a fixed calibration probe.

The benchmark shares its machine with other tenants, and on a small
cloud box their load swings the speed of the same Python code by up to
2x for seconds at a time.  :class:`ProbeClock` times a fixed,
interpreter-bound probe (dict reads and writes in a loop) at least every
``INTERVAL_NS`` of host time, outside every timed region, and scales the
host durations measured after it by ``NOMINAL_NS / probe time``: a
duration measured while the machine ran at half speed is halved.  On an
idle host the probe takes about ``NOMINAL_NS`` (measured on a 2-vCPU,
2.1 GHz x86 guest), so scaled times read close to raw ones there.

The probe is benchmark code and never changes between the versions of
the program being compared, so the scaling cancels the machine's state,
not the program's speed.  Raw durations are kept too.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import List, Tuple


def probe_ns() -> int:
    """Host ns of one fixed probe run (best of two)."""
    best = None
    for _ in range(2):
        table = {}
        start = perf_counter_ns()
        for i in range(6000):
            table[i & 255] = table.get((i * 7) & 255, 0) + i
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class ProbeClock:
    """Scales host durations by the latest probe's speed."""

    NOMINAL_NS = 600_000
    INTERVAL_NS = 50_000_000

    def __init__(self) -> None:
        self.probes: List[int] = []
        self.refresh()

    def refresh(self) -> None:
        """Probe now (call outside any timed region)."""
        probe = probe_ns()
        self.probes.append(probe)
        self.factor = self.NOMINAL_NS / probe
        self._last = perf_counter_ns()

    def maybe_refresh(self) -> None:
        """Probe again when INTERVAL_NS has passed since the last probe."""
        if perf_counter_ns() - self._last >= self.INTERVAL_NS:
            self.refresh()

    def scale(self, raw_ns: float) -> float:
        return raw_ns * self.factor

    def timed(self, fn, *args) -> Tuple[float, int]:
        """Run ``fn(*args)`` between two probes; return its (scaled, raw)
        host ns, scaled by the mean of the two probes."""
        self.refresh()
        before = self.factor
        start = perf_counter_ns()
        fn(*args)
        raw = perf_counter_ns() - start
        self.refresh()
        return raw * (before + self.factor) / 2, raw

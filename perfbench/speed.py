"""Host speed probe: a fixed reference loop, timed between a pass's items.

On a shared machine other tenants change how fast this process runs, by up
to 2x, for milliseconds or for minutes at a time.  A pass therefore times a
fixed loop (the probe) every ``EVERY_S`` seconds of item work, and every
timing of the pass is divided by the probe times measured around it.  The
benchmark reports each time multiplied by ``REFERENCE_S``: it reads as the
time on a host where the probe takes ``REFERENCE_S``.  A change to girale
moves the item times and not the probe, so it moves the reported times by
the same share.

The probe mixes what girale's kernels do: small numpy gathers and reductions
over a Cayley-like table, and pure-Python loops over tuples, dicts and sets.
"""

from __future__ import annotations

import math
import statistics
import time
from bisect import bisect_right

import numpy as np

REFERENCE_S = 1e-3  # reported times are scaled to a probe of this length
EVERY_S = 0.01  # item work between two probes
WINDOW = 4  # probes taken on each side of a unit of work
_ORDER = 20
_TABLE = np.add.outer(np.arange(_ORDER), 5 * np.arange(_ORDER)) % _ORDER


def _probe_work() -> int:
    table = _TABLE
    total = 0
    for a in range(_ORDER):
        row = table[a]
        total += int(row.take(table[:, a]).sum())
        total += int(np.count_nonzero(table[row] == a))
    seen: dict[tuple[int, int], int] = {}
    for a in range(64):
        for b in range(64):
            key = ((a * b) % 17, (a + b) % 13)
            seen[key] = seen.get(key, 0) + 1
    return total + len(set(seen.values())) + len(seen)


def probe() -> float:
    """Seconds one probe takes now."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class ProbeLog:
    """Probe times of one pass, each tagged with the unit of work it precedes.

    Unit 0 is the pass's prelude and unit ``i + 1`` its item ``i``.
    """

    def __init__(self) -> None:
        self.units: list[int] = []
        self.seconds: list[float] = []
        self._since = 0.0

    def burst(self, unit: int) -> None:
        """``WINDOW`` probes in a row, before ``unit``."""
        for _ in range(WINDOW):
            self.units.append(unit)
            self.seconds.append(probe())
        self._since = 0.0

    def between(self, unit: int, worked_s: float) -> None:
        """One probe before ``unit`` once ``EVERY_S`` of work has passed."""
        self._since += worked_s
        if self._since >= EVERY_S:
            self.units.append(unit)
            self.seconds.append(probe())
            self._since = 0.0

    def record(self) -> list[list[float]]:
        return [[u, s] for u, s in zip(self.units, self.seconds)]


def scales(record: list[list[float]], durations: list[float]) -> list[float]:
    """For each unit of work, ``REFERENCE_S`` / the median probe around it.

    Around a unit means the last probes before it and the first after it:
    ``WINDOW`` on each side, or as many as are taken in the unit's own
    duration of work, whichever is more, so that a long unit is scaled by
    the host's speed over about as long a stretch as it ran.
    """
    units = [int(u) for u, _ in record]
    seconds = [s for _, s in record]
    out = []
    for unit, duration in enumerate(durations):
        side = max(WINDOW, math.ceil(duration / EVERY_S))
        split = bisect_right(units, unit)
        near = seconds[max(0, split - side):split + side]
        out.append(REFERENCE_S / statistics.median(near))
    return out

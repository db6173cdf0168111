"""Host time at a reference host speed.

The benchmark runs on a small VM that shares its cores with other
tenants.  Identical work slows by up to 1.9x for seconds or minutes at
a time, as the neighbours load the host, so a wall-clock throughput
drifts by 30-50% between runs of one commit.  No bound that could still
catch a regression survives that.

:class:`HostClock` divides the drift out.  Every :meth:`HostClock.tick`
times a fixed probe, a few hundred microseconds of interpreter work
that lives in this package, so no change to ``src/`` can move it.  Time
between two ticks is scaled by :data:`PROBE_REF_S` over the mean of the
two probes beside it, raised to :data:`SENSITIVITY`: the interval is
read in the seconds it would have taken at the host speed the reference
probe time stands for.  The probes' own time is left out.  Jobs last
milliseconds and the host's speed changes over seconds, so a job and
the probes beside it almost always run at one speed.

The probe is timed in CPU time, not wall time.  A neighbour on the
host slows the probe's instructions, which CPU time counts; a shard
process of this benchmark taking the probe's core only delays it,
which CPU time does not count, so the benchmark's own load is not
divided out.

A change that makes the program faster moves the program's time and
not the probe's, so it shows in full.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import List

#: The probe's median time, in seconds, on the reference host: a
#: 2-vCPU KVM guest on an Intel Xeon (Sapphire Rapids), Python 3.11.
#: Only the unit depends on it; any fixed value would do.
PROBE_REF_S = 2.7e-4
#: How much harder the workloads slow than the probe when the host is
#: loaded: a host that stretches the probe by ``x`` stretches them by
#: about ``x ** SENSITIVITY``.  The probe's small loop stays in the
#: core's caches, and the serving stack's larger footprint loses more
#: to a neighbour.  Fitted on ten-seed sweeps taken hours apart:
#: against 1.0, 1.25 cut the run-to-run spread of throughput and median
#: latency on most workloads, by up to a half.
SENSITIVITY = 1.25
_PROBE_LOOPS = 3000


def probe() -> int:
    """The fixed reference work: an interpreter-bound integer loop."""
    acc = 0
    for i in range(_PROBE_LOOPS):
        acc += i * i % 7
    return acc


@dataclass(frozen=True)
class Instant:
    """A tick's reading: reference seconds, and raw seconds net of probes.

    Both count from the clock's first tick; the difference of two
    readings is the interval between them.
    """

    ref: float
    net: float

    def __sub__(self, other: "Instant") -> "Instant":
        return Instant(self.ref - other.ref, self.net - other.net)


class HostClock:
    """Piecewise map from ``time.perf_counter`` to reference seconds."""

    def __init__(self) -> None:
        self._starts: List[float] = []   # perf_counter at probe start
        self._ends: List[float] = []     # perf_counter at probe end
        self._probes: List[float] = []   # probe durations
        self._refs: List[float] = []     # reference seconds at each tick
        self._nets: List[float] = []     # raw seconds net of probes

    def tick(self) -> Instant:
        """Run the probe; the reading at this tick."""
        start = time.perf_counter()
        cpu = time.thread_time()
        probe()
        took = time.thread_time() - cpu
        end = time.perf_counter()
        if self._ends:
            gap = start - self._ends[-1]
            ref = self._refs[-1] + gap * self._scale(self._probes[-1], took)
            net = self._nets[-1] + gap
        else:
            ref = net = 0.0
        self._starts.append(start)
        self._ends.append(end)
        self._probes.append(took)
        self._refs.append(ref)
        self._nets.append(net)
        return Instant(ref, net)

    @staticmethod
    def _scale(before: float, after: float) -> float:
        return (2.0 * PROBE_REF_S / (before + after)) ** SENSITIVITY

    def at(self, when: float) -> float:
        """Reference seconds at ``perf_counter`` reading ``when``.

        ``when`` must lie between the first tick and the last one.
        Inside a probe the reading stands still.
        """
        if not self._ends or not self._starts[0] <= when <= self._ends[-1]:
            raise ValueError("at() needs a time between two ticks")
        index = bisect.bisect_right(self._ends, when) - 1
        if index < 0 or index + 1 == len(self._ends):
            return self._refs[max(index, 0)]
        if when >= self._starts[index + 1]:
            return self._refs[index + 1]
        return self._refs[index] + (when - self._ends[index]) * self._scale(
            self._probes[index], self._probes[index + 1]
        )

    def probe_median_s(self) -> float:
        """The median probe time so far: how fast the host ran."""
        ordered = sorted(self._probes)
        return ordered[len(ordered) // 2] if ordered else 0.0

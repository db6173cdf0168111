"""Order statistics shared by the runner and the comparator.

Plain Python (no numpy) so that ``bench compare`` and the parent
``bench run`` process start without importing the simulator stack.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    This is numpy's default ("linear") definition: p0 is the minimum,
    p100 the maximum, and p50 of an even-sized sample is the mean of
    the two middle values.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them (the "exclusive" method); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def iqr_frac(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median.

    This is the run-to-run spread a bound in ``BENCHMARK.json`` is
    compared against.  A zero median with zero spread is 0; a zero
    median with any spread is infinite.
    """
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)

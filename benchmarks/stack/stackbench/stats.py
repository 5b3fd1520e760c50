"""Order statistics the benchmark reports: medians with their sample
count and quartiles, and the tail-percentile rule."""

from __future__ import annotations

import statistics
from typing import Sequence

#: a percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10

#: the tail percentiles the rule chooses between, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], pct: int) -> float:
    """Linear-interpolated percentile (``pct`` in 1..99) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def highest_supported_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_SAMPLES_BEYOND` of ``n`` samples beyond it, or ``None``."""
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= MIN_SAMPLES_BEYOND:
            return pct
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives
    them (the driver's definition); a single sample is its own quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one timing sample."""
    q1, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }

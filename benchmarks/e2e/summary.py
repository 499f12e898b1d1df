"""Order statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) with linear interpolation between
    order statistics — ``statistics.quantiles(method="inclusive")``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    return (percentile(values, 0.25), percentile(values, 0.5),
            percentile(values, 0.75))

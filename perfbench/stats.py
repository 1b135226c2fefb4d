"""Order statistics shared by the end-to-end and traced parts."""

from __future__ import annotations

import statistics
from typing import Optional


def median(values: list[float]) -> float:
    """Median, or 0.0 for an empty list (a layer the workload bypasses)."""
    return statistics.median(values) if values else 0.0


def high_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest whole percentile with at least ten samples above it, by
    nearest rank, as (percentile, value); None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(-(-p * n // 100), 1)  # ceil(p*n/100), so n - rank >= 10
    return p, sorted(values)[rank - 1]

"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math

#: percentiles a tail may be reported at, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: samples that must lie beyond a reported percentile
TAIL_MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples (rounded
    before the ceiling, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[min(_rank(pct, len(sorted_values)),
                             len(sorted_values)) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """``(pct, value)`` at the highest percentile of :data:`TAIL_LADDER`
    that has at least :data:`TAIL_MIN_BEYOND` samples beyond it, or
    ``None`` when even the median has fewer."""
    n = len(values)
    chosen = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            chosen = pct
    if chosen is None:
        return None
    return chosen, nearest_rank(sorted(values), chosen)

"""Small statistics helpers: exact percentiles and speed adjustment."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p``% of the samples at or below it (always a real sample)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def adjust(wall_s: float, ref_s: float, r0_s: float) -> float:
    """Scale a wall time measured while the reference loop took
    ``ref_s`` to a machine on which it takes ``r0_s``."""
    if ref_s <= 0:
        raise ValueError("reference time must be positive")
    return wall_s * r0_s / ref_s

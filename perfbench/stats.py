"""The percentile rule: which timing percentiles have enough samples to report."""

from __future__ import annotations

from typing import Optional

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL = 10


def tail_count(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie beyond the given percentile."""
    # Integer arithmetic in tenths of a percent, so 99.9 is exact.
    return n * (1000 - round(percentile * 10)) // 1000


def highest_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_TAIL`` samples beyond it."""
    usable = [p for p in PERCENTILES if tail_count(n, p) >= MIN_TAIL]
    return usable[-1] if usable else None

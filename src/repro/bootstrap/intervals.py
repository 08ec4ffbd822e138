"""Percentile confidence intervals from bootstrap replicates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_probability, check_vector
from ..exceptions import ValidationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval ``[lower, upper]`` for a statistic.

    Attributes
    ----------
    lower, upper:
        Interval bounds (``θ_lo`` and ``θ_up`` in the paper, Eq. 19).
    level:
        Coverage level ``1 − α``.
    point:
        The point estimate of the statistic computed with the original
        (non-resampled) weights.
    """

    lower: float
    upper: float
    level: float
    point: float = float("nan")

    def __post_init__(self) -> None:
        if self.upper < self.lower:
            raise ValidationError(
                f"upper bound {self.upper} is below lower bound {self.lower}"
            )

    @property
    def width(self) -> float:
        """Width of the interval."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the closed interval."""
        return self.lower <= value <= self.upper

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """Whether this interval overlaps another one."""
        return self.lower <= other.upper and other.lower <= self.upper


def percentile_interval(
    samples: np.ndarray,
    alpha: float = 0.05,
    *,
    point: float = float("nan"),
) -> ConfidenceInterval:
    """Equal-tailed percentile interval from bootstrap replicates.

    The bounds are the ``α/2`` and ``1 − α/2`` empirical quantiles of the
    replicated statistic, exactly as in paper Section 4.2, both taken by
    one :func:`numpy.quantile` call (the same values as two calls).
    """
    values = check_vector(samples, "samples")
    alpha = check_probability(alpha, "alpha")
    lower, upper = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0]).tolist()
    return ConfidenceInterval(lower=lower, upper=upper, level=1.0 - alpha, point=point)

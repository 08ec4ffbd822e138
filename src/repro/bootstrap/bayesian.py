"""The Bayesian bootstrap (Rubin, 1981) for statistics of weighted data.

As opposed to the standard bootstrap, which resamples observations with
replacement, the Bayesian bootstrap resamples the *weights* given to each
observation from a Dirichlet posterior and recomputes the statistic.  This
yields a smooth distribution of the statistic even for very small samples,
which is why the paper uses it to build per-time-step confidence intervals
of the change-point score with windows as short as τ = τ′ = 5 bags
(Section 4.2).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from .._validation import as_rng, check_positive_int, check_probability
from .dirichlet import weighted_dirichlet_alpha
from .intervals import ConfidenceInterval, percentile_interval

StatisticOfWeights = Callable[[np.ndarray], float]
"""A statistic expressed as a function of the probability vector over observations."""


class BayesianBootstrap:
    """Bayesian bootstrap engine for weight-based statistics.

    Parameters
    ----------
    n_replicates:
        Number of Dirichlet weight resamples ``T``.
    alpha:
        Significance level for the confidence intervals (default 0.05 for
        the 95% intervals used throughout the paper).
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        n_replicates: int = 200,
        *,
        alpha: float = 0.05,
        rng: Union[None, int, np.random.Generator] = None,
    ):
        self.n_replicates = check_positive_int(n_replicates, "n_replicates", minimum=2)
        self.alpha = check_probability(alpha, "alpha")
        self._rng = as_rng(rng)

    # ------------------------------------------------------------------ #
    # Weight resampling
    # ------------------------------------------------------------------ #
    def resample_weights(
        self, n: int, base_weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Draw ``T`` weight vectors of length ``n``.

        With ``base_weights=None`` the uniform Bayesian bootstrap
        (``Dirichlet(1,…,1)``) is used; otherwise the weighted variant
        (``Dirichlet(n·π)``, paper Appendix B).
        """
        return self.weight_sampler(n, base_weights)()

    def weight_sampler(
        self, n: int, base_weights: Optional[np.ndarray] = None
    ) -> Callable[[], np.ndarray]:
        """:meth:`resample_weights` for fixed arguments, validated once.

        Each call of the returned function draws the next ``T`` weight
        vectors from this bootstrap's generator, exactly as
        ``resample_weights(n, base_weights)`` would at that point.
        """
        if base_weights is None:
            alpha = np.ones(check_positive_int(n, "n"))
        else:
            alpha = weighted_dirichlet_alpha(base_weights)
        rng, size = self._rng, self.n_replicates
        return lambda: rng.dirichlet(alpha, size=size)

    # ------------------------------------------------------------------ #
    # Statistic replication
    # ------------------------------------------------------------------ #
    def replicate(
        self,
        statistic: StatisticOfWeights,
        n: int,
        base_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return ``T`` replicated values of ``statistic``.

        ``statistic`` receives one resampled probability vector per call.
        """
        weights = self.resample_weights(n, base_weights)
        return np.array([statistic(w) for w in weights], dtype=float)

    def confidence_interval(
        self,
        statistic: StatisticOfWeights,
        n: int,
        base_weights: Optional[np.ndarray] = None,
        *,
        point: float = float("nan"),
    ) -> ConfidenceInterval:
        """Percentile confidence interval of ``statistic`` under weight resampling."""
        samples = self.replicate(statistic, n, base_weights)
        return percentile_interval(samples, self.alpha, point=point)

    # ------------------------------------------------------------------ #
    # Convenience: classic "statistic of data" form
    # ------------------------------------------------------------------ #
    def mean_interval(self, data: np.ndarray, *, point: Optional[float] = None) -> ConfidenceInterval:
        """Confidence interval of the sample mean of 1-D ``data``.

        Provided as the canonical textbook example of the Bayesian
        bootstrap (and used by tests as an analytically checkable case).
        """
        values = np.asarray(data, dtype=float).ravel()
        if point is None:
            point = float(values.mean())
        return self.confidence_interval(
            lambda w: float(np.dot(w, values)), values.shape[0], point=point
        )

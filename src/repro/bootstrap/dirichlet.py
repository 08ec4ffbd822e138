"""Dirichlet weight resampling used by the Bayesian bootstrap.

Appendix A of the paper derives that, with an (improper) Dirichlet prior,
the posterior of the probability vector over ``n`` observed values is
``Dirichlet(1, ..., 1)``; Appendix B extends this to weighted data, where
matching the first two moments of multinomial resampling leads to
``Dirichlet(n · π_1, ..., n · π_n)`` with ``π_i`` the normalised weights.
These two samplers are the only sources of randomness in the adaptive
thresholding procedure.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .._validation import as_rng, check_positive_int, check_weights
from ..exceptions import ValidationError


def sample_uniform_dirichlet_weights(
    n: int,
    size: int = 1,
    *,
    rng: Union[None, int, np.random.Generator] = None,
) -> np.ndarray:
    """Draw ``size`` weight vectors from ``Dirichlet(1, ..., 1)`` of length ``n``.

    This is the Bayesian bootstrap of Rubin (1981) for unweighted data
    (paper Appendix A).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(size, n)``; each row sums to one.
    """
    n = check_positive_int(n, "n")
    size = check_positive_int(size, "size")
    generator = as_rng(rng)
    return generator.dirichlet(np.ones(n), size=size)


def sample_weighted_dirichlet_weights(
    base_weights: np.ndarray,
    size: int = 1,
    *,
    concentration_scale: float | None = None,
    rng: Union[None, int, np.random.Generator] = None,
) -> np.ndarray:
    """Draw weight vectors from ``Dirichlet(n · π)`` for weighted data.

    Parameters
    ----------
    base_weights:
        Non-negative base weights ``ψ_i`` of the ``n`` observations (paper
        Eqs. 21-22 use the per-window signature weights here).  They are
        normalised internally to ``π_i``.
    size:
        Number of weight vectors to draw.
    concentration_scale:
        The factor multiplying ``π`` in the Dirichlet parameter.  Defaults
        to ``n`` (matching the moments of weighted multinomial resampling,
        paper Appendix B).
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(size, n)``; each row sums to one.
    """
    alpha = weighted_dirichlet_alpha(base_weights, concentration_scale=concentration_scale)
    size = check_positive_int(size, "size")
    generator = as_rng(rng)
    return generator.dirichlet(alpha, size=size)


def weighted_dirichlet_alpha(
    base_weights: np.ndarray, *, concentration_scale: float | None = None
) -> np.ndarray:
    """The validated Dirichlet parameter ``n · π`` of the weighted bootstrap.

    Exactly the parameter :func:`sample_weighted_dirichlet_weights`
    draws from, so a caller resampling the same base weights many times
    can validate them once.
    """
    pi = check_weights(base_weights, "base_weights", normalize=True)
    n = pi.shape[0]
    scale = float(n if concentration_scale is None else concentration_scale)
    if scale <= 0:
        raise ValidationError("concentration_scale must be positive")
    alpha = scale * pi
    # A Dirichlet parameter of exactly zero (a base weight of zero) would
    # make the corresponding component degenerate at 0, which numpy rejects;
    # floor it at a tiny value so such observations simply get ~zero weight.
    floored: np.ndarray = np.maximum(alpha, 1e-12)
    return floored


def dirichlet_moments(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of each component of a Dirichlet distribution.

    Provided mainly for tests and documentation: these are the moments the
    paper's Appendix B matches against multinomial resampling.
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    if np.any(alpha <= 0):
        raise ValidationError("Dirichlet parameters must be positive")
    alpha0 = alpha.sum()
    mean = alpha / alpha0
    var = alpha * (alpha0 - alpha) / (alpha0**2 * (alpha0 + 1.0))
    return mean, var

"""Ground distances between signature representatives.

The Earth Mover's Distance is parameterised by a *ground distance*
``d_kl`` giving the dissimilarity between representative ``u_k`` of one
signature and ``v_l`` of the other (paper Section 3.2).  This module
provides the standard choices (Euclidean, squared Euclidean, Manhattan,
Chebyshev) plus support for arbitrary callables, and computes full cross
distance matrices in a vectorised way.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np
from scipy.spatial.distance import cdist

from .._validation import check_matrix, check_same_dimension
from ..exceptions import ConfigurationError

GroundDistance = Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]

#: Built-in ground-distance names accepted wherever a :data:`GroundDistance`
#: string is expected (``"manhattan"`` is an alias for ``"cityblock"``).
GROUND_DISTANCES = ("euclidean", "sqeuclidean", "cityblock", "manhattan", "chebyshev")

_NAMED = GROUND_DISTANCES


def ground_distance_identity(metric: GroundDistance) -> str:
    """The identity of a ground distance inside a fingerprint.

    A callable is identified by its qualified name, the best available
    identity: renaming it, or a lambda with the same name but another
    body, is on the caller.
    """
    if isinstance(metric, str):
        return metric
    module = getattr(metric, "__module__", "?")
    return f"callable:{module}.{getattr(metric, '__qualname__', repr(metric))}"


def euclidean_cross_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between rows of ``a`` and rows of ``b``.

    Uses :func:`scipy.spatial.distance.cdist`, which computes coordinate
    differences directly and therefore keeps the distance of a point to
    itself at exactly zero (the Gram-matrix shortcut loses that property to
    cancellation for points far from the origin).
    """
    return cdist(a, b, metric="euclidean")


def squared_euclidean_cross_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of ``a`` and ``b``."""
    return cdist(a, b, metric="sqeuclidean")


def manhattan_cross_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise L1 (city-block) distances between rows of ``a`` and ``b``."""
    return cdist(a, b, metric="cityblock")


def chebyshev_cross_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise L-infinity distances between rows of ``a`` and ``b``."""
    return cdist(a, b, metric="chebyshev")


def resolve_ground_distance(
    metric: GroundDistance,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Resolve a metric name or callable into a cross-distance function.

    A callable must accept two arrays of shapes ``(K, d)`` and ``(L, d)``
    and return a ``(K, L)`` matrix of non-negative dissimilarities.
    """
    if callable(metric):
        return metric
    name = str(metric).lower()
    if name == "euclidean":
        return euclidean_cross_distance
    if name == "sqeuclidean":
        return squared_euclidean_cross_distance
    if name in ("cityblock", "manhattan"):
        return manhattan_cross_distance
    if name == "chebyshev":
        return chebyshev_cross_distance
    raise ConfigurationError(
        f"unknown ground distance {metric!r}; expected a callable or one of {_NAMED}"
    )


def cross_distance_matrix(
    positions_a: np.ndarray,
    positions_b: np.ndarray,
    metric: GroundDistance = "euclidean",
) -> np.ndarray:
    """Compute the ``(K, L)`` ground-distance matrix between two position sets."""
    a = check_matrix(positions_a, "positions_a")
    b = check_matrix(positions_b, "positions_b")
    check_same_dimension(a, b, "positions_a", "positions_b")
    func = resolve_ground_distance(metric)
    dist = np.asarray(func(a, b), dtype=float)
    if dist.shape != (a.shape[0], b.shape[0]):
        raise ConfigurationError(
            "ground distance callable returned an array of shape "
            f"{dist.shape}, expected {(a.shape[0], b.shape[0])}"
        )
    if np.any(dist < 0):
        raise ConfigurationError("ground distances must be non-negative")
    return dist

"""Ground distances between signature representatives.

The Earth Mover's Distance is parameterised by a *ground distance*
``d_kl`` giving the dissimilarity between representative ``u_k`` of one
signature and ``v_l`` of the other (paper Section 3.2).  This module
provides the standard choices (Euclidean, squared Euclidean, Manhattan,
Chebyshev) plus support for arbitrary callables, and computes full cross
distance matrices in a vectorised way — one pair at a time
(:func:`cross_distance_matrix`) or for a stack of same-shape pairs in a
few calls (:func:`paired_cross_distances`).
"""

from __future__ import annotations

import math
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

#: The built-in ground distances that are metrics (symmetric, zero only
#: between equal positions, and obeying the triangle inequality);
#: ``sqeuclidean`` breaks the triangle inequality.  In one dimension each
#: of them is ``|x − y|``.
METRIC_GROUND_DISTANCES = ("euclidean", "cityblock", "manhattan", "chebyshev")

#: Cap on the entries one ground-distance call of
#: :func:`paired_cross_distances` builds (512 KB of float64).
_MAX_COST_ENTRIES = 65_536


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


def is_metric(metric: GroundDistance) -> bool:
    """Whether ``metric`` names a built-in metric ground distance.

    Callables are never trusted to be metrics.
    """
    return isinstance(metric, str) and metric.lower() in METRIC_GROUND_DISTANCES


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
    and return a ``(K, L)`` matrix of non-negative dissimilarities, each
    entry depending on its two rows only: the stacked solver evaluates
    many pairs' positions in one call (:func:`paired_cross_distances`).
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


def paired_cross_distances(
    positions_a: np.ndarray,
    positions_b: np.ndarray,
    metric: GroundDistance = "euclidean",
) -> np.ndarray:
    """Ground-distance matrices of ``P`` same-shape pairs, in few calls.

    ``positions_a`` is ``(P, K, d)`` and ``positions_b`` is ``(P, L, d)``;
    entry ``p`` of the ``(P, K, L)`` result is
    ``cross_distance_matrix(positions_a[p], positions_b[p], metric)``,
    bit for bit.  Instead of ``P`` calls, the metric runs once on the
    concatenated positions of up to ``q`` pairs and the ``q`` diagonal
    ``(K, L)`` blocks are kept.  That is exact because every entry of a
    cdist metric is computed on its own, and a callable metric must be
    pairwise too (see :func:`resolve_ground_distance`).  ``q`` is the
    largest count with ``q² · K · L ≤ 65,536`` entries per call (at least
    one pair), so a chunk of many tiny pairs never builds a quadratic
    matrix.  The inputs must be finite and share ``d``; the callers pass
    validated signature positions.  Negative distances, and a callable's
    non-finite ones, raise :class:`~repro.exceptions.ConfigurationError`.
    """
    n_pairs, size_a, dim = positions_a.shape
    size_b = positions_b.shape[1]
    func = resolve_ground_distance(metric)
    step = max(1, math.isqrt(_MAX_COST_ENTRIES // (size_a * size_b)))
    out = np.empty((n_pairs, size_a, size_b))
    for start in range(0, n_pairs, step):
        stop = min(start + step, n_pairs)
        q = stop - start
        dist = np.asarray(
            func(
                positions_a[start:stop].reshape(q * size_a, dim),
                positions_b[start:stop].reshape(q * size_b, dim),
            ),
            dtype=float,
        )
        if dist.shape != (q * size_a, q * size_b):
            raise ConfigurationError(
                "ground distance callable returned an array of shape "
                f"{dist.shape}, expected {(q * size_a, q * size_b)}"
            )
        diagonal = np.arange(q)
        out[start:stop] = dist.reshape(q, size_a, q, size_b)[diagonal, :, diagonal, :]
    if np.any(out < 0):
        raise ConfigurationError("ground distances must be non-negative")
    if callable(metric) and not np.all(np.isfinite(out)):
        # The named metrics of finite positions are finite; a callable's
        # NaN or infinity would otherwise reach the LP unchecked.
        raise ConfigurationError("ground distance callable returned non-finite values")
    return out

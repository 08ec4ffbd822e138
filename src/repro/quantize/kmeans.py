"""From-scratch k-means clustering with k-means++ seeding.

This is the default quantiser for building signatures from bags of
multi-dimensional vectors (paper Section 3.1).  The implementation uses
Lloyd's algorithm with k-means++ initialisation and supports multiple
restarts, returning the solution with the lowest inertia.

:meth:`KMeans.fit` is two halves.  :meth:`KMeans.seed` draws the
k-means++ starts and is the only part that touches the random
generator; :func:`refine` runs the vectorised Lloyd iterations (one
one-hot matmul per centroid update, ``‖x‖²`` computed once per bag) and
never draws.  The offline detector therefore seeds every bag serially
and runs :func:`refine` on its worker pool, with the same results as a
bag-by-bag build; k-medoids, LVQ and the online ``push`` stay per bag.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ValidationError
from .base import BaseQuantizer, QuantizationResult, counts_from_labels, drop_empty_clusters


def kmeans_plusplus_init(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Select ``n_clusters`` initial centres using the k-means++ heuristic.

    Parameters
    ----------
    data:
        Array of shape ``(n, d)``.
    n_clusters:
        Number of centres to pick; must not exceed ``n``.
    rng:
        Source of randomness.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n_clusters, d)`` with the chosen centres.
    """
    n = data.shape[0]
    centers = np.empty((n_clusters, data.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
    for k in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with existing centres; pick uniformly.
            idx = int(rng.integers(n))
        else:
            probs = closest_sq / total
            idx = int(rng.choice(n, p=probs))
        centers[k] = data[idx]
        dist_sq = np.sum((data - centers[k]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)
    return centers


def _assign(
    data: np.ndarray, centers: np.ndarray, data_sq: Optional[np.ndarray] = None
) -> np.ndarray:
    """Return the index of the nearest centre for each row of ``data``.

    ``data_sq`` is ``np.sum(data**2, axis=1)``; pass it when assigning the
    same data repeatedly so it is computed once.
    """
    if data_sq is None:
        data_sq = np.sum(data**2, axis=1)
    # (n, K) squared distances ‖x‖² − 2 x·c + ‖c‖², computed without
    # forming the full (n, K, d) cube; scaling by −2 is exact, so folding
    # it into the centres changes no bit.
    sq = data @ (-2.0 * centers).T
    sq += data_sq[:, None]
    sq += np.sum(centers**2, axis=1)
    return np.argmin(sq, axis=1)


def _lloyd(
    data: np.ndarray,
    data_sq: np.ndarray,
    centers: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from ``centers`` until the inertia decrease is ``<= tol``.

    Each step moves every centre to the mean of its members through one
    one-hot matmul.  An empty cluster is re-seeded with the point farthest
    from its previous centre, so the requested number of clusters survives
    whenever the data holds enough distinct points.  The step's closing
    assignment is the next step's opening one.
    """
    k = centers.shape[0]
    cluster_ids = np.arange(k)[:, None]
    labels = _assign(data, centers, data_sq)
    inertia = np.inf
    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=k)
        onehot = (labels == cluster_ids).astype(float)
        new_centers = (onehot @ data) / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        if empty.any():
            distances = np.sum((data - centers.take(labels, axis=0)) ** 2, axis=1)
            new_centers[empty] = data[int(np.argmax(distances))]
        centers = new_centers
        labels = _assign(data, centers, data_sq)
        prev_inertia = inertia
        inertia = float(np.sum((data - centers.take(labels, axis=0)) ** 2))
        if prev_inertia - inertia <= tol:
            break
    return centers, labels, inertia


def refine(data: np.ndarray, inits: np.ndarray, max_iter: int, tol: float) -> QuantizationResult:
    """Run Lloyd's algorithm from each start in ``inits``; keep the lowest inertia.

    This half of :meth:`KMeans.fit` draws nothing from a random generator,
    so it can run anywhere (e.g. in a worker process) once
    :meth:`KMeans.seed` has drawn the starts.

    Parameters
    ----------
    data:
        Validated array of shape ``(n, d)``.
    inits:
        Starting centres, shape ``(n_init, k, d)``.
    max_iter, tol:
        As for :class:`KMeans`.
    """
    if len(inits) == 0:
        raise ValidationError("inits must hold at least one start")
    data_sq = np.sum(data**2, axis=1)
    best: QuantizationResult | None = None
    for init in inits:
        centers, labels, inertia = _lloyd(data, data_sq, init, max_iter, tol)
        if best is None or inertia < best.inertia:
            counts = counts_from_labels(labels, centers.shape[0])
            kept = drop_empty_clusters(centers, counts, labels)
            best = QuantizationResult(
                centers=kept.centers, counts=kept.counts, labels=kept.labels, inertia=inertia
            )
    assert best is not None
    return best


class KMeans(BaseQuantizer):
    """Lloyd's k-means with k-means++ seeding and multiple restarts.

    Parameters
    ----------
    n_clusters:
        Requested number of clusters ``K``.  If a bag holds fewer than
        ``K`` distinct points the effective number of clusters is reduced.
    n_init:
        Number of random restarts; the best (lowest-inertia) run wins.
    max_iter:
        Maximum Lloyd iterations per restart.
    tol:
        Convergence tolerance on the decrease of inertia.
    random_state:
        Seed or generator for reproducibility.
    """

    def __init__(
        self,
        n_clusters: int = 8,
        *,
        n_init: int = 4,
        max_iter: int = 100,
        tol: float = 1e-7,
        random_state: Union[None, int, np.random.Generator] = None,
    ):
        super().__init__(random_state=random_state)
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        if tol < 0:
            raise ValidationError("tol must be non-negative")
        self.tol = float(tol)

    def seed(self, data: np.ndarray) -> np.ndarray:
        """Draw the ``n_init`` k-means++ starts for ``data``.

        This is the only part of :meth:`fit` that consumes the random
        generator.  ``k`` is ``n_clusters`` capped at the number of
        distinct rows.

        Returns
        -------
        numpy.ndarray
            Starting centres, shape ``(n_init, k, d)``, for :func:`refine`.
        """
        data = self._validate(data)
        rng = self._rng()
        k = min(self.n_clusters, np.unique(data, axis=0).shape[0])
        return np.stack([kmeans_plusplus_init(data, k, rng) for _ in range(self.n_init)])

    def fit(self, data: np.ndarray) -> QuantizationResult:
        data = self._validate(data)
        self._result = refine(data, self.seed(data), self.max_iter, self.tol)
        return self._result

"""Distance-based information estimators for weighted signature sets.

Implements the three estimators of Hino & Murata, *Information estimators
for weighted observations* (Neural Networks, 2013), in the form used by
the paper (Section 3.3):

* information content ``I(S; S') = c + d Σ_j ψ'_j log EMD(S'_j, S)``
* auto-entropy ``H(S) = c + d Σ_i Σ_{j≠i} ψ_i ψ_j / (1 - ψ_i) log EMD(S_i, S_j)``
* cross-entropy ``H(S, S') = c + d Σ_i Σ_j ψ_i ψ'_j log EMD(S_i, S'_j)``

The constant ``c`` and effective dimension ``d`` cancel in both
change-point scores (the paper notes they are not essential), so they
default to ``0`` and ``1``.  Distances of exactly zero (identical
signatures) are floored at ``min_distance`` to keep the logarithm finite.

The estimators here operate on *precomputed* distance matrices so that the
Bayesian bootstrap can resample the weights ψ thousands of times without
recomputing a single EMD.

Each estimator comes in two forms: a scalar function taking one weight
vector, and a ``*_batch`` variant taking a ``(B, n)`` matrix of weight
vectors and returning all ``B`` values at once.  The batched forms clip
and log the distance matrix exactly once (or accept an already-logged
matrix via ``precomputed_log``, see :func:`log_distances`) and reduce the
replicates with matmul/einsum, which is what makes the Bayesian-bootstrap
confidence intervals of the detector cheap at hundreds of replicates per
inspection point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_weights
from ..exceptions import ValidationError
from ..signatures import Signature


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared constants of the information estimators.

    Attributes
    ----------
    constant:
        The additive constant ``c``; irrelevant for the change-point scores.
    dimension:
        The effective dimension ``d`` multiplying the log-distance terms.
    min_distance:
        Floor applied to distances before taking the logarithm, protecting
        against ``log(0)`` when two signatures coincide.
    """

    constant: float = 0.0
    dimension: float = 1.0
    min_distance: float = 1e-12

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValidationError("dimension must be positive")
        if self.min_distance <= 0:
            raise ValidationError("min_distance must be positive")


DEFAULT_CONFIG = EstimatorConfig()


def log_distances(
    distances: np.ndarray, config: EstimatorConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Clip ``distances`` at ``config.min_distance`` and take the log.

    This is the only transformation the estimators apply to the distance
    values; precomputing it once and passing the result to the batched
    estimators via ``precomputed_log`` lets a point score and all its
    bootstrap replicates share a single clip-and-log pass.
    """
    clipped = np.maximum(np.asarray(distances, dtype=float), config.min_distance)
    return np.log(clipped)


def _log_distances(distances: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    return log_distances(distances, config)


def _check_weight_matrix(weights: np.ndarray, name: str, n: int) -> np.ndarray:
    """Validate a ``(B, n)`` batch of weight vectors and normalise each row.

    A 1-D vector is promoted to a single-row batch so the scalar and the
    batched call sites can share code.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a (B, n) weight matrix, got {arr.ndim} dimensions")
    if arr.shape[1] != n:
        raise ValidationError(f"{name} must have {n} columns, got {arr.shape[1]}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    if np.any(arr < 0):
        raise ValidationError(f"{name} must be non-negative")
    totals = arr.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValidationError(f"every row of {name} must have positive total mass")
    return arr / totals


def _normalise_rows(weights: np.ndarray) -> np.ndarray:
    """Row-normalise a ``(B, n)`` batch the caller built and validated.

    The same arithmetic as :func:`_check_weight_matrix` without its
    checks: the private entry of callers that drew the weights
    themselves (:class:`~repro.core.score_engine.ScoreEngine`).
    """
    return weights / weights.sum(axis=1, keepdims=True)


def _resolve_log(
    distances: Optional[np.ndarray],
    precomputed_log: Optional[np.ndarray],
    config: EstimatorConfig,
    name: str,
) -> np.ndarray:
    if precomputed_log is not None:
        return np.asarray(precomputed_log, dtype=float)
    if distances is None:
        raise ValidationError(f"either {name} or precomputed_log must be provided")
    return log_distances(distances, config)


def information_content(
    distances_to_set: np.ndarray,
    set_weights: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> float:
    """Information content ``I(S; S')`` of a signature w.r.t. a weighted set.

    Parameters
    ----------
    distances_to_set:
        Vector of length ``m`` with ``EMD(S'_j, S)`` for every signature
        ``S'_j`` of the weighted set.
    set_weights:
        Weights ``ψ'_j`` of the set, which must sum to one (they are
        normalised if they do not).
    config:
        Estimator constants.
    """
    dist = np.asarray(distances_to_set, dtype=float).ravel()
    weights = check_weights(set_weights, "set_weights", normalize=True)
    if dist.shape != weights.shape:
        raise ValidationError(
            f"distances ({dist.shape[0]}) and weights ({weights.shape[0]}) must match"
        )
    return float(config.constant + config.dimension * np.sum(weights * _log_distances(dist, config)))


def information_content_batch(
    distances_to_set: Optional[np.ndarray],
    set_weights: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
    precomputed_log: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``I(S; S')`` for a batch of weight vectors (one value per row).

    Parameters
    ----------
    distances_to_set:
        Vector of length ``m`` with ``EMD(S'_j, S)``; may be ``None`` when
        ``precomputed_log`` is given.
    set_weights:
        ``(B, m)`` matrix of weight vectors (rows are normalised if they do
        not sum to one); a 1-D vector is treated as ``B = 1``.
    precomputed_log:
        Optional output of :func:`log_distances` to reuse across calls.
    """
    log_dist = _resolve_log(distances_to_set, precomputed_log, config, "distances_to_set").ravel()
    weights = _check_weight_matrix(set_weights, "set_weights", log_dist.shape[0])
    return _information_content_rows(log_dist, weights, config)


def _information_content_rows(
    log_dist: np.ndarray, weights: np.ndarray, config: EstimatorConfig
) -> np.ndarray:
    """:func:`information_content_batch` on normalised, validated rows."""
    return config.constant + config.dimension * (weights @ log_dist)


def auto_entropy(
    pairwise_distances: np.ndarray,
    weights: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> float:
    """Auto-entropy ``H(S)`` of a weighted signature set.

    Parameters
    ----------
    pairwise_distances:
        Symmetric ``(n, n)`` matrix with ``EMD(S_i, S_j)``; the diagonal is
        ignored (the ``j ≠ i`` restriction of the estimator).
    weights:
        Weights ``ψ_i`` of the set (normalised to sum to one).
    """
    dist = np.asarray(pairwise_distances, dtype=float)
    weights = check_weights(weights, "weights", normalize=True)
    n = weights.shape[0]
    if dist.shape != (n, n):
        raise ValidationError(
            f"pairwise_distances must have shape ({n}, {n}), got {dist.shape}"
        )
    log_dist = _log_distances(dist, config)
    # Outer weight product ψ_i ψ_j / (1 - ψ_i), with the diagonal removed.
    denom = 1.0 - weights
    # A weight of exactly 1 can only occur for a singleton set, where the
    # double sum is empty anyway; guard against division by zero.
    denom = np.where(denom <= 0, np.inf, denom)
    outer = (weights / denom)[:, None] * weights[None, :]
    np.fill_diagonal(outer, 0.0)
    return float(config.constant + config.dimension * np.sum(outer * log_dist))


def auto_entropy_batch(
    pairwise_distances: Optional[np.ndarray],
    weights: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
    precomputed_log: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``H(S)`` for a batch of weight vectors (one value per row).

    The ``(n, n)`` distance matrix is clipped and logged once; the ``j ≠ i``
    restriction is applied by zeroing the diagonal of the log matrix, and
    all ``B`` double sums reduce to a single einsum
    ``Σ_ij [ψ_i/(1−ψ_i)] ψ_j log d_ij``, whose contraction path is
    searched once per ``(B, n)`` shape and then reused.
    """
    log_dist = _resolve_log(pairwise_distances, precomputed_log, config, "pairwise_distances")
    if log_dist.ndim != 2 or log_dist.shape[0] != log_dist.shape[1]:
        raise ValidationError("pairwise_distances must be a square matrix")
    w = _check_weight_matrix(weights, "weights", log_dist.shape[0])
    return _auto_entropy_rows(log_dist, w, config)


_AUTO_ENTROPY = "bi,ij,bj->b"


@functools.lru_cache(maxsize=64)
def _auto_entropy_path(n_rows: int, n: int) -> Tuple[Any, ...]:
    """numpy's ``optimize=True`` contraction path for one operand shape.

    The path depends on nothing but the shapes, and searching it costs
    more than the contraction itself at bootstrap sizes; executing the
    cached path gives ``np.einsum(..., optimize=True)`` bit for bit.
    """
    ratio = np.empty((n_rows, n))
    path = np.einsum_path(_AUTO_ENTROPY, ratio, np.empty((n, n)), ratio, optimize=True)[0]
    return tuple(path)  # immutable: every caller shares the cached value


def _auto_entropy_rows(
    log_dist: np.ndarray, w: np.ndarray, config: EstimatorConfig
) -> np.ndarray:
    """:func:`auto_entropy_batch` on a square log matrix and normalised rows."""
    denom = 1.0 - w
    # As in the scalar path: a weight of exactly 1 only occurs for a
    # singleton set, where the double sum is empty; avoid dividing by zero.
    denom = np.where(denom <= 0, np.inf, denom)
    ratio = w / denom
    off_diag_log = log_dist.copy()
    np.fill_diagonal(off_diag_log, 0.0)
    return config.constant + config.dimension * np.einsum(
        _AUTO_ENTROPY, ratio, off_diag_log, w, optimize=_auto_entropy_path(*w.shape)
    )


def cross_entropy(
    cross_distances: np.ndarray,
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> float:
    """Cross-entropy ``H(S, S')`` between two weighted signature sets.

    Parameters
    ----------
    cross_distances:
        ``(n, m)`` matrix with ``EMD(S_i, S'_j)``.
    weights_a:
        Weights ``ψ_i`` of the first set.
    weights_b:
        Weights ``ψ'_j`` of the second set.
    """
    dist = np.asarray(cross_distances, dtype=float)
    wa = check_weights(weights_a, "weights_a", normalize=True)
    wb = check_weights(weights_b, "weights_b", normalize=True)
    if dist.shape != (wa.shape[0], wb.shape[0]):
        raise ValidationError(
            f"cross_distances must have shape ({wa.shape[0]}, {wb.shape[0]}), got {dist.shape}"
        )
    log_dist = _log_distances(dist, config)
    return float(config.constant + config.dimension * np.sum(np.outer(wa, wb) * log_dist))


def cross_entropy_batch(
    cross_distances: Optional[np.ndarray],
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
    precomputed_log: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``H(S, S')`` for a batch of weight-vector pairs (one value per row).

    ``weights_a`` is ``(B, n)`` and ``weights_b`` is ``(B, m)``; row ``b``
    of the result pairs row ``b`` of each.  The bilinear form
    ``ψᵀ log(D) ψ'`` is evaluated for all rows with one matmul.
    """
    log_dist = _resolve_log(cross_distances, precomputed_log, config, "cross_distances")
    if log_dist.ndim != 2:
        raise ValidationError("cross_distances must be a 2-D matrix")
    wa = _check_weight_matrix(weights_a, "weights_a", log_dist.shape[0])
    wb = _check_weight_matrix(weights_b, "weights_b", log_dist.shape[1])
    if wa.shape[0] != wb.shape[0]:
        raise ValidationError(
            f"weights_a ({wa.shape[0]} rows) and weights_b ({wb.shape[0]} rows) "
            "must have the same batch size"
        )
    return _cross_entropy_rows(log_dist, wa, wb, config)


def _cross_entropy_rows(
    log_dist: np.ndarray, wa: np.ndarray, wb: np.ndarray, config: EstimatorConfig
) -> np.ndarray:
    """:func:`cross_entropy_batch` on normalised, validated row pairs."""
    return config.constant + config.dimension * np.sum((wa @ log_dist) * wb, axis=1)


class WeightedInformationEstimator:
    """Object-oriented wrapper computing the estimators from signatures.

    This convenience class computes the necessary EMD values internally
    (optionally through an :class:`~repro.emd.EMDCache`) and is the
    friendly entry point for interactive use; the detector itself uses the
    array-level functions above on precomputed distance matrices for speed.
    """

    def __init__(
        self,
        *,
        config: EstimatorConfig = DEFAULT_CONFIG,
        ground_distance: str = "euclidean",
        backend: str = "auto",
        cache: Optional[object] = None,
    ):
        from ..emd import EMDCache  # local import to avoid a cycle at module load

        self.config = config
        self.cache = cache if cache is not None else EMDCache(
            ground_distance=ground_distance, backend=backend
        )

    def _distance(self, a: Signature, b: Signature) -> float:
        return self.cache.distance(a, b)

    def information_content(
        self, signature: Signature, signatures: Sequence[Signature], weights: np.ndarray
    ) -> float:
        """``I(signature; {signatures, weights})``."""
        dist = np.array([self._distance(s, signature) for s in signatures])
        return information_content(dist, weights, config=self.config)

    def auto_entropy(self, signatures: Sequence[Signature], weights: np.ndarray) -> float:
        """``H({signatures, weights})``."""
        n = len(signatures)
        dist = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = self._distance(signatures[i], signatures[j])
        return auto_entropy(dist, weights, config=self.config)

    def cross_entropy(
        self,
        signatures_a: Sequence[Signature],
        weights_a: np.ndarray,
        signatures_b: Sequence[Signature],
        weights_b: np.ndarray,
    ) -> float:
        """``H({signatures_a, weights_a}, {signatures_b, weights_b})``."""
        dist = np.zeros((len(signatures_a), len(signatures_b)))
        for i, sa in enumerate(signatures_a):
            for j, sb in enumerate(signatures_b):
                dist[i, j] = self._distance(sa, sb)
        return cross_entropy(dist, weights_a, weights_b, config=self.config)

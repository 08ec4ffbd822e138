"""Change-point scores on reference/test windows (paper Section 3.3).

Two scores are defined over the weighted reference set ``S_ref`` (the τ
bags before the inspection point ``t``) and the weighted test set
``S_test`` (the τ′ bags from ``t`` onward):

* :func:`score_likelihood_ratio` — Eq. 16,
  ``score_LR(S_t) = I(S_t; S_ref) − I(S_t; S_test \\ S_t)``;
* :func:`score_symmetric_kl` — Eq. 17,
  ``score_KL(S_t) = ½[H(S_ref,S_test) − H(S_ref) + H(S_ref,S_test) − H(S_test)]``.

Both are written as functions of precomputed EMD matrices and of the
window weight vectors, so the Bayesian bootstrap can resample the weights
cheaply without recomputing any distance.

Each score also has a ``*_batch`` form operating on a ``(B, τ)`` /
``(B, τ′)`` matrix of weight vectors at once.  The batched forms take a
:class:`LogWindowDistances` — the window's three EMD blocks already
clipped and logged — so the point score and all its bootstrap replicates
share a single log transform per window; :func:`score_batch` is the
batched counterpart of :func:`compute_score`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Tuple

import numpy as np

from ..exceptions import ConfigurationError, ValidationError
from ..information import (
    DEFAULT_CONFIG,
    EstimatorConfig,
    auto_entropy,
    cross_entropy,
    information_content,
    log_distances,
)
from ..information.estimators import (
    _auto_entropy_rows,
    _check_weight_matrix,
    _cross_entropy_rows,
    _information_content_rows,
    _normalise_rows,
)


@dataclass(frozen=True)
class WindowDistances:
    """EMD matrices for one inspection point.

    Attributes
    ----------
    ref_pairwise:
        ``(τ, τ)`` symmetric matrix of EMDs within the reference window.
    test_pairwise:
        ``(τ′, τ′)`` symmetric matrix of EMDs within the test window.
    cross:
        ``(τ, τ′)`` matrix with ``EMD(S_ref_i, S_test_j)``.
    """

    ref_pairwise: np.ndarray
    test_pairwise: np.ndarray
    cross: np.ndarray

    def __post_init__(self) -> None:
        ref = np.asarray(self.ref_pairwise, dtype=float)
        test = np.asarray(self.test_pairwise, dtype=float)
        cross = np.asarray(self.cross, dtype=float)
        if ref.ndim != 2 or ref.shape[0] != ref.shape[1]:
            raise ValidationError("ref_pairwise must be a square matrix")
        if test.ndim != 2 or test.shape[0] != test.shape[1]:
            raise ValidationError("test_pairwise must be a square matrix")
        if cross.shape != (ref.shape[0], test.shape[0]):
            raise ValidationError(
                f"cross must have shape ({ref.shape[0]}, {test.shape[0]}), got {cross.shape}"
            )
        object.__setattr__(self, "ref_pairwise", ref)
        object.__setattr__(self, "test_pairwise", test)
        object.__setattr__(self, "cross", cross)

    @property
    def n_reference(self) -> int:
        """Number of bags in the reference window (τ)."""
        return int(self.ref_pairwise.shape[0])

    @property
    def n_test(self) -> int:
        """Number of bags in the test window (τ′)."""
        return int(self.test_pairwise.shape[0])


@dataclass(frozen=True)
class LogWindowDistances:
    """Clipped-and-logged EMD matrices for one inspection point.

    The information estimators only ever consume ``log(max(d, floor))`` of
    the window distances, so precomputing that transform once per window
    lets the point score and every bootstrap replicate reuse it.  Built
    from a :class:`WindowDistances` via :meth:`from_window`, or directly
    from already-logged blocks (the online detector maintains a rolling
    logged matrix across pushes).

    Attributes
    ----------
    ref_log:
        ``(τ, τ)`` log-distance matrix of the reference window.
    test_log:
        ``(τ′, τ′)`` log-distance matrix of the test window.
    cross_log:
        ``(τ, τ′)`` log-distance matrix between the two windows.
    config:
        Estimator constants the blocks were logged under (``min_distance``
        is already applied; ``constant``/``dimension`` are applied by the
        estimators).
    """

    ref_log: np.ndarray
    test_log: np.ndarray
    cross_log: np.ndarray
    config: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self) -> None:
        ref = np.asarray(self.ref_log, dtype=float)
        test = np.asarray(self.test_log, dtype=float)
        cross = np.asarray(self.cross_log, dtype=float)
        if ref.ndim != 2 or ref.shape[0] != ref.shape[1]:
            raise ValidationError("ref_log must be a square matrix")
        if test.ndim != 2 or test.shape[0] != test.shape[1]:
            raise ValidationError("test_log must be a square matrix")
        if cross.shape != (ref.shape[0], test.shape[0]):
            raise ValidationError(
                f"cross_log must have shape ({ref.shape[0]}, {test.shape[0]}), got {cross.shape}"
            )
        object.__setattr__(self, "ref_log", ref)
        object.__setattr__(self, "test_log", test)
        object.__setattr__(self, "cross_log", cross)

    @classmethod
    def from_window(
        cls, window: WindowDistances, config: EstimatorConfig = DEFAULT_CONFIG
    ) -> "LogWindowDistances":
        """Clip and log the three blocks of ``window`` exactly once."""
        return cls(
            ref_log=log_distances(window.ref_pairwise, config),
            test_log=log_distances(window.test_pairwise, config),
            cross_log=log_distances(window.cross, config),
            config=config,
        )

    @property
    def n_reference(self) -> int:
        """Number of bags in the reference window (τ)."""
        return int(self.ref_log.shape[0])

    @property
    def n_test(self) -> int:
        """Number of bags in the test window (τ′)."""
        return int(self.test_log.shape[0])


def _check_weights(
    distances: WindowDistances,
    ref_weights: np.ndarray,
    test_weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    ref_w = np.asarray(ref_weights, dtype=float).ravel()
    test_w = np.asarray(test_weights, dtype=float).ravel()
    if ref_w.shape[0] != distances.n_reference:
        raise ValidationError(
            f"ref_weights has length {ref_w.shape[0]}, expected {distances.n_reference}"
        )
    if test_w.shape[0] != distances.n_test:
        raise ValidationError(
            f"test_weights has length {test_w.shape[0]}, expected {distances.n_test}"
        )
    return ref_w, test_w


def score_symmetric_kl(
    distances: WindowDistances,
    ref_weights: np.ndarray,
    test_weights: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> float:
    """Symmetrised KL-divergence change-point score (paper Eq. 17).

    ``½ [D_KL(S_ref || S_test) + D_KL(S_test || S_ref)]`` expressed with the
    distance-based estimators as
    ``H(S_ref, S_test) − ½ (H(S_ref) + H(S_test))``.
    """
    ref_w, test_w = _check_weights(distances, ref_weights, test_weights)
    h_cross = cross_entropy(distances.cross, ref_w, test_w, config=config)
    h_ref = auto_entropy(distances.ref_pairwise, ref_w, config=config)
    h_test = auto_entropy(distances.test_pairwise, test_w, config=config)
    return h_cross - 0.5 * (h_ref + h_test)


def score_likelihood_ratio(
    distances: WindowDistances,
    ref_weights: np.ndarray,
    test_weights: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
    inspection_index: int = 0,
) -> float:
    """Log-likelihood-ratio change-point score (paper Eq. 16).

    ``score_LR(S_t) = I(S_t; S_ref) − I(S_t; S_test \\ S_t)``, where ``S_t``
    is the signature at position ``inspection_index`` of the test window
    (the paper always uses the first test bag, i.e. the bag observed at the
    inspection point itself).
    """
    ref_w, test_w = _check_weights(distances, ref_weights, test_weights)
    k = int(inspection_index)
    if not 0 <= k < distances.n_test:
        raise ConfigurationError(
            f"inspection_index must lie in [0, {distances.n_test}), got {k}"
        )
    if distances.n_test < 2:
        raise ConfigurationError("the test window needs at least 2 bags for score_LR")

    # I(S_t; S_ref): distances from every reference signature to S_t.
    dist_ref_to_t = distances.cross[:, k]
    info_ref = information_content(dist_ref_to_t, ref_w, config=config)

    # I(S_t; S_test \ S_t): remaining test signatures, weights renormalised.
    mask = np.arange(distances.n_test) != k
    dist_test_to_t = distances.test_pairwise[mask, k]
    remaining_weights = test_w[mask]
    if remaining_weights.sum() <= 0:
        raise ValidationError("test weights excluding the inspection bag must have positive mass")
    info_test = information_content(dist_test_to_t, remaining_weights, config=config)
    return info_ref - info_test


def compute_score(
    kind: str,
    distances: WindowDistances,
    ref_weights: np.ndarray,
    test_weights: np.ndarray,
    *,
    config: EstimatorConfig = DEFAULT_CONFIG,
    inspection_index: int = 0,
) -> float:
    """Dispatch to :func:`score_symmetric_kl` (``"kl"``) or
    :func:`score_likelihood_ratio` (``"lr"``).

    ``inspection_index`` selects the test bag ``S_t`` of the ``"lr"``
    score; the ``"kl"`` score does not use it.
    """
    name = str(kind).lower()
    if name == "kl":
        return score_symmetric_kl(distances, ref_weights, test_weights, config=config)
    if name == "lr":
        return score_likelihood_ratio(
            distances,
            ref_weights,
            test_weights,
            config=config,
            inspection_index=inspection_index,
        )
    raise ConfigurationError(f"unknown score kind {kind!r}; expected 'kl' or 'lr'")


# ---------------------------------------------------------------------- #
# Batched scores (all bootstrap replicates in one shot)
# ---------------------------------------------------------------------- #
def _check_weight_batches(ref_weights, test_weights) -> tuple:
    """Promote both weight batches to 2-D and check their batch sizes match.

    Per-matrix validation (column counts, finiteness, non-negativity,
    normalisation) happens inside the batched estimators.
    """
    ref_w = np.asarray(ref_weights, dtype=float)
    test_w = np.asarray(test_weights, dtype=float)
    if ref_w.ndim == 1:
        ref_w = ref_w[None, :]
    if test_w.ndim == 1:
        test_w = test_w[None, :]
    if ref_w.ndim != 2 or test_w.ndim != 2:
        raise ValidationError("batched weights must be (B, n) matrices")
    if ref_w.shape[0] != test_w.shape[0]:
        raise ValidationError(
            f"ref_weights ({ref_w.shape[0]} rows) and test_weights ({test_w.shape[0]} rows) "
            "must have the same batch size"
        )
    return ref_w, test_w


def score_symmetric_kl_batch(
    log_window: LogWindowDistances,
    ref_weights: np.ndarray,
    test_weights: np.ndarray,
) -> np.ndarray:
    """Symmetrised KL score (Eq. 17) for a batch of weight-vector pairs.

    Row ``b`` of the result equals :func:`score_symmetric_kl` evaluated on
    row ``b`` of ``ref_weights``/``test_weights`` (up to floating-point
    reassociation, within ~1e-12); the three entropy terms reduce over all
    ``B`` replicates with single matmul/einsum contractions against the
    precomputed log blocks.
    """
    ref_w, test_w = _check_weight_batches(ref_weights, test_weights)
    return _symmetric_kl_rows(
        log_window,
        _check_weight_matrix(ref_w, "weights_a", log_window.n_reference),
        _check_weight_matrix(test_w, "weights_b", log_window.n_test),
    )


def _symmetric_kl_rows(
    log_window: LogWindowDistances, ref_p: np.ndarray, test_p: np.ndarray
) -> np.ndarray:
    """Eq. 17 on row-normalised ``(B, τ)``/``(B, τ′)`` weights, unchecked."""
    config = log_window.config
    h_cross = _cross_entropy_rows(log_window.cross_log, ref_p, test_p, config)
    h_ref = _auto_entropy_rows(log_window.ref_log, ref_p, config)
    h_test = _auto_entropy_rows(log_window.test_log, test_p, config)
    return h_cross - 0.5 * (h_ref + h_test)


def score_likelihood_ratio_batch(
    log_window: LogWindowDistances,
    ref_weights: np.ndarray,
    test_weights: np.ndarray,
    *,
    inspection_index: int = 0,
) -> np.ndarray:
    """Log-likelihood-ratio score (Eq. 16) for a batch of weight-vector pairs.

    Row ``b`` of the result equals :func:`score_likelihood_ratio` on row
    ``b`` of the weight matrices; both information-content terms are
    weighted sums over one column of the log blocks, evaluated for all
    replicates with a single matrix-vector product each.
    """
    ref_w, test_w = _check_weight_batches(ref_weights, test_weights)
    if test_w.shape[1] != log_window.n_test:
        raise ValidationError(
            f"test_weights has {test_w.shape[1]} columns, expected {log_window.n_test}"
        )
    k = int(inspection_index)
    if not 0 <= k < log_window.n_test:
        raise ConfigurationError(
            f"inspection_index must lie in [0, {log_window.n_test}), got {k}"
        )
    if log_window.n_test < 2:
        raise ConfigurationError("the test window needs at least 2 bags for score_LR")
    _check_weight_matrix(ref_w, "set_weights", log_window.n_reference)
    remaining = test_w[:, np.arange(log_window.n_test) != k]
    if np.any(remaining.sum(axis=1) <= 0):
        raise ValidationError("test weights excluding the inspection bag must have positive mass")
    _check_weight_matrix(remaining, "set_weights", log_window.n_test - 1)
    return _likelihood_ratio_rows(log_window, ref_w, test_w, k)


def _likelihood_ratio_rows(
    log_window: LogWindowDistances, ref_w: np.ndarray, test_w: np.ndarray, k: int
) -> np.ndarray:
    """Eq. 16 on raw ``(B, τ)``/``(B, τ′)`` weight rows, unchecked.

    The test rows are normalised only after the inspection bag is
    dropped, so ``S_test \\ S_t`` is weighted exactly as Eq. 16 asks.
    """
    config = log_window.config
    mask = np.arange(log_window.n_test) != k
    info_ref = _information_content_rows(
        log_window.cross_log[:, k], _normalise_rows(ref_w), config
    )
    info_test = _information_content_rows(
        log_window.test_log[mask, k], _normalise_rows(test_w[:, mask]), config
    )
    return info_ref - info_test


def score_batch(
    kind: str,
    log_window: LogWindowDistances,
    ref_weights: np.ndarray,
    test_weights: np.ndarray,
    *,
    inspection_index: int = 0,
) -> np.ndarray:
    """Batched counterpart of :func:`compute_score`.

    Dispatches to :func:`score_symmetric_kl_batch` (``"kl"``) or
    :func:`score_likelihood_ratio_batch` (``"lr"``); returns one score per
    row of the ``(B, τ)`` / ``(B, τ′)`` weight matrices.
    """
    name = str(kind).lower()
    if name == "kl":
        return score_symmetric_kl_batch(log_window, ref_weights, test_weights)
    if name == "lr":
        return score_likelihood_ratio_batch(
            log_window, ref_weights, test_weights, inspection_index=inspection_index
        )
    raise ConfigurationError(f"unknown score kind {kind!r}; expected 'kl' or 'lr'")


def _score_rows(
    kind: str,
    log_window: LogWindowDistances,
    ref_w: np.ndarray,
    test_w: np.ndarray,
    inspection_index: int,
) -> np.ndarray:
    """:func:`score_batch` without its weight checks.

    For :class:`~repro.core.score_engine.ScoreEngine`, which draws every
    weight row itself from a validated configuration: non-negative
    rows of positive mass, with one column per window bag.  The rows are
    still normalised, so each score equals :func:`score_batch`'s bit for
    bit.
    """
    if kind == "kl":
        return _symmetric_kl_rows(log_window, _normalise_rows(ref_w), _normalise_rows(test_w))
    return _likelihood_ratio_rows(log_window, ref_w, test_w, inspection_index)

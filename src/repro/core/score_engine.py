"""Batched bootstrap scoring engine shared by both detectors.

:class:`ScoreEngine` owns everything the detectors need *after* the EMD
values of a window are known: the estimator constants, the base window
weights (paper Eq. 15 / uniform), and the Bayesian bootstrap.  Its
central entry point :meth:`ScoreEngine.point_and_interval` computes the
point score and its percentile confidence interval (paper Section 4.2)
for one inspection point:

1. the window's three EMD blocks are clipped and logged exactly once
   (:class:`~repro.core.scores.LogWindowDistances`);
2. the base weights and all ``B`` resampled weight vectors are stacked
   into one ``(B + 1, τ)`` / ``(B + 1, τ′)`` matrix pair;
3. one batched score — :func:`~repro.core.scores.score_batch`'s
   arithmetic, minus its checks on weight rows the engine drew itself —
   reduces the whole stack with matmul/einsum contractions, with no
   per-replicate Python calls.

This replaces the seed implementation's loop of ``n_bootstrap`` scalar
``compute_score`` calls per inspection point, which re-validated and
re-logged the same matrices for every replicate.  Scores agree with the
scalar path to within ~1e-12 (floating-point reassociation only).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .._validation import as_rng
from ..bootstrap import BayesianBootstrap, ConfidenceInterval, percentile_interval
from ..exceptions import ConfigurationError, ValidationError
from ..information import resolve_weights
from .config import DetectorConfig
from .scores import LogWindowDistances, WindowDistances, _score_rows

WindowInput = Union[WindowDistances, LogWindowDistances]


class ScoreEngine:
    """Computes change-point scores and bootstrap intervals for windows.

    Parameters
    ----------
    config:
        The detector configuration; the engine reads the score kind, the
        window lengths, the weighting scheme, the estimator constants and
        the bootstrap parameters from it.
    rng:
        Generator (or seed) driving the Dirichlet weight resampling.
        Detectors pass their own generator so the bootstrap draws stay on
        the same stream as signature construction.

    Attributes
    ----------
    ref_weights, test_weights:
        The base (non-resampled) weight vectors of the reference and test
        windows, resolved from ``config.weighting``.
    bootstrap:
        The :class:`~repro.bootstrap.BayesianBootstrap` used for the
        confidence intervals.
    """

    def __init__(
        self,
        config: DetectorConfig,
        rng: Union[None, int, np.random.Generator] = None,
    ):
        self.config = config
        self.ref_weights = resolve_weights(config.weighting, config.tau, is_test=False)
        self.test_weights = resolve_weights(config.weighting, config.tau_test, is_test=True)
        self.bootstrap = BayesianBootstrap(
            config.n_bootstrap,
            alpha=config.alpha,
            rng=as_rng(rng if rng is not None else config.random_state),
        )
        # The base weights are constant, so their Dirichlet parameters
        # are validated here once, not on every resample.
        self._draw_ref = self.bootstrap.weight_sampler(config.tau, self.ref_weights)
        self._draw_test = self.bootstrap.weight_sampler(config.tau_test, self.test_weights)

    # ------------------------------------------------------------------ #
    # Window preparation
    # ------------------------------------------------------------------ #
    def log_window(self, window: WindowInput) -> LogWindowDistances:
        """Clip-and-log ``window`` once (pass-through if already logged).

        A prebuilt :class:`~repro.core.scores.LogWindowDistances` must have
        been logged under this engine's estimator constants — a mismatch
        would silently score with the wrong floor/dimension.  Either kind
        must span ``τ`` reference and ``τ′`` test bags: the engine scores
        it with weight rows it drew itself, unchecked.
        """
        cfg = self.config
        if (window.n_reference, window.n_test) != (cfg.tau, cfg.tau_test):
            raise ValidationError(
                f"window has {window.n_reference} reference and {window.n_test} "
                f"test bags, but this ScoreEngine scores tau={cfg.tau}, "
                f"tau_test={cfg.tau_test}"
            )
        if isinstance(window, LogWindowDistances):
            if window.config != cfg.estimator:
                raise ConfigurationError(
                    "LogWindowDistances was built with estimator constants "
                    f"{window.config} but this ScoreEngine uses {cfg.estimator}"
                )
            return window
        return LogWindowDistances.from_window(window, cfg.estimator)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def point_score(self, window: WindowInput) -> float:
        """Score of the window under the base (non-resampled) weights.

        It can differ in the last ulp from the point of
        :meth:`point_and_interval` on the same window: this one-row
        product takes another BLAS kernel than that method's ``(B + 1)``-row
        batch.  The detectors report the latter.
        """
        scores = self._scores(
            self.log_window(window), self.ref_weights[None, :], self.test_weights[None, :]
        )
        return float(scores[0])

    def _scores(
        self, log_window: LogWindowDistances, ref_w: np.ndarray, test_w: np.ndarray
    ) -> np.ndarray:
        """:func:`~repro.core.scores.score_batch` on weight rows this engine drew."""
        cfg = self.config
        return _score_rows(cfg.score, log_window, ref_w, test_w, cfg.lr_inspection_index)

    def replicate_scores(
        self, window: WindowInput, *, include_point: bool = False
    ) -> np.ndarray:
        """All ``B`` bootstrap-replicated scores of the window.

        With ``include_point=True`` the base-weight score is prepended, so
        one batched call yields the point score and every replicate from
        the same logged matrices.
        """
        log_window = self.log_window(window)
        ref_resampled = self._draw_ref()
        test_resampled = self._draw_test()
        if include_point:
            ref_resampled = np.vstack([self.ref_weights[None, :], ref_resampled])
            test_resampled = np.vstack([self.test_weights[None, :], test_resampled])
        return self._scores(log_window, ref_resampled, test_resampled)

    def masked_point_and_interval(self) -> Tuple[float, ConfidenceInterval]:
        """NaN score and interval for a window holding masked distances.

        A degraded stream (one whose solver failed a push) carries NaN
        entries in its rolling window; the estimators cannot score such
        a window, but the stream must keep emitting.  This draws — and
        discards — exactly the bootstrap weights a scored window would
        consume, so the stream's generator stays in lockstep with an
        unfaulted run and its scores re-converge bit-for-bit once the
        masked bag has left the window.
        """
        self._draw_ref()
        self._draw_test()
        nan = float("nan")
        return nan, ConfidenceInterval(
            lower=nan, upper=nan, level=1.0 - self.config.alpha, point=nan
        )

    def point_and_interval(
        self, window: WindowInput
    ) -> Tuple[float, ConfidenceInterval]:
        """Point score and percentile confidence interval for one window.

        Accepts either raw :class:`~repro.core.scores.WindowDistances` or a
        prebuilt :class:`~repro.core.scores.LogWindowDistances` (the online
        detector maintains the latter incrementally across pushes).
        """
        scores = self.replicate_scores(window, include_point=True)
        point = float(scores[0])
        interval = percentile_interval(scores[1:], self.config.alpha, point=point)
        return point, interval

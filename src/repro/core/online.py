"""Streaming (online) variant of the bag-of-data change-point detector.

Bags are pushed one at a time; a score for inspection point ``t`` can be
emitted as soon as the τ′-th bag of its test window (i.e. bag
``t + τ′ − 1``) has arrived, so the detector reports with an inherent lag
of τ′ − 1 steps.

Consecutive inspection points share all but one signature, so the
detector keeps one rolling ``(τ + τ′) × (τ + τ′)`` matrix of pairwise
EMD values and, on each :meth:`push`, shifts it up-left by one row and
column (reusing every overlapping entry) and computes only the
``τ + τ′ − 1`` new distances that involve the arriving bag — batched
through :class:`~repro.emd.PairwiseEMDEngine`.  Memory stays bounded by
O((τ + τ′)²) distances, and (with ``DetectorConfig.history_limit`` set)
by O(history_limit) retained score points.

Scoring is delegated to the batched
:class:`~repro.core.score_engine.ScoreEngine`.  A second rolling matrix
holds the *clipped-and-logged* distances (the only form the estimators
consume), so each push logs just the ``τ + τ′ − 1`` arriving values and
every inspection point reuses the logged entries of all previous pushes.

Robustness contract (the streaming service builds on these):

* **Failed pushes are retryable.**  :meth:`push` mutates no detector
  state — not the signature window, not the rolling matrices, not even
  the random generator — until the arriving bag's distances have been
  solved.  A :class:`~repro.exceptions.SolverError` mid-push therefore
  leaves the detector exactly as it was, and retrying the same push
  replays the identical signature-construction draws.
* **State is serialisable.**  :meth:`state_dict` captures everything a
  bit-identical continuation needs (signature window, rolling matrices,
  RNG bit-generator state, threshold intervals, history tail) and
  :meth:`from_state_dict` rebuilds a detector whose subsequent scores
  match an uninterrupted run to float equality.  The stamped on-disk
  form lives in :mod:`repro.service.snapshots`.
* **Lifecycle is explicit.**  A closed detector raises
  :class:`~repro.exceptions.DetectorClosedError` from :meth:`push`
  instead of surfacing whatever the released engine happens to throw,
  and :meth:`close` is idempotent.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .._validation import as_rng
from ..bootstrap import ConfidenceInterval
from ..emd import PairwiseEMDEngine
from ..exceptions import (
    CheckpointError,
    DetectorClosedError,
    SolverError,
    ValidationError,
)
from ..signatures import Signature, SignatureBuilder
from .config import DetectorConfig
from .results import DetectionResult, ScorePoint
from .score_engine import ScoreEngine
from .scores import LogWindowDistances
from .thresholding import AdaptiveThreshold

#: Version of the :meth:`OnlineBagDetector.state_dict` layout; bumped on
#: layout changes so a stale snapshot is rejected instead of misread.
STATE_FORMAT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class PendingPush:
    """The solve-ready first half of a :meth:`OnlineBagDetector.push`.

    Produced by :meth:`OnlineBagDetector.prepare`: the arriving bag has
    been quantised into its signature and the ``(older, new)`` signature
    pairs whose distances the push needs have been enumerated, but *no*
    detector state has been mutated yet (only the shared random
    generator has advanced past the signature-construction draws, which
    :meth:`OnlineBagDetector.rollback` rewinds).  A caller — typically
    :class:`repro.service.StreamSupervisor`'s cross-stream batched
    drain — solves :attr:`pairs` however it likes (stacked with other
    streams' pairs, per-pair, masked) and hands the distances to
    :meth:`OnlineBagDetector.commit`.

    Attributes
    ----------
    index:
        The arriving bag's stream index (``detector.n_seen`` at
        :meth:`~OnlineBagDetector.prepare` time).  Commit and rollback
        validate it, so a stale or doubly-committed pending push is an
        error rather than silent corruption.
    signature:
        The quantised arriving bag.
    pairs:
        The ``(older, signature)`` pairs needing distances, oldest
        first — exactly the order :meth:`~OnlineBagDetector.push` would
        solve them in, so scattering externally computed distances
        commits bit-identically.
    rng_state:
        The generator's bit-generator state captured *before* the
        signature build; :meth:`~OnlineBagDetector.rollback` restores
        it so a retried push replays identical draws.
    """

    index: int
    signature: Signature
    pairs: Tuple[Tuple[Signature, Signature], ...]
    rng_state: Dict[str, Any]


class OnlineBagDetector:
    """Incremental detector consuming one bag per :meth:`push` call.

    Parameters
    ----------
    config:
        Detector configuration (same object as the offline detector).
        Keyword arguments may be passed instead and are forwarded to the
        config.

    Notes
    -----
    :meth:`push` returns ``None`` until enough bags have arrived to form a
    complete reference + test window; afterwards it returns one
    :class:`~repro.core.ScorePoint` per call, for the inspection point
    ``t = current_index − τ′ + 1``.
    """

    def __init__(self, config: Optional[DetectorConfig] = None, **kwargs: object) -> None:
        if config is None:
            config = DetectorConfig(**kwargs)  # type: ignore[arg-type]
        elif kwargs:
            raise ValidationError("pass either a DetectorConfig or keyword arguments, not both")
        self.config = config
        if config.signature_method == "histogram" and config.histogram_range is None:
            warnings.warn(
                "signature_method='histogram' without histogram_range bins each bag "
                "on its own min/max, so the stream's histograms never share a grid "
                "(the same bin is a different place in every bag); declare "
                "histogram_range to compare bags bin for bin",
                UserWarning,
                stacklevel=2,
            )
        self._rng = as_rng(config.random_state)
        self._builder = SignatureBuilder(
            config.signature_method,
            n_clusters=config.n_clusters,
            bins=config.bins,
            histogram_range=config.histogram_range,
            random_state=self._rng,
        )
        self._engine = PairwiseEMDEngine(
            ground_distance=config.ground_distance,
            parallel_backend=config.parallel_backend,
            n_workers=config.n_workers,
        )
        self._score_engine = ScoreEngine(config, rng=self._rng)
        self._threshold = AdaptiveThreshold(config.tau_test)

        span = config.window_span
        self._signatures: Deque[Tuple[int, Signature]] = deque(maxlen=span)
        # Rolling pairwise-EMD matrix of the signatures currently in the
        # window: entry (a, b) is the distance between the a-th and b-th
        # oldest of them.  Shifted, not rebuilt, as the window slides.
        self._window_matrix = np.zeros((span, span), dtype=float)
        # Rolling clipped-and-logged copy of the same matrix: each push
        # logs only the arriving row/column, so inspection points never
        # re-log distances carried over from previous pushes.
        self._log_floor = float(np.log(config.estimator.min_distance))
        self._log_matrix = np.full((span, span), self._log_floor, dtype=float)
        self._next_index = 0
        # Emitted score points; bounded when config.history_limit is set
        # so a long-running stream's memory stays O(limit).
        self._history: Deque[ScorePoint] = deque(maxlen=config.history_limit)
        self._history_result: Optional[DetectionResult] = None
        self._n_distance_evaluations = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release the EMD engine's worker pool (idempotent).

        Only needed when ``parallel_backend`` is ``"process"`` — the
        engine keeps its pool alive across pushes.  A closed
        detector raises :class:`~repro.exceptions.DetectorClosedError`
        from :meth:`push`; its history and :meth:`state_dict` stay
        readable, so a supervised stream can still be snapshotted during
        teardown.
        """
        if self._closed:
            return
        self._engine.close()
        self._closed = True

    def __enter__(self) -> "OnlineBagDetector":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DetectorClosedError(
                "this OnlineBagDetector has been closed and cannot consume "
                "more bags; create a new detector, or restore one from a "
                "snapshot with OnlineBagDetector.from_state_dict()"
            )

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _pending_pairs(self, signature: Signature) -> Tuple[Tuple[Signature, Signature], ...]:
        """The ``(older, new)`` pairs an arriving signature needs solved.

        Exactly ``len(window) − 1`` pairs (τ + τ′ − 1 once the window is
        full); when the window is full its oldest signature is about to
        leave and needs no distance.  Older signature first in each
        pair, matching the offline band's (i, j) ordering so both paths
        agree bit-for-bit.
        """
        staying = list(self._signatures)
        if len(staying) == self.config.window_span:
            staying = staying[1:]
        return tuple((entry[1], signature) for entry in staying)

    def _apply_distances(self, signature: Signature, new_distances: np.ndarray) -> None:
        """Slide the rolling matrix and scatter the arriving distances in.

        The mutation half of a push: every entry except the arriving
        row/column is reused from the previous step.  NaN distances (the
        masked/degraded path) propagate into the log matrix, where
        :meth:`_emit` detects them.
        """
        span = self.config.window_span
        if len(self._signatures) == span:
            # The oldest signature leaves: shift the kept blocks up-left.
            self._window_matrix[:-1, :-1] = self._window_matrix[1:, 1:]
            self._log_matrix[:-1, :-1] = self._log_matrix[1:, 1:]
        self._signatures.append((self._next_index, signature))
        m = len(self._signatures)
        if m > 1:
            self._window_matrix[m - 1, : m - 1] = new_distances
            self._window_matrix[: m - 1, m - 1] = new_distances
            # np.maximum propagates NaN, so masked entries stay NaN in
            # the log matrix too and _emit can detect them.
            new_logs = np.log(
                np.maximum(new_distances, self.config.estimator.min_distance)
            )
            self._log_matrix[m - 1, : m - 1] = new_logs
            self._log_matrix[: m - 1, m - 1] = new_logs
        self._window_matrix[m - 1, m - 1] = 0.0
        self._log_matrix[m - 1, m - 1] = self._log_floor

    def _emit(self) -> Optional[ScorePoint]:
        """Score the current window once it is full and record the point."""
        cfg = self.config
        if len(self._signatures) < cfg.window_span:
            return None
        inspection_time = self._signatures[cfg.tau][0]
        if np.isnan(self._log_matrix).any():
            # The window still contains a masked (failed) bag: the
            # estimators cannot score it, but the bootstrap draws are
            # consumed anyway so the stream re-converges with an
            # unfaulted run once the masked bag leaves the window.
            point_score, interval = self._score_engine.masked_point_and_interval()
        else:
            log_window = LogWindowDistances(
                ref_log=self._log_matrix[: cfg.tau, : cfg.tau].copy(),
                test_log=self._log_matrix[cfg.tau :, cfg.tau :].copy(),
                cross_log=self._log_matrix[: cfg.tau, cfg.tau :].copy(),
                config=cfg.estimator,
            )
            point_score, interval = self._score_engine.point_and_interval(log_window)
        gamma, alert = self._threshold.update(inspection_time, interval)
        point = ScorePoint(
            time=inspection_time,
            score=point_score,
            interval=interval,
            gamma=gamma,
            alert=alert,
        )
        self._history.append(point)
        self._history_result = None
        return point

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def n_seen(self) -> int:
        """Number of bags pushed so far."""
        return self._next_index

    @property
    def n_distance_evaluations(self) -> int:
        """Solved (finite) distances this detector object has committed.

        Counted at :meth:`commit`, so it is the same whoever solved the
        pairs: :meth:`push`'s own engine, or a supervisor round's shared
        one.  Masked entries (:meth:`push_masked`, degraded commits)
        count 0.  Not part of :meth:`state_dict`: a restored detector
        starts from 0.
        """
        return self._n_distance_evaluations

    @property
    def history(self) -> DetectionResult:
        """The retained score points, as a :class:`DetectionResult`.

        Bounded to the ``config.history_limit`` most recent points when
        a limit is set.  The result is cached between pushes (no full
        re-copy per access) and rebuilt lazily after the next emission;
        treat it as read-only.
        """
        if self._history_result is None:
            self._history_result = DetectionResult(points=list(self._history))
        return self._history_result

    def prepare(self, bag: np.ndarray) -> PendingPush:
        """Phase one of a push: quantise the bag, enumerate its pairs.

        Returns a :class:`PendingPush` holding the arriving signature
        and the ``(older, new)`` signature pairs whose distances the
        push needs — *without* mutating any detector state (the rolling
        matrices, window and counter are untouched; only the shared
        random generator has advanced past the signature-construction
        draws, and the pending push remembers how to rewind it).  Solve
        the pairs — in any batch, stacked with other detectors' pairs —
        and hand the distances to :meth:`commit`; a caller abandoning
        the push (e.g. because the external solve failed) must call
        :meth:`rollback` instead.

        A :class:`~repro.exceptions.SolverError` raised by the signature
        build itself (stochastic quantisers can solve internally) rewinds
        the generator before propagating, so ``prepare`` keeps the same
        retryability contract as :meth:`push`.
        """
        self._check_open()
        index = self._next_index
        data = np.asarray(bag, dtype=float)
        rng_state = self._rng.bit_generator.state
        try:
            signature = self._builder.build(data, label=index)
        except SolverError:
            self._rng.bit_generator.state = rng_state
            raise
        return PendingPush(
            index=index,
            signature=signature,
            pairs=self._pending_pairs(signature),
            rng_state=rng_state,
        )

    def _check_pending(self, pending: PendingPush) -> None:
        if pending.index != self._next_index:
            raise ValidationError(
                f"pending push is for bag index {pending.index}, but this "
                f"detector is at index {self._next_index}; each prepared "
                "push must be committed or rolled back exactly once, "
                "before the next prepare()"
            )

    def commit(
        self, pending: PendingPush, distances: np.ndarray
    ) -> Optional[ScorePoint]:
        """Phase two of a push: scatter solved distances, score, record.

        ``distances[k]`` must be the EMD of ``pending.pairs[k]`` (NaN
        entries take the masked/degraded path).  Committing a prepared
        push with the distances its own engine would have computed is
        bit-identical to :meth:`push` — same matrix updates, same
        bootstrap draws, same emitted point.  A stale pending push (the
        detector has moved on, or it was already committed) is rejected
        with :class:`~repro.exceptions.ValidationError`.
        """
        self._check_open()
        self._check_pending(pending)
        values = np.asarray(distances, dtype=float)
        if values.shape != (len(pending.pairs),):
            raise ValidationError(
                f"expected {len(pending.pairs)} distances for this pending "
                f"push, got array of shape {values.shape}"
            )
        self._apply_distances(pending.signature, values)
        self._next_index += 1
        self._n_distance_evaluations += int(np.isfinite(values).sum())
        return self._emit()

    def rollback(self, pending: PendingPush) -> None:
        """Abandon a prepared push, rewinding the generator draws.

        Restores the random generator to its pre-:meth:`prepare` state
        (the signature build may have consumed draws), so re-preparing
        the same bag replays identical draws and the stream stays
        convergent with an unfaulted run.  No other state needs undoing —
        :meth:`prepare` mutates nothing else.
        """
        self._check_open()
        self._check_pending(pending)
        self._rng.bit_generator.state = pending.rng_state

    def push(self, bag: np.ndarray) -> Optional[ScorePoint]:
        """Consume one bag; return a score point once the window is full.

        Exactly :meth:`prepare` → solve → :meth:`commit` on the
        detector's own engine.  A
        :class:`~repro.exceptions.SolverError` raised by the arriving
        bag's distance solves leaves the detector untouched — including
        the random generator, which is rewound past the signature
        construction draws — so the same push can simply be retried.
        """
        pending = self.prepare(bag)
        try:
            distances = self._engine.compute_pairs(list(pending.pairs))
        except SolverError:
            # Rewind the signature-construction draws so a retried push
            # replays the identical draws and converges with an
            # unfaulted run.
            self.rollback(pending)
            raise
        return self.commit(pending, distances)

    def push_masked(self, bag: np.ndarray) -> Optional[ScorePoint]:
        """Consume one bag *without solving*: its distances enter as NaN.

        The degraded-service path for a bag whose :meth:`push` failed
        with a :class:`~repro.exceptions.SolverError`: the stream keeps
        advancing, every inspection point whose window still contains
        the masked bag emits a NaN score (never an alert), and once the
        bag has left the window the scores are again bit-identical to an
        unfaulted run (the signature draws and bootstrap draws are
        consumed identically either way).
        """
        pending = self.prepare(bag)
        return self.commit(pending, np.full(len(pending.pairs), np.nan))

    def push_many(self, bags: Any) -> List[ScorePoint]:
        """Push a sequence of bags, returning the score points that were emitted."""
        emitted: List[ScorePoint] = []
        for bag in bags:
            point = self.push(bag)
            if point is not None:
                emitted.append(point)
        return emitted

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Everything a bit-identical continuation of this stream needs.

        The returned mapping holds plain arrays, scalars and frozen
        value objects (safe to serialise):

        * ``format_version`` — :data:`STATE_FORMAT_VERSION`;
        * ``n_seen`` — bags consumed so far;
        * ``signatures`` — the ``(index, Signature)`` window entries;
        * ``window_matrix`` / ``log_matrix`` — the rolling matrices;
        * ``rng_state`` — the generator's bit-generator state (both the
          signature builder and the bootstrap draw from this one
          generator, so restoring it restores every future draw);
        * ``threshold`` — the ``lag`` most recent confidence intervals
          (the only ones a future γ can reference);
        * ``history`` — the retained :class:`ScorePoint` tail.

        The stamped, checksummed on-disk form is produced by
        :func:`repro.service.snapshots.save_stream_snapshot`.
        """
        return {
            "format_version": STATE_FORMAT_VERSION,
            "n_seen": int(self._next_index),
            "signatures": list(self._signatures),
            "window_matrix": self._window_matrix.copy(),
            "log_matrix": self._log_matrix.copy(),
            "rng_state": self._rng.bit_generator.state,
            "threshold": self._threshold.state(tail_only=True),
            "history": list(self._history),
        }

    @classmethod
    def from_state_dict(
        cls,
        state: Mapping[str, Any],
        config: Optional[DetectorConfig] = None,
        **kwargs: object,
    ) -> "OnlineBagDetector":
        """Rebuild a detector that continues exactly where ``state`` left off.

        ``config`` (or keyword arguments) must describe the same
        computation as the snapshotted stream — window lengths, solver,
        score, bootstrap size; a mismatched geometry or RNG family is
        rejected with :class:`~repro.exceptions.CheckpointError`.  The
        stamped on-disk loader
        (:func:`repro.service.snapshots.load_stream_snapshot`) addition­
        ally verifies a config fingerprint and payload checksum before
        the state ever reaches this method.
        """
        detector = cls(config, **kwargs)
        version = int(state.get("format_version", -1))
        if version != STATE_FORMAT_VERSION:
            raise CheckpointError(
                f"stream state has format version {version}, expected "
                f"{STATE_FORMAT_VERSION}; re-snapshot the stream with this "
                "library version"
            )
        span = detector.config.window_span
        window_matrix = np.asarray(state["window_matrix"], dtype=float)
        log_matrix = np.asarray(state["log_matrix"], dtype=float)
        if window_matrix.shape != (span, span) or log_matrix.shape != (span, span):
            raise CheckpointError(
                f"stream state was captured with window span "
                f"{window_matrix.shape[0]}, but this config has "
                f"tau + tau_test = {span}; restore with the original "
                "tau/tau_test"
            )
        entries: List[Tuple[int, Signature]] = [
            (int(index), signature) for index, signature in state["signatures"]
        ]
        if len(entries) > span:
            raise CheckpointError(
                f"stream state holds {len(entries)} window signatures, "
                f"more than the window span {span}"
            )
        rng_state = dict(state["rng_state"])
        bit_generator = detector._rng.bit_generator
        current_family = type(bit_generator).__name__
        saved_family = str(rng_state.get("bit_generator"))
        if saved_family != current_family:
            raise CheckpointError(
                f"stream state was captured from a {saved_family} bit "
                f"generator but this config yields {current_family}; "
                "restore with the original random_state family"
            )
        # In-place: the signature builder and the bootstrap hold this
        # same Generator object, so every future draw is restored too.
        bit_generator.state = rng_state
        detector._signatures.extend(entries)
        detector._window_matrix[...] = window_matrix
        detector._log_matrix[...] = log_matrix
        detector._next_index = int(state["n_seen"])
        threshold_state: Mapping[int, ConfidenceInterval] = state["threshold"]
        detector._threshold.restore(threshold_state)
        detector._history.extend(state["history"])
        detector._history_result = None
        return detector

"""Offline bag-of-data change-point detector (the paper's main algorithm).

:class:`BagChangePointDetector` runs the full pipeline over a complete
sequence of bags:

1. build a signature per bag (Section 3.1);
2. compute the EMD between every pair of signatures that can ever share a
   reference/test window (Section 3.2) — only a band of width τ + τ′ of
   the full pairwise matrix is needed;
3. at each inspection point ``t`` compute the change-point score
   (Section 3.3) and its Bayesian-bootstrap confidence interval
   (Section 4.2) through the batched
   :class:`~repro.core.score_engine.ScoreEngine` — the point score and
   all replicates share one log transform and one array contraction;
4. apply the adaptive interval-overlap test to decide where alerts are
   raised (Section 4.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from .._typing import IntArray
from .._validation import as_rng
from ..emd import BandedDistanceMatrix, PairwiseEMDEngine
from ..emd.orchestrator import RetryPolicy, ShardOrchestrator
from ..emd.sharding import EngineSettings, ShardPlan
from ..exceptions import ValidationError
from ..signatures import Signature, SignatureBuilder
from .bag import BagSequence
from .config import DetectorConfig
from .results import DetectionResult, ScorePoint
from .score_engine import ScoreEngine
from .scores import WindowDistances
from .segmentation import merge_close_alarms
from .thresholding import AdaptiveThreshold

BagsInput = Union[BagSequence, Sequence[np.ndarray], Sequence[Signature]]


class BagChangePointDetector:
    """Change-point detector for sequences of bags of data.

    Parameters
    ----------
    config:
        A fully specified :class:`~repro.core.DetectorConfig`.  Keyword
        arguments may be passed instead and are forwarded to the config.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import BagChangePointDetector
    >>> rng = np.random.default_rng(0)
    >>> bags = [rng.normal(0, 1, size=(50, 2)) for _ in range(10)]
    >>> bags += [rng.normal(4, 1, size=(50, 2)) for _ in range(10)]
    >>> detector = BagChangePointDetector(tau=5, tau_test=5, random_state=0)
    >>> result = detector.detect(bags)
    >>> bool(result.alerts.any())
    True
    """

    def __init__(self, config: Optional[DetectorConfig] = None, **kwargs: object) -> None:
        if config is None:
            config = DetectorConfig(**kwargs)
        elif kwargs:
            raise ValidationError("pass either a DetectorConfig or keyword arguments, not both")
        self.config = config
        self._rng = as_rng(config.random_state)
        self._engine = PairwiseEMDEngine(
            ground_distance=config.ground_distance,
            backend=config.emd_backend,
            parallel_backend=config.parallel_backend,
            n_workers=config.n_workers,
            sinkhorn_epsilon=config.sinkhorn_epsilon,
            sinkhorn_max_iter=config.sinkhorn_max_iter,
            sinkhorn_tol=config.sinkhorn_tol,
            sinkhorn_anneal=config.sinkhorn_anneal,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the EMD engine's worker pool (idempotent).

        Only needed when ``parallel_backend`` is ``"thread"``/``"process"``
        — the engine keeps its pool alive across calls; a closed detector
        cannot ``detect`` again.
        """
        self._engine.close()

    def __enter__(self) -> "BagChangePointDetector":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Signature construction
    # ------------------------------------------------------------------ #
    def build_signatures(self, bags: BagsInput) -> List[Signature]:
        """Turn the input into a list of signatures, one per time step.

        k-means bags are seeded serially, in bag order, and refined on
        the EMD engine's worker pool (when ``parallel_backend`` has one),
        so signatures and the generator's state match a bag-by-bag build.
        """
        if isinstance(bags, BagSequence):
            arrays = bags.arrays()
        elif len(bags) > 0 and isinstance(bags[0], Signature):
            return list(bags)  # already signatures
        else:
            arrays = [np.asarray(bag, dtype=float) for bag in bags]
        builder = SignatureBuilder(
            self.config.signature_method,
            n_clusters=self.config.n_clusters,
            bins=self.config.bins,
            histogram_range=self.config.histogram_range,
            random_state=self._rng,
        )
        return builder.build_sequence(arrays, mapper=self._engine.map)

    # ------------------------------------------------------------------ #
    # Distance computation
    # ------------------------------------------------------------------ #
    def _banded_distances(self, signatures: Sequence[Signature]) -> BandedDistanceMatrix:
        """Pairwise EMD values inside the band that windows can reach.

        Signature ``i`` and ``j`` appear in the same reference/test window
        only when ``|i − j| < τ + τ′``; only those entries are computed
        (in batches, through :class:`~repro.emd.PairwiseEMDEngine`) and
        stored.  With ``config.n_shards`` set, the band is built through
        the fault-tolerant :class:`~repro.emd.orchestrator.ShardOrchestrator`
        instead — row-block shards executed process-parallel when
        ``parallel_backend="process"`` (signatures in shared memory, one
        placement per worker) and sequentially otherwise, with per-shard
        retry/backoff (``config.shard_retries``), optional timeouts
        (``config.shard_timeout``), poison-pair quarantine
        (``config.on_poison_pair``), checkpointing per shard when
        ``config.shard_checkpoint_dir`` is set, then merged into the
        identical banded matrix.
        """
        cfg = self.config
        if cfg.n_shards is not None or cfg.shard_checkpoint_dir is not None:
            # A checkpoint dir alone still means "make the build
            # resumable": run it as a single checkpointed shard.
            plan = ShardPlan.build(len(signatures), cfg.window_span, cfg.n_shards or 1)
            orchestrator = ShardOrchestrator(
                plan,
                EngineSettings.from_config(cfg),
                policy=RetryPolicy.from_config(cfg),
                mode="process" if cfg.parallel_backend == "process" else "serial",
                n_workers=cfg.n_workers,
                checkpoint_dir=cfg.shard_checkpoint_dir,
            )
            return orchestrator.run(signatures)
        return self._engine.banded_matrix(signatures, self.config.window_span)

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def detect(
        self,
        bags: BagsInput,
        *,
        return_distance_matrix: bool = False,
    ) -> DetectionResult:
        """Run detection over a full sequence of bags.

        Parameters
        ----------
        bags:
            A :class:`~repro.core.BagSequence`, a list of ``(n_t, d)``
            arrays, or a list of prebuilt :class:`~repro.signatures.Signature`.
        return_distance_matrix:
            Attach the (banded) pairwise EMD matrix to the result, as
            visualised in the paper's Fig. 6 left panels.

        Returns
        -------
        DetectionResult
            One :class:`~repro.core.ScorePoint` per inspection point
            ``t ∈ [τ, T − τ′]``.
        """
        cfg = self.config
        signatures = self.build_signatures(bags)
        n = len(signatures)
        if n < cfg.window_span:
            raise ValidationError(
                f"need at least tau + tau_test = {cfg.window_span} bags, got {n}"
            )

        distance_matrix = self._banded_distances(signatures)
        score_engine = ScoreEngine(cfg, rng=self._rng)
        threshold = AdaptiveThreshold(cfg.tau_test)
        points: List[ScorePoint] = []

        for t in range(cfg.tau, n - cfg.tau_test + 1):
            ref_pairwise, test_pairwise, cross = distance_matrix.window(
                t - cfg.tau, cfg.tau, cfg.tau_test
            )
            window = WindowDistances(
                ref_pairwise=ref_pairwise,
                test_pairwise=test_pairwise,
                cross=cross,
            )
            point_score, interval = score_engine.point_and_interval(window)
            gamma, alert = threshold.update(t, interval)
            points.append(
                ScorePoint(
                    time=t, score=point_score, interval=interval, gamma=gamma, alert=alert
                )
            )

        result = DetectionResult(
            points=points,
            emd_matrix=distance_matrix.to_dense() if return_distance_matrix else None,
            metadata={
                "tau": cfg.tau,
                "tau_test": cfg.tau_test,
                "score": cfg.score,
                "n_bags": n,
                "signature_method": cfg.signature_method,
            },
        )
        return result

    # ------------------------------------------------------------------ #
    # Estimator facade (repro.api contract)
    # ------------------------------------------------------------------ #
    def fit_predict(self, bags: BagsInput, *, min_gap: Optional[int] = None) -> IntArray:
        """Run detection and return sparse change-point indices.

        This is the :mod:`repro.api` estimator contract: unlike
        :meth:`detect`, which returns the full per-step score trace,
        ``fit_predict`` collapses the alarms into change points — runs of
        alarms closer than ``min_gap`` merge into one, keeping the
        earliest time (consecutive alarms while the test window straddles
        one change refer to the same event).

        Parameters
        ----------
        bags:
            Same input as :meth:`detect`.
        min_gap:
            Merging distance; defaults to the test-window length
            ``tau_test``.

        Returns
        -------
        IntArray
            Strictly increasing indices in ``(0, len(bags))``, each the
            first bag of a new segment.
        """
        result = self.detect(bags)
        gap = int(min_gap) if min_gap is not None else self.config.tau_test
        merged = merge_close_alarms(result.alarm_times.tolist(), max(gap, 1))
        n = int(result.metadata["n_bags"])
        return np.asarray([cp for cp in merged if 0 < cp < n], dtype=np.int64)

    def fit_transform(self, bags: BagsInput, *, min_gap: Optional[int] = None) -> IntArray:
        """Run detection and return dense per-bag segment labels.

        Parameters
        ----------
        bags:
            Same input as :meth:`detect`.
        min_gap:
            Alarm-merging distance, as in :meth:`fit_predict`.

        Returns
        -------
        IntArray
            One segment label per bag (``0`` before the first change
            point), i.e. ``sparse_to_dense(fit_predict(bags), len(bags))``.
        """
        # Local import: repro.api imports repro.core, not the reverse.
        from ..api.conversion import sparse_to_dense

        signatures = self.build_signatures(bags)
        return sparse_to_dense(self.fit_predict(signatures), len(signatures))

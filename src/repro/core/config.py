"""Configuration object for the bag-of-data change-point detector."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .._validation import check_positive_int
from ..emd.registry import (
    ENGINE_SOLVERS,
    PAIRWISE_SOLVERS,
    PARALLEL_BACKENDS,
    POISON_POLICIES,
    EngineSolverName,
    ParallelBackendName,
    PoisonPolicyName,
)
from ..exceptions import ConfigurationError, ValidationError
from ..information import EstimatorConfig
from ..signatures.builders import SIGNATURE_METHODS

#: Change-point scores: symmetrised KL (Eq. 17) and likelihood ratio (Eq. 16).
SCORES = ("kl", "lr")
#: Window-weighting schemes: the paper's uniform weights or Eq. 15 discounting.
WEIGHTINGS = ("uniform", "discounted")

_SCORES = SCORES
_WEIGHTING = WEIGHTINGS
_SIGNATURE_METHODS = SIGNATURE_METHODS


@dataclass
class DetectorConfig:
    """All tunable parameters of :class:`~repro.core.BagChangePointDetector`.

    Attributes
    ----------
    tau:
        Number of bags in the reference (past) window, ``τ`` in the paper.
    tau_test:
        Number of bags in the test (future) window, ``τ′``.
    score:
        ``"kl"`` for the symmetrised KL-divergence score (Eq. 17, the
        paper's default for the experiments) or ``"lr"`` for the
        log-likelihood-ratio score (Eq. 16).
    signature_method:
        Quantiser used to build signatures (paper Section 3.1).
    n_clusters:
        Number of signature representatives for clustering quantisers.
    bins:
        Bins per dimension for the histogram quantiser.
    histogram_range:
        Optional fixed histogram range shared by all bags.
    ground_distance:
        Ground distance of the EMD (Section 3.2).
    emd_backend:
        ``"auto"`` (default), the band engine's one exact route: 1-D
        equal-mass pairs take the closed form, every other pair is
        grouped by ``(dimension, K_a, K_b)`` and solved in
        block-diagonal HiGHS LPs, equal to the per-pair LP to within
        1e-12.  ``"linprog_batch"`` is a second name for it and is
        stored as ``"auto"``.  The per-pair solvers
        ``"linprog"``/``"simplex"`` are rejected here; call
        :func:`repro.emd.emd` with ``backend=`` for them.
    parallel_backend:
        ``"serial"`` (default) or ``"process"``.  The EMD engine's
        worker-process pool solves the independent stacked LP chunks;
        the 1-D closed form always runs in-process.  With ``n_shards``
        set, ``"process"`` runs the shards in worker processes instead.
        The offline ``detect()`` also runs its k-means refinement on the
        engine's pool; seeding stays serial, so signatures and the
        generator's state match a serial run.  k-medoids, LVQ and the
        online ``push`` stay per bag.
    n_workers:
        Worker-pool size for ``"process"`` (the band build, the k-means
        refinement and the sharded band build);
        ``None`` uses the CPU count.
    n_shards:
        When set (> 1), the offline detector builds the EMD band
        through :class:`repro.emd.orchestrator.ShardOrchestrator`: the
        band's pair set is partitioned into that many contiguous
        row-blocks, executed process-parallel when
        ``parallel_backend="process"`` (signatures shared via
        ``multiprocessing.shared_memory``) and sequentially otherwise,
        then merged — equal to the unsharded build to within 1e-12
        (stacked LP solves may move the last ulp with their chunk's
        composition).  ``None`` (default) keeps the single-pass build.
    shard_checkpoint_dir:
        Optional directory for per-shard ``.npz`` checkpoints.  With it
        set, a killed detection run resumes its band build at the last
        finished shard (setting only this, without ``n_shards``, runs
        the build as a single checkpointed shard); checkpoints from a
        different plan or solver configuration are rejected, never
        merged.
    shard_retries:
        Retry budget per shard of the fault-tolerant band build: a
        shard whose worker crashes, times out or fails transiently is
        re-enqueued (with exponential backoff) up to this many times
        before the build aborts.
    shard_timeout:
        Per-shard wall-clock budget in seconds for the band build;
        a shard attempt still running past it is killed and retried.
        ``None`` (default) disables the timeout.
    on_poison_pair:
        What the band build does with pairs that keep failing the
        solver after bisection and per-pair exact-LP rescue:
        ``"strict"`` (default) raises
        :class:`~repro.exceptions.PoisonPairError` with the quarantine
        manifest attached; ``"degraded"`` warns and returns the band
        with exactly those entries masked as NaN.
    history_limit:
        Maximum number of emitted :class:`~repro.core.ScorePoint`\\ s the
        online detector retains (a bounded deque).  ``None`` (default)
        keeps the full history — fine for finite runs, unbounded growth
        in a long-running service, which is why
        :class:`repro.service.StreamSupervisor` substitutes a bounded
        default for its streams when this is ``None``.  Only the
        retained tail is serialised into stream snapshots.
    lr_inspection_index:
        Position (0-based) within the test window of the bag ``S_t`` that
        the ``"lr"`` score compares against both windows (Eq. 16).  The
        paper uses the first test bag (0); ignored by the ``"kl"`` score.
    weighting:
        ``"uniform"`` (paper's experiments) or ``"discounted"`` (Eq. 15).
    n_bootstrap:
        Number of Bayesian-bootstrap replicates ``T`` per time step.
    alpha:
        Significance level of the confidence intervals (0.05 → 95% CI).
    estimator:
        Constants of the information estimators (``c``, ``d``,
        distance floor).
    random_state:
        Seed or generator controlling signature construction and the
        bootstrap.
    """

    tau: int = 5
    tau_test: int = 5
    score: str = "kl"
    signature_method: str = "kmeans"
    n_clusters: int = 8
    bins: Union[int, Sequence[int]] = 10
    histogram_range: Optional[Sequence] = None
    ground_distance: str = "euclidean"
    emd_backend: EngineSolverName = "auto"
    parallel_backend: ParallelBackendName = "serial"
    n_workers: Optional[int] = None
    n_shards: Optional[int] = None
    shard_checkpoint_dir: Optional[Union[str, Path]] = None
    shard_retries: int = 2
    shard_timeout: Optional[float] = None
    on_poison_pair: PoisonPolicyName = "strict"
    history_limit: Optional[int] = None
    lr_inspection_index: int = 0
    weighting: str = "uniform"
    n_bootstrap: int = 200
    alpha: float = 0.05
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    random_state: Union[None, int, np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.tau < 2:
            raise ConfigurationError("tau must be at least 2 (the reference window needs >= 2 bags)")
        if self.tau_test < 2:
            raise ConfigurationError("tau_test must be at least 2 (the test window needs >= 2 bags)")
        if self.score not in _SCORES:
            raise ConfigurationError(f"score must be one of {_SCORES}, got {self.score!r}")
        if self.signature_method not in _SIGNATURE_METHODS:
            raise ConfigurationError(
                f"signature_method must be one of {_SIGNATURE_METHODS}, got {self.signature_method!r}"
            )
        if self.weighting not in _WEIGHTING:
            raise ConfigurationError(
                f"weighting must be one of {_WEIGHTING}, got {self.weighting!r}"
            )
        if self.emd_backend not in ENGINE_SOLVERS:
            hint = (
                "; per-pair solvers are called as repro.emd.emd(backend=...)"
                if self.emd_backend in PAIRWISE_SOLVERS
                else ""
            )
            raise ConfigurationError(
                f"emd_backend must be one of {ENGINE_SOLVERS}, "
                f"got {self.emd_backend!r}{hint}"
            )
        # "linprog_batch" is a second name for the engine's one route.
        self.emd_backend = "auto"
        try:
            if self.n_shards is not None:
                check_positive_int(self.n_shards, "n_shards")
            if self.history_limit is not None:
                check_positive_int(self.history_limit, "history_limit")
        except ValidationError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.parallel_backend not in PARALLEL_BACKENDS:
            raise ConfigurationError(
                f"parallel_backend must be one of {PARALLEL_BACKENDS}, got {self.parallel_backend!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError("n_workers must be a positive integer or None")
        if self.shard_retries < 0:
            raise ConfigurationError(
                f"shard_retries must be a non-negative integer, got {self.shard_retries}"
            )
        if self.shard_timeout is not None and not (
            np.isfinite(self.shard_timeout) and self.shard_timeout > 0
        ):
            raise ConfigurationError(
                f"shard_timeout must be a positive number or None, got {self.shard_timeout}"
            )
        if self.on_poison_pair not in POISON_POLICIES:
            raise ConfigurationError(
                f"on_poison_pair must be one of {POISON_POLICIES}, got {self.on_poison_pair!r}"
            )
        if not 0 <= self.lr_inspection_index < self.tau_test:
            raise ConfigurationError(
                f"lr_inspection_index must lie in [0, tau_test={self.tau_test}), "
                f"got {self.lr_inspection_index}"
            )
        if self.n_bootstrap < 2:
            raise ConfigurationError("n_bootstrap must be at least 2")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must lie strictly between 0 and 1")

    @property
    def window_span(self) -> int:
        """Total number of bags needed around an inspection point (τ + τ′)."""
        return self.tau + self.tau_test

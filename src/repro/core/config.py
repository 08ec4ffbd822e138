"""Configuration object for the bag-of-data change-point detector."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_choices, check_positive_int
from ..emd.ground_distance import GROUND_DISTANCES
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

_NO_CLI = {"cli": False}


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
        pairs under a metric that is ``|x − y|`` there take the closed
        form (equal masses) or the slope-trick sweep (unequal masses),
        every other pair is grouped by ``(dimension, K_a, K_b)`` and
        solved in block-diagonal HiGHS LPs, equal to the per-pair LP to
        within 1e-12.  ``"linprog_batch"`` is a second name for it and is
        stored as ``"auto"``.  The per-pair solvers
        ``"linprog"``/``"simplex"`` are rejected here; call
        :func:`repro.emd.emd` with ``backend=`` for them.
    parallel_backend:
        ``"serial"`` (default) or ``"process"``.  The EMD engine's
        worker-process pool solves the independent stacked LP chunks;
        the 1-D paths always run in-process.  With ``n_shards``
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
        different plan, solver configuration or input data are
        rejected, never merged.
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

    Every field but ``histogram_range``, ``estimator`` and
    ``emd_backend`` (``metadata={"cli": False}``) is a flag of
    ``repro-detect`` (:func:`repro.cli.add_config_args`): its metadata
    holds the help text, plus the flag where it is not
    ``--<field-name>`` and CLI-only ``choices``.
    """

    #: Field → registry of its accepted values: ``__post_init__`` checks
    #: membership and the CLI offers them as ``choices=``.
    CHOICES: ClassVar[Mapping[str, Tuple[str, ...]]] = {
        "score": SCORES,
        "signature_method": SIGNATURE_METHODS,
        "weighting": WEIGHTINGS,
        "parallel_backend": PARALLEL_BACKENDS,
        "on_poison_pair": POISON_POLICIES,
    }

    tau: int = field(default=5, metadata={"help": "reference window length"})
    tau_test: int = field(default=5, metadata={"help": "test window length"})
    score: str = field(default="kl", metadata={"help": "change-point score"})
    signature_method: str = field(
        default="kmeans",
        metadata={"help": "signature construction method", "flag": "--signature"},
    )
    n_clusters: int = field(
        default=8, metadata={"help": "signature size K", "flag": "--clusters"}
    )
    bins: Union[int, Sequence[int]] = field(
        default=10, metadata={"help": "bins per dimension for --signature histogram"}
    )
    histogram_range: Optional[Sequence] = field(default=None, metadata=_NO_CLI)
    ground_distance: str = field(
        default="euclidean",
        metadata={
            "help": "ground distance of the EMD between signature representatives",
            # The library also accepts a callable; the CLI only names.
            "choices": GROUND_DISTANCES,
        },
    )
    emd_backend: EngineSolverName = field(default="auto", metadata=_NO_CLI)
    parallel_backend: ParallelBackendName = field(
        default="serial",
        metadata={
            "help": "how the EMD engine computes distance batches; with "
            "--n-shards, whether shard attempts run in worker processes",
            "flag": "--parallel",
        },
    )
    n_workers: Optional[int] = field(
        default=None,
        metadata={
            "help": "worker-pool size for --parallel process, or the maximum "
            "concurrently running shard attempts (default: CPU count)",
            "flag": "--workers",
        },
    )
    n_shards: Optional[int] = field(
        default=None,
        metadata={
            "help": "build the EMD band in this many contiguous row-block "
            "shards (process-parallel with --parallel process)"
        },
    )
    shard_checkpoint_dir: Optional[Union[str, Path]] = field(
        default=None,
        metadata={
            "help": "directory for per-shard checkpoints; a run resumes its "
            "band build from every shard that matches the current plan, "
            "solver configuration and input data"
        },
    )
    shard_retries: int = field(
        default=2,
        metadata={
            "help": "retry budget per shard: crashed, timed-out or transiently "
            "failing shards are re-enqueued with exponential backoff up to "
            "this many times before the build aborts",
            "flag": "--retries",
        },
    )
    shard_timeout: Optional[float] = field(
        default=None,
        metadata={
            "help": "kill and retry any shard attempt running longer than this "
            "many seconds (default: no timeout)"
        },
    )
    on_poison_pair: PoisonPolicyName = field(
        default="strict",
        metadata={
            "help": "what to do with pairs that keep failing the solver after "
            "bisection and exact-LP rescue: refuse the band (strict) or "
            "return it with those entries masked as NaN (degraded)"
        },
    )
    history_limit: Optional[int] = field(
        default=None,
        metadata={
            "help": "retain only this many most recent score points per "
            "detector (default: unbounded; serve-replay streams use the "
            "service's bounded default)"
        },
    )
    lr_inspection_index: int = field(
        default=0,
        metadata={"help": "test-window position of the inspected bag for --score lr"},
    )
    weighting: str = field(
        default="uniform",
        metadata={
            "help": "window weighting: the paper's uniform weights or Eq. 15 discounting"
        },
    )
    n_bootstrap: int = field(
        default=200,
        metadata={"help": "Bayesian bootstrap replicates", "flag": "--bootstrap"},
    )
    alpha: float = field(default=0.05, metadata={"help": "CI significance level"})
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig, metadata=_NO_CLI)
    random_state: Union[None, int, np.random.Generator] = field(
        default=None, metadata={"help": "random seed", "flag": "--seed"}
    )

    def __post_init__(self) -> None:
        if self.tau < 2:
            raise ConfigurationError("tau must be at least 2 (the reference window needs >= 2 bags)")
        if self.tau_test < 2:
            raise ConfigurationError("tau_test must be at least 2 (the test window needs >= 2 bags)")
        check_choices(self)
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
            if self.n_workers is not None:
                check_positive_int(self.n_workers, "n_workers")
            check_positive_int(self.shard_retries, "shard_retries", minimum=0)
        except ValidationError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.shard_timeout is not None and not (
            np.isfinite(self.shard_timeout) and self.shard_timeout > 0
        ):
            raise ConfigurationError(
                f"shard_timeout must be a positive number or None, got {self.shard_timeout}"
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

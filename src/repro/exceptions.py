"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses are raised where a
caller may reasonably want to distinguish failure modes (bad input data,
solver failures, configuration problems).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .emd.orchestrator import QuarantineManifest


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied data or parameters are invalid.

    Inherits from :class:`ValueError` so generic callers that catch
    ``ValueError`` keep working.
    """


class EmptyBagError(ValidationError):
    """Raised when a bag with zero observations is supplied where data is required."""


class SolverError(ReproError, RuntimeError):
    """Raised when an optimisation backend fails to produce a valid solution.

    Attributes
    ----------
    pair_indices:
        When the failure happened inside a *batched* multi-pair solve
        (the block-diagonal LP), the
        indices of the pairs that were stacked into the failing solve —
        batch-local for errors raised by the solvers themselves,
        translated to :meth:`PairwiseEMDEngine.compute_pairs` positions
        by the engine.  ``None`` for single-pair failures.
    shard_id:
        When the failure happened inside a sharded band build
        (:class:`repro.emd.orchestrator.ShardOrchestrator`), the id of the shard
        whose solve failed; ``pair_indices`` are then positions into
        that shard's pair ordering (see
        :meth:`repro.emd.sharding.ShardPlan.pair_indices`).  ``None``
        outside shard execution.
    shard_rows:
        The failing shard's owned row range ``(row_start, row_stop)``,
        or ``None`` outside shard execution.
    """

    def __init__(
        self,
        *args: object,
        pair_indices: Optional[Iterable[int]] = None,
        shard_id: Optional[int] = None,
        shard_rows: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(*args)
        self.pair_indices: Optional[Tuple[int, ...]] = (
            None if pair_indices is None else tuple(int(i) for i in pair_indices)
        )
        self.shard_id: Optional[int] = None if shard_id is None else int(shard_id)
        self.shard_rows: Optional[Tuple[int, int]] = (
            None
            if shard_rows is None
            else (int(shard_rows[0]), int(shard_rows[1]))
        )


class PoisonPairError(SolverError):
    """Raised by a *strict* orchestrated band build that quarantined pairs.

    The band was fully built — every healthy pair solved, every poison
    pair isolated by bisection and re-tried — but some pairs exhausted
    their rescue budget and were masked as NaN.  Under the
    ``on_poison_pair="strict"`` policy that result must not be consumed
    silently, so the orchestrator raises this error with the full
    quarantine manifest attached instead of returning the degraded band.

    Attributes
    ----------
    manifest:
        The :class:`~repro.emd.orchestrator.QuarantineManifest` listing
        every quarantined ``(i, j)`` pair, its shard and the terminal
        solver failure; also persisted as ``quarantine.json`` in the
        checkpoint directory when one is configured.
    """

    def __init__(
        self,
        *args: object,
        manifest: Optional["QuarantineManifest"] = None,
        pair_indices: Optional[Iterable[int]] = None,
        shard_id: Optional[int] = None,
        shard_rows: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            *args,
            pair_indices=pair_indices,
            shard_id=shard_id,
            shard_rows=shard_rows,
        )
        self.manifest = manifest


class OrchestratorError(ReproError, RuntimeError):
    """Raised when the fault-tolerant shard orchestrator gives up.

    The orchestrator retries crashed and timed-out shard attempts with
    exponential backoff; this error means a shard kept failing past its
    retry budget (or a worker backend broke in a way no retry can fix),
    so the band build cannot terminate.  Transient faults within the
    budget never surface as this error — they are retried silently and
    counted on the orchestrator's ``n_retries``.
    """


class CheckpointError(ReproError, RuntimeError):
    """Raised when a shard checkpoint or stream snapshot cannot be trusted.

    A file is *stale* when a recorded stamp (shard-plan hash, shard id,
    stream name or configuration fingerprint) does not match the current
    run, and *corrupt* when it is unreadable or fails its checksum.
    Using it would mix in results computed for another run, so
    :func:`repro._artifacts.load_stamped` refuses it instead.
    """


class BackpressureError(ReproError, RuntimeError):
    """Raised when a stream's bounded ingest queue overflows under the
    ``backpressure="error"`` policy.

    Attributes
    ----------
    stream:
        Name of the stream whose queue was full.
    depth:
        The queue depth (== capacity) at the time of the rejected submit.
    """

    def __init__(
        self,
        *args: object,
        stream: Optional[str] = None,
        depth: Optional[int] = None,
    ) -> None:
        super().__init__(*args)
        self.stream = stream
        self.depth = None if depth is None else int(depth)


class NotFittedError(ReproError, RuntimeError):
    """Raised when a model is used before being fitted."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a detector or estimator is configured inconsistently."""


class DetectorClosedError(ConfigurationError):
    """Raised when a closed detector is asked to consume more data.

    :meth:`repro.core.OnlineBagDetector.close` releases the detector's
    solver resources; a subsequent :meth:`push` would otherwise surface
    whatever low-level error the closed EMD engine happens to raise.
    This error names the actual problem — the detector's lifecycle is
    over — and points at the two valid continuations: create a fresh
    detector, or restore one from a snapshot.  It subclasses
    :class:`ConfigurationError` because that is what the offline
    detector has always raised for use-after-close, so existing
    ``except ConfigurationError`` handlers keep working.
    """

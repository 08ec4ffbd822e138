"""Robustness policies of the streaming supervisor.

Two orthogonal policy axes govern how :class:`repro.service.StreamSupervisor`
reacts to trouble:

* **Stream-error policy** — what a :class:`~repro.exceptions.SolverError`
  in one stream's solve does to that stream (never to its siblings):

  ``"strict"``
      The bag goes back to the front of the stream's queue and the error
      propagates to the caller.  The failed push is rolled back, so
      draining again simply retries the same bag; points the drain call
      had already emitted are buffered for the next drain.
  ``"degraded"``
      The bag is consumed through the detector's masked path: every
      inspection point whose window still contains it emits a NaN score
      (never an alert), and the stream's scores re-converge bit-for-bit
      with an unfaulted run once the bag has left the window.
  ``"quarantine"``
      The stream is parked: its pre-failure state is snapshotted (when a
      snapshot directory is configured), the failure is recorded in the
      persisted quarantine manifest, its queued bags are shed, and the
      supervisor stops accepting submissions for it until
      :meth:`~repro.service.StreamSupervisor.restore_stream`.

* **Backpressure policy** — what a submission to a full per-stream
  queue does:

  ``"block"``
      The supervisor drains one queued bag of that stream inline
      (synchronously, in the caller) to make room — ingest slows down to
      processing speed instead of growing memory.
  ``"shed"``
      The new bag is dropped and counted on the supervisor's ``n_shed``
      metric.
  ``"error"``
      A :class:`~repro.exceptions.BackpressureError` naming the stream
      and its queue depth is raised.

Every drain — round-robin, single-stream, or the inline ``"block"``
push — runs in **cross-stream rounds**: each round collects one pending
bag per active stream, stacks every (new, window) signature pair across
streams into one :meth:`~repro.emd.PairwiseEMDEngine.compute_pairs`
call, then commits each stream independently.  Distances are pair-local
in the engine's routing, so each stream commits to within 1e-12 of its
own :meth:`~repro.core.OnlineBagDetector.push` replay (a stacked LP may
move the last ulp with its chunk's composition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Literal, Mapping, Optional, Tuple, get_args

from .._validation import check_choices
from ..exceptions import ConfigurationError

StreamErrorPolicyName = Literal["strict", "degraded", "quarantine"]
BackpressurePolicyName = Literal["block", "shed", "error"]

#: Valid ``on_stream_error`` policies, in documentation order.
STREAM_ERROR_POLICIES: Tuple[str, ...] = get_args(StreamErrorPolicyName)
#: Valid ``backpressure`` policies, in documentation order.
BACKPRESSURE_POLICIES: Tuple[str, ...] = get_args(BackpressurePolicyName)

#: History bound substituted for supervised streams whose config leaves
#: ``history_limit`` at ``None`` — a long-running service must not grow
#: its per-stream memory with every emitted point.
DEFAULT_SERVICE_HISTORY_LIMIT = 1024


@dataclass(frozen=True)
class SupervisorPolicy:
    """Robustness knobs of a :class:`repro.service.StreamSupervisor`.

    Attributes
    ----------
    on_stream_error:
        Per-stream fault-isolation policy (see module docstring).
    backpressure:
        Full-queue policy (see module docstring).
    queue_capacity:
        Bound of each stream's ingest queue.
    snapshot_every:
        Snapshot a stream after this many successful pushes (requires
        the supervisor to have a snapshot directory); ``None`` disables
        cadence snapshots — streams are then only snapshotted on
        :meth:`~repro.service.StreamSupervisor.snapshot`, quarantine and
        :meth:`~repro.service.StreamSupervisor.close`.
    batch_drain:
        Always ``True``: every drain is a cross-stream round (see module
        docstring).  Any other value is rejected; the field only keeps
        callers that still pass it working, and is not a CLI flag.

    Like :class:`~repro.core.DetectorConfig`, each field's ``metadata``
    holds its CLI help and ``CHOICES`` its accepted values.
    """

    CHOICES: ClassVar[Mapping[str, Tuple[str, ...]]] = {
        "on_stream_error": STREAM_ERROR_POLICIES,
        "backpressure": BACKPRESSURE_POLICIES,
    }

    on_stream_error: StreamErrorPolicyName = field(
        default="strict",
        metadata={
            "help": "what a solver failure during one stream's push does to "
            "that stream: propagate with the bag requeued (strict), consume "
            "the bag masked with NaN scores (degraded), or park the stream on "
            "its last snapshot (quarantine)"
        },
    )
    backpressure: BackpressurePolicyName = field(
        default="block",
        metadata={
            "help": "full-queue policy: drain inline (block), drop the bag "
            "(shed) or raise (error)"
        },
    )
    queue_capacity: int = field(
        default=64, metadata={"help": "bound of each stream's ingest queue"}
    )
    snapshot_every: Optional[int] = field(
        default=None,
        metadata={
            "help": "snapshot each stream after this many pushes (requires "
            "--snapshot-dir); streams are always snapshotted at shutdown"
        },
    )
    # Accepted only as True, for callers that still pass it (perfbench's
    # grid_fleet workload); removed with the next benchmark change
    # (ROADMAP item 2).
    batch_drain: bool = field(default=True, metadata={"cli": False})

    def __post_init__(self) -> None:
        check_choices(self)
        if not isinstance(self.queue_capacity, int) or self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be a positive integer, got {self.queue_capacity!r}"
            )
        if self.snapshot_every is not None and (
            not isinstance(self.snapshot_every, int) or self.snapshot_every < 1
        ):
            raise ConfigurationError(
                f"snapshot_every must be a positive integer or None, "
                f"got {self.snapshot_every!r}"
            )
        if self.batch_drain is not True:
            raise ConfigurationError(
                f"batch_drain must be True (every drain is a cross-stream "
                f"round), got {self.batch_drain!r}"
            )

"""Crash-safe multiplexing of many online detector streams.

:class:`StreamSupervisor` runs any number of named
:class:`~repro.core.OnlineBagDetector` streams behind bounded ingest
queues, with three robustness layers:

1. **Snapshot/restore** — streams are periodically serialised into
   stamped, checksummed snapshot files
   (:mod:`repro.service.snapshots`); a supervisor pointed at the same
   directory restores every stream on :meth:`add_stream` and continues
   it bit-identically.
2. **Per-stream fault isolation** — a solver failure in one stream's
   share of a drain round is handled by the configured
   :class:`~repro.service.SupervisorPolicy` (strict / degraded /
   quarantine) and never perturbs sibling streams: each stream owns its
   detector, generator and queue, and the detector's two-phase
   prepare/commit/rollback contract leaves the failed stream itself
   consistent.
3. **Backpressure** — per-stream queues are bounded; a full queue
   blocks (drains inline), sheds, or raises, per policy, and the
   supervisor exposes shed/quarantine/restore counters and queue depths
   as :attr:`metrics`.

The supervisor is deliberately synchronous: :meth:`submit` enqueues,
:meth:`drain` processes.  That keeps the scheduling deterministic (and
the bit-identity guarantees testable); wrapping it in threads or an
event loop is the caller's choice.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.config import DetectorConfig
from ..core.online import OnlineBagDetector, PendingPush
from ..core.results import ScorePoint
from ..emd.batch import PairwiseEMDEngine
from ..emd.sharding import EngineSettings
from ..exceptions import BackpressureError, SolverError, ValidationError
from ..signatures import Signature
from .policies import DEFAULT_SERVICE_HISTORY_LIMIT, SupervisorPolicy
from .snapshots import (
    check_stream_name,
    config_fingerprint,
    load_quarantine_manifest,
    load_stream_snapshot,
    save_quarantine_manifest,
    save_stream_snapshot,
)

#: Stream lifecycle states.
ACTIVE = "active"
QUARANTINED = "quarantined"


@dataclasses.dataclass
class _StreamState:
    """Book-keeping of one supervised stream (internal)."""

    name: str
    config: DetectorConfig
    fingerprint: str
    engine_key: str
    detector: OnlineBagDetector
    queue: Deque[np.ndarray]
    status: str = ACTIVE
    pushes_since_snapshot: int = 0
    quarantine_reason: Optional[str] = None


class StreamSupervisor:
    """Multiplex many named online detector streams, crash-safely.

    Parameters
    ----------
    config:
        Default :class:`~repro.core.DetectorConfig` for streams added
        without their own config.  When its ``history_limit`` is
        ``None``, supervised streams get a bounded default
        (:data:`~repro.service.DEFAULT_SERVICE_HISTORY_LIMIT`) — a
        service must not grow per-stream memory forever.
    policy:
        The :class:`~repro.service.SupervisorPolicy`; defaults to
        strict errors, blocking backpressure, no cadence snapshots.
    snapshot_dir:
        Directory for stream snapshots and the quarantine manifest.
        ``None`` disables persistence (quarantine then parks streams
        in memory only).
    """

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        policy: Optional[SupervisorPolicy] = None,
        snapshot_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.snapshot_dir = None if snapshot_dir is None else str(snapshot_dir)
        self._streams: Dict[str, _StreamState] = {}
        self._quarantine: Dict[str, Dict[str, Any]] = (
            load_quarantine_manifest(self.snapshot_dir)
            if self.snapshot_dir is not None
            else {}
        )
        self._closed = False
        self.n_shed_backpressure = 0
        self.n_shed_quarantined = 0
        self.n_discarded_on_close = 0
        self.n_quarantined = 0
        self.n_restored = 0
        self.n_degraded_points = 0
        self.n_snapshots_written = 0
        #: Points emitted outside a drain() call (inline backpressure
        #: drains, rounds aborted by a strict error) — returned, and
        #: cleared, by the next drain().
        self._pending_emissions: List[Tuple[str, ScorePoint]] = []
        #: Shared solve engines of the drain rounds, keyed by the
        #: solver-relevant EngineSettings fingerprint of the stream
        #: configs — streams with identical solver settings share one
        #: engine (and therefore one stacked solve per round).
        self._batch_engines: Dict[str, PairwiseEMDEngine] = {}

    @property
    def n_shed(self) -> int:
        """Total dropped bags — sum of the per-cause shed counters.

        Kept for compatibility; prefer the per-cause counters
        ``n_shed_backpressure`` (shed-policy drops on a full queue),
        ``n_shed_quarantined`` (submissions to — and queues cleared
        by — quarantine) and ``n_discarded_on_close`` (queued bags
        discarded by :meth:`close`).
        """
        return (
            self.n_shed_backpressure
            + self.n_shed_quarantined
            + self.n_discarded_on_close
        )

    # ------------------------------------------------------------------ #
    # Stream management
    # ------------------------------------------------------------------ #
    def _service_config(self, config: Optional[DetectorConfig]) -> DetectorConfig:
        base = config if config is not None else self.config
        if base.history_limit is None:
            base = dataclasses.replace(
                base, history_limit=DEFAULT_SERVICE_HISTORY_LIMIT
            )
        return base

    def add_stream(
        self, name: str, config: Optional[DetectorConfig] = None
    ) -> OnlineBagDetector:
        """Register a stream; restore it from its snapshot when one exists.

        A stream recorded in the persisted quarantine manifest comes
        back *parked* — its snapshot (taken at quarantine time) is
        restored, but submissions are shed until
        :meth:`restore_stream` un-parks it explicitly.
        """
        check_stream_name(name)
        if name in self._streams:
            raise ValidationError(f"stream {name!r} is already registered")
        stream_config = self._service_config(config)
        fingerprint = config_fingerprint(stream_config)
        detector: Optional[OnlineBagDetector] = None
        if self.snapshot_dir is not None:
            state = load_stream_snapshot(self.snapshot_dir, name, fingerprint)
            if state is not None:
                detector = OnlineBagDetector.from_state_dict(state, stream_config)
                self.n_restored += 1
        if detector is None:
            detector = OnlineBagDetector(stream_config)
        stream = _StreamState(
            name=name,
            config=stream_config,
            fingerprint=fingerprint,
            engine_key=EngineSettings.from_config(stream_config).fingerprint(),
            detector=detector,
            queue=deque(),
        )
        if name in self._quarantine:
            stream.status = QUARANTINED
            stream.quarantine_reason = self._quarantine[name]["reason"]
        self._streams[name] = stream
        return detector

    def _stream(self, name: str) -> _StreamState:
        try:
            return self._streams[name]
        except KeyError:
            raise ValidationError(
                f"unknown stream {name!r}; register it with add_stream() first"
            ) from None

    @property
    def stream_names(self) -> List[str]:
        """Names of the registered streams, in registration order."""
        return list(self._streams)

    def detector(self, name: str) -> OnlineBagDetector:
        """The detector behind one stream (read access for history etc.)."""
        return self._stream(name).detector

    def status(self, name: str) -> str:
        """``"active"`` or ``"quarantined"``."""
        return self._stream(name).status

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def submit(self, name: str, bag: np.ndarray) -> bool:
        """Enqueue one bag for a stream; returns whether it was accepted.

        A quarantined stream sheds every submission (counted on
        ``n_shed_quarantined``).  A full queue follows the backpressure
        policy: ``"block"`` runs a one-stream round on the oldest
        queued bag inline to make room — any point it emits is buffered
        and delivered by the next :meth:`drain` — ``"shed"`` drops the new
        bag (counted on ``n_shed_backpressure``), ``"error"`` raises
        :class:`~repro.exceptions.BackpressureError`.
        """
        self._check_open()
        stream = self._stream(name)
        if stream.status == QUARANTINED:
            self.n_shed_quarantined += 1
            return False
        if len(stream.queue) >= self.policy.queue_capacity:
            if self.policy.backpressure == "shed":
                self.n_shed_backpressure += 1
                return False
            if self.policy.backpressure == "error":
                raise BackpressureError(
                    f"ingest queue of stream {name!r} is full "
                    f"({len(stream.queue)} bags); drain the supervisor or "
                    "raise queue_capacity",
                    stream=name,
                    depth=len(stream.queue),
                )
            # "block": make room by processing the oldest queued bag now.
            # The emitted point (possibly an alarm) must not be dropped
            # on the floor just because it surfaced outside a drain()
            # call — buffer it for the next drain.  The round gets its
            # own list: a strict raise moves that list into the buffer.
            emitted: List[Tuple[str, ScorePoint]] = []
            self._round([stream], emitted)
            self._pending_emissions.extend(emitted)
            if stream.status == QUARANTINED:
                self.n_shed_quarantined += 1
                return False
        stream.queue.append(np.asarray(bag, dtype=float))
        return True

    def drain(
        self, name: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Tuple[str, ScorePoint]]:
        """Process queued bags; return the emitted ``(stream, point)`` pairs.

        Points that were emitted *between* drains — by inline
        backpressure pushes under the ``"block"`` policy, or by a round
        aborted by a strict-mode error — are returned first (and their
        buffer cleared), whatever ``name`` says.

        The drain runs in rounds.  Each round pops one bag per active
        stream (so no stream can starve its siblings; with ``name``, one
        bag of that stream only), runs
        :meth:`~repro.core.OnlineBagDetector.prepare` on each (no state
        mutates), stacks every (new, window) signature pair of every
        stream sharing solver settings into **one**
        :meth:`~repro.emd.PairwiseEMDEngine.compute_pairs` call, scatters
        the distances back, and commits each stream independently — so
        the stacked LPs amortise their setup over the whole fleet
        instead of paying it per stream.  The engine's routing is
        pair-local, so every stream commits to within 1e-12 of its own
        :meth:`~repro.core.OnlineBagDetector.push` replay, and a round
        of one stream solves exactly the pairs ``push`` would.

        Fault isolation survives the stacking: a
        :class:`~repro.exceptions.SolverError` from the stacked solve is
        attributed to the owning streams through its ``pair_indices``
        and the round's pair→stream map; only those streams take the
        ``on_stream_error`` policy, and every sibling that merely shared
        the stack is rescued by re-solving its own pairs alone (exactly
        its ``push`` solve).  An unattributable error (no
        ``pair_indices``) re-solves every stream alone instead.  A group
        with a single member is never rescued: its failed solve was
        already its own, so it takes the policy just as a failed
        ``push`` would.  In strict mode the healthy streams of the round
        commit *before* the error propagates, and the points they — and
        the earlier rounds of this call — emitted are buffered for the
        next :meth:`drain` so the raise cannot lose them.

        ``limit`` caps the number of bags **attempted** in this call,
        not the number of points emitted: a bag that warms up a window
        (no point yet), is consumed masked, or faults its stream into
        quarantine still consumes one unit of ``limit``.  Counting
        attempts keeps a faulting stream from monopolising the drain —
        with emission-counting, a stream that never emits would pin the
        round-robin loop on itself forever.  Buffered between-drain
        points do not consume ``limit`` (their bags were already
        processed when they were buffered).
        """
        self._check_open()
        emitted = list(self._pending_emissions)
        self._pending_emissions.clear()
        streams = (
            [self._stream(name)] if name is not None else list(self._streams.values())
        )
        remaining = limit
        while remaining is None or remaining > 0:
            attempted = self._round(streams, emitted, remaining)
            if attempted == 0:
                break
            if remaining is not None:
                remaining -= attempted
        return emitted

    def _batch_engine(self, stream: _StreamState) -> PairwiseEMDEngine:
        """The shared solve engine for this stream's solver settings."""
        engine = self._batch_engines.get(stream.engine_key)
        if engine is None:
            engine = EngineSettings.from_config(stream.config).make_engine()
            self._batch_engines[stream.engine_key] = engine
        return engine

    @staticmethod
    def _implicated(exc: SolverError, owners: List[int]) -> "set[int]":
        """Prepared-push indices owning the pairs a stacked solve blamed.

        An error without ``pair_indices`` implicates nobody — the
        caller then re-solves every member alone and lets the
        individual solves assign blame.
        """
        if exc.pair_indices is None:
            return set()
        return {owners[j] for j in exc.pair_indices if 0 <= j < len(owners)}

    def _round(
        self,
        streams: List[_StreamState],
        into: List[Tuple[str, ScorePoint]],
        max_streams: Optional[int] = None,
    ) -> int:
        """One drain round over ``streams``; returns the bags attempted."""
        # Phase 1 — pop one bag per eligible stream and prepare it
        # (quantise + enumerate pairs; no detector state mutates yet).
        prepared: List[Tuple[_StreamState, np.ndarray, PendingPush]] = []
        failures: List[
            Tuple[_StreamState, np.ndarray, Optional[PendingPush], SolverError]
        ] = []
        attempts = 0
        for stream in streams:
            if max_streams is not None and attempts >= max_streams:
                break
            if stream.status != ACTIVE or not stream.queue:
                continue
            bag = stream.queue.popleft()
            attempts += 1
            try:
                pending = stream.detector.prepare(bag)
            except SolverError as exc:
                failures.append((stream, bag, None, exc))
                continue
            prepared.append((stream, bag, pending))

        # Phase 2 — one stacked solve per solver-settings group, with
        # failures attributed back through the pair→stream map.
        distances: Dict[int, np.ndarray] = {}
        groups: Dict[str, List[int]] = {}
        for i, (stream, _, _) in enumerate(prepared):
            groups.setdefault(stream.engine_key, []).append(i)
        for members in groups.values():
            engine = self._batch_engine(prepared[members[0]][0])
            flat_pairs: List[Tuple[Signature, Signature]] = []
            owners: List[int] = []
            slices: Dict[int, slice] = {}
            for i in members:
                pending = prepared[i][2]
                start = len(flat_pairs)
                flat_pairs.extend(pending.pairs)
                owners.extend([i] * len(pending.pairs))
                slices[i] = slice(start, start + len(pending.pairs))
            try:
                stacked = engine.compute_pairs(flat_pairs)
            except SolverError as exc:
                # A lone member's failed solve was already its own.
                implicated = (
                    self._implicated(exc, owners) if len(members) > 1 else set(members)
                )
                for i in members:
                    stream, bag, pending = prepared[i]
                    if i in implicated:
                        failures.append((stream, bag, pending, exc))
                        continue
                    # Rescue a sibling that merely shared the stack:
                    # re-solve its own pairs alone — exactly its push's
                    # solve, so it commits bit-identically.
                    try:
                        distances[i] = engine.compute_pairs(list(pending.pairs))
                    except SolverError as solo_exc:
                        failures.append((stream, bag, pending, solo_exc))
            else:
                for i in members:
                    distances[i] = stacked[slices[i]]

        # Phase 3 — commit the solved streams, in registration order.
        for i, (stream, _, pending) in enumerate(prepared):
            if i not in distances:
                continue
            point = stream.detector.commit(pending, distances[i])
            self._after_push(stream)
            if point is not None:
                into.append((stream.name, point))

        # Phase 4 — apply the stream-error policy to the failures.  A
        # prepared push is rolled back (rewinding the generator) or
        # committed masked; a failed prepare left nothing to undo.
        strict_error: Optional[SolverError] = None
        for stream, bag, maybe_pending, exc in failures:
            if self.policy.on_stream_error == "degraded":
                warnings.warn(
                    f"stream {stream.name!r}: solver failed "
                    f"({exc}); consuming the bag masked — scores touching it "
                    "will be NaN",
                    RuntimeWarning,
                    stacklevel=3,
                )
                if maybe_pending is not None:
                    point = stream.detector.commit(
                        maybe_pending, np.full(len(maybe_pending.pairs), np.nan)
                    )
                else:
                    point = stream.detector.push_masked(bag)
                self.n_degraded_points += 1
                self._after_push(stream)
                if point is not None:
                    into.append((stream.name, point))
                continue
            if maybe_pending is not None:
                stream.detector.rollback(maybe_pending)
            if self.policy.on_stream_error == "strict":
                # The bag goes back to the front of the queue; the next
                # drain of this stream retries it.
                stream.queue.appendleft(bag)
                if strict_error is None:
                    strict_error = exc
                continue
            # "quarantine": the rollback above rewound the prepared
            # push, so the snapshot taken while parking captures the
            # pre-failure state (generator included).
            self._quarantine_stream(stream, exc)
        if strict_error is not None:
            # The caller never sees a return value when we raise — park
            # every point collected by this drain call for the next one
            # instead of losing them.
            self._pending_emissions.extend(into)
            into.clear()
            raise strict_error
        return attempts

    def _quarantine_stream(self, stream: _StreamState, exc: SolverError) -> None:
        """Park a stream on its pre-failure state after a solver error."""
        reason = f"{type(exc).__name__}: {exc}"
        if self.snapshot_dir is not None:
            self._write_snapshot(stream)
        self._quarantine[stream.name] = {
            "n_seen": stream.detector.n_seen,
            "reason": reason,
            "fingerprint": stream.fingerprint,
        }
        if self.snapshot_dir is not None:
            save_quarantine_manifest(self.snapshot_dir, self._quarantine)
        self.n_shed_quarantined += len(stream.queue)
        stream.queue.clear()
        stream.status = QUARANTINED
        stream.quarantine_reason = reason
        self.n_quarantined += 1
        warnings.warn(
            f"stream {stream.name!r} quarantined after {reason}",
            RuntimeWarning,
            stacklevel=4,
        )

    def _after_push(self, stream: _StreamState) -> None:
        stream.pushes_since_snapshot += 1
        cadence = self.policy.snapshot_every
        if (
            cadence is not None
            and self.snapshot_dir is not None
            and stream.pushes_since_snapshot >= cadence
        ):
            self._write_snapshot(stream)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def _write_snapshot(self, stream: _StreamState) -> None:
        if self.snapshot_dir is None:
            raise ValidationError(
                "this StreamSupervisor has no snapshot_dir; configure one "
                "to snapshot streams"
            )
        save_stream_snapshot(
            self.snapshot_dir,
            stream.name,
            stream.detector.state_dict(),
            stream.fingerprint,
        )
        stream.pushes_since_snapshot = 0
        self.n_snapshots_written += 1

    def snapshot(self, name: Optional[str] = None) -> None:
        """Snapshot one stream (or, with ``name=None``, every stream)."""
        streams = (
            [self._stream(name)] if name is not None else list(self._streams.values())
        )
        for stream in streams:
            self._write_snapshot(stream)

    def restore_stream(self, name: str) -> OnlineBagDetector:
        """Un-park a quarantined stream from its last snapshot.

        The stream's detector is rebuilt from its snapshot (falling back
        to the parked in-memory detector when no snapshot directory is
        configured), its quarantine manifest entry is cleared, and it
        accepts submissions again.
        """
        stream = self._stream(name)
        if self.snapshot_dir is not None:
            state = load_stream_snapshot(self.snapshot_dir, name, stream.fingerprint)
            if state is not None:
                stream.detector = OnlineBagDetector.from_state_dict(
                    state, stream.config
                )
        stream.status = ACTIVE
        stream.quarantine_reason = None
        stream.pushes_since_snapshot = 0
        if self._quarantine.pop(name, None) is not None and self.snapshot_dir is not None:
            save_quarantine_manifest(self.snapshot_dir, self._quarantine)
        self.n_restored += 1
        return stream.detector

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def metrics(self) -> Dict[str, Any]:
        """Robustness counters and per-stream queue depths."""
        return {
            "n_streams": len(self._streams),
            "n_shed": self.n_shed,
            "n_shed_backpressure": self.n_shed_backpressure,
            "n_shed_quarantined": self.n_shed_quarantined,
            "n_discarded_on_close": self.n_discarded_on_close,
            "n_quarantined": self.n_quarantined,
            "n_restored": self.n_restored,
            "n_degraded_points": self.n_degraded_points,
            "n_snapshots_written": self.n_snapshots_written,
            "n_pending_emissions": len(self._pending_emissions),
            "queue_depths": {
                name: len(stream.queue) for name, stream in self._streams.items()
            },
        }

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("this StreamSupervisor has been closed")

    def close(self) -> None:
        """Snapshot active streams (when persisting) and close all detectors.

        Bags still queued at close time are discarded and counted on
        ``n_discarded_on_close``.  Idempotent; safe to call from
        ``finally`` blocks and ``__exit__``.  Detector close is itself
        idempotent, so a stream whose detector was closed directly does
        not break teardown.
        """
        if self._closed:
            return
        self._closed = True
        for stream in self._streams.values():
            self.n_discarded_on_close += len(stream.queue)
            stream.queue.clear()
            if self.snapshot_dir is not None and stream.status == ACTIVE:
                self._write_snapshot(stream)
            stream.detector.close()
        for engine in self._batch_engines.values():
            engine.close()
        self._batch_engines.clear()

    def __enter__(self) -> "StreamSupervisor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

"""Fault-tolerant work-queue orchestration of sharded band builds.

:mod:`repro.emd.sharding` made the band build divisible (plan → shards →
checkpoints → merge) but brittle: one crashed worker, one hung LP solve
or one pathological pair aborts the whole run.  This module drives the
same shard layer through a work queue that survives those faults:

* **retry with backoff** — a crashed or failed shard attempt is
  re-enqueued with exponential backoff + jitter (:func:`compute_backoff`
  is the one sanctioned backoff helper; reprolint rule RL006 bans
  hand-rolled ``time.sleep`` retry loops) until a per-shard retry budget
  is exhausted, at which point :class:`~repro.exceptions.OrchestratorError`
  is raised;
* **timeouts and stragglers** — one kill path: an attempt running past
  the configured per-shard timeout is killed and re-enqueued with
  backoff against the retry budget; an attempt running beyond
  :data:`STRAGGLER_FACTOR` × the median completion time of this run's
  finished shards is killed and re-enqueued at once, free of budget and
  backoff, at most once per shard.  At most one attempt per shard is
  ever in flight, so reclaiming needs no free worker slot;
* **poison-pair quarantine** — when a batched solve fails with
  :class:`~repro.exceptions.SolverError` carrying ``pair_indices``, the
  orchestrator bisects the failing group, retries the halves, and
  re-solves isolated bad pairs (engine retries first, then the per-pair
  exact LP).  Pairs that exhaust the rescue budget are recorded in a
  :class:`QuarantineManifest` and masked as NaN; the
  ``strict``/``degraded`` policy decides whether the finished band is
  refused (:class:`~repro.exceptions.PoisonPairError` with the manifest
  attached) or returned with a warning;
* **checkpoint validation before merge** — existing checkpoints are
  validated (plan hash + shard id + engine/data fingerprint + payload
  checksum) and corrupt or stale files are deleted and re-queued
  instead of aborting the resume.

Determinism: every shard's distances are computed by the same
:class:`~repro.emd.sharding.EngineSettings` recipe regardless of which
attempt delivers them, so under any injected fault the merged band
equals the unfaulted single-process build (tested at 1e-12).  The
orchestrator owns a private seeded RNG for backoff jitter — it never
touches the detector's generator, so retries cannot shift signature or
bootstrap streams.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from .._artifacts import write_atomic
from .._validation import check_positive_int
from ..exceptions import (
    CheckpointError,
    ConfigurationError,
    OrchestratorError,
    PoisonPairError,
    ReproError,
    SolverError,
    ValidationError,
)
from ..signatures import Signature
from .batch import BandedDistanceMatrix, PairwiseEMDEngine
from .distance import emd
from .registry import (
    PARALLEL_BACKENDS,
    POISON_POLICIES,
    ParallelBackendName,
    PoisonPolicyName,
)
from .sharding import (
    EngineSettings,
    ShardPlan,
    _compute_shard_values,
    _SharedSignatureStore,
    _signatures_from_arrays,
    band_fingerprint,
    checkpoint_path,
    load_shard_checkpoint,
    merge_shards,
    save_shard_checkpoint,
)

#: Canonical quarantine-manifest file inside a checkpoint directory.
QUARANTINE_FILENAME = "quarantine.json"

#: Version stamp of the quarantine-manifest JSON layout.
QUARANTINE_FORMAT_VERSION = 1

#: A running attempt older than this many times the median completion
#: time of the run's finished shards (floored at ``poll_interval``) is a
#: straggler: it is killed and its shard re-enqueued, once per shard.
STRAGGLER_FACTOR = 3.0

#: Shards that must have finished in this run before the median is
#: trusted for straggler detection.
STRAGGLER_MIN_DONE = 3


# ---------------------------------------------------------------------- #
# Backoff
# ---------------------------------------------------------------------- #
def compute_backoff(
    attempt: int,
    *,
    base: float = 0.05,
    factor: float = 2.0,
    max_delay: float = 5.0,
    jitter: float = 0.5,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Delay before retry number ``attempt`` (0-based), in seconds.

    Exponential growth ``base · factor^attempt`` capped at ``max_delay``,
    with an optional multiplicative jitter drawn uniformly from
    ``[0, jitter]`` so simultaneous retries de-synchronise.  This is the
    project's single sanctioned backoff helper: every retry loop must
    sleep on its output (reprolint rule RL006).
    """
    if attempt < 0:
        raise ValidationError(f"attempt must be non-negative, got {attempt}")
    if base < 0 or factor < 1 or max_delay < 0 or jitter < 0:
        raise ValidationError(
            f"invalid backoff parameters base={base}, factor={factor}, "
            f"max_delay={max_delay}, jitter={jitter}"
        )
    delay = min(float(max_delay), float(base) * float(factor) ** attempt)
    if jitter and rng is not None:
        delay *= 1.0 + float(jitter) * float(rng.random())
    return min(float(max_delay), delay)


@dataclass(frozen=True)
class RetryPolicy:
    """Everything the orchestrator is allowed to do about a fault.

    Attributes
    ----------
    max_retries:
        How many *additional* attempts a shard gets after its first
        failure before the build aborts with
        :class:`~repro.exceptions.OrchestratorError`.
    backoff_base, backoff_factor, backoff_max, backoff_jitter:
        Parameters of :func:`compute_backoff` applied between attempts.
    shard_timeout:
        Wall-clock seconds one shard attempt may run before it is killed
        and re-enqueued as a failure; ``None`` (default) disables the
        timeout.  Stragglers are reclaimed without it (see
        :data:`STRAGGLER_FACTOR`).
    poison_retries:
        Engine re-solve attempts an isolated poison pair gets before the
        per-pair exact LP is tried and, failing that, the pair is
        quarantined.
    on_poison_pair:
        ``"strict"`` (default) raises
        :class:`~repro.exceptions.PoisonPairError` when any pair ends up
        quarantined; ``"degraded"`` warns and returns the band with the
        quarantined entries masked as NaN.
    poll_interval:
        Seconds the drive loop sleeps when no attempt made progress.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    backoff_jitter: float = 0.5
    shard_timeout: Optional[float] = None
    poison_retries: int = 1
    on_poison_pair: PoisonPolicyName = "strict"
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.shard_timeout is not None and not (
            np.isfinite(self.shard_timeout) and self.shard_timeout > 0
        ):
            raise ConfigurationError(
                f"shard_timeout must be a positive number or None, got {self.shard_timeout}"
            )
        if self.on_poison_pair not in POISON_POLICIES:
            raise ConfigurationError(
                f"on_poison_pair must be one of {POISON_POLICIES}, "
                f"got {self.on_poison_pair!r}"
            )
        if not (np.isfinite(self.poll_interval) and self.poll_interval > 0):
            raise ConfigurationError(
                f"poll_interval must be a positive number, got {self.poll_interval}"
            )
        # Delegated validation of the counts and the backoff parameters.
        try:
            check_positive_int(self.max_retries, "max_retries", minimum=0)
            check_positive_int(self.poison_retries, "poison_retries", minimum=0)
            compute_backoff(
                0,
                base=self.backoff_base,
                factor=self.backoff_factor,
                max_delay=self.backoff_max,
                jitter=self.backoff_jitter,
            )
        except ValidationError as exc:
            raise ConfigurationError(str(exc)) from None

    @classmethod
    def from_config(cls, config: object) -> "RetryPolicy":
        """Extract the orchestration knobs from a ``DetectorConfig``."""
        return cls(
            max_retries=int(getattr(config, "shard_retries", 2)),
            shard_timeout=getattr(config, "shard_timeout", None),
            on_poison_pair=getattr(config, "on_poison_pair", "strict"),
        )

    def backoff(self, failure_count: int, rng: np.random.Generator) -> float:
        """The delay before re-enqueueing after ``failure_count`` failures."""
        return compute_backoff(
            max(0, failure_count - 1),
            base=self.backoff_base,
            factor=self.backoff_factor,
            max_delay=self.backoff_max,
            jitter=self.backoff_jitter,
            rng=rng,
        )


# ---------------------------------------------------------------------- #
# Quarantine manifest
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QuarantinedPair:
    """One band pair that exhausted its poison-pair rescue budget."""

    row: int
    col: int
    shard_id: int
    reason: str


@dataclass
class QuarantineManifest:
    """The quarantined pairs of one orchestrated band build.

    Stamped with the shard plan hash and engine fingerprint so a
    manifest from a different plan or solver configuration is never
    mistaken for the current run's; persisted as ``quarantine.json``
    next to the shard checkpoints when a checkpoint directory is set.
    """

    plan_hash: str
    fingerprint: str
    pairs: List[QuarantinedPair] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def add(self, pair: QuarantinedPair) -> None:
        self.pairs.append(pair)

    def pair_set(self) -> frozenset:
        """The quarantined ``(row, col)`` pairs as a set."""
        return frozenset((p.row, p.col) for p in self.pairs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format_version": QUARANTINE_FORMAT_VERSION,
            "plan_hash": self.plan_hash,
            "fingerprint": self.fingerprint,
            "pairs": [
                {"row": p.row, "col": p.col, "shard_id": p.shard_id, "reason": p.reason}
                for p in self.pairs
            ],
        }

    def save(self, directory: Union[str, Path]) -> Path:
        """Atomically write the manifest into a checkpoint directory."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        return write_atomic(
            Path(directory) / QUARANTINE_FILENAME,
            lambda handle: handle.write(text.encode("utf-8")),
        )

    @classmethod
    def load(
        cls, directory: Union[str, Path], plan_hash: str, fingerprint: str
    ) -> Optional["QuarantineManifest"]:
        """The stored manifest, or ``None`` if absent, unreadable or stale."""
        path = Path(directory) / QUARANTINE_FILENAME
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if (
                int(payload["format_version"]) != QUARANTINE_FORMAT_VERSION
                or str(payload["plan_hash"]) != plan_hash
                or str(payload["fingerprint"]) != fingerprint
            ):
                return None
            pairs = [
                QuarantinedPair(
                    row=int(p["row"]),
                    col=int(p["col"]),
                    shard_id=int(p["shard_id"]),
                    reason=str(p["reason"]),
                )
                for p in payload["pairs"]
            ]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return cls(plan_hash=plan_hash, fingerprint=fingerprint, pairs=pairs)


# ---------------------------------------------------------------------- #
# Worker backends
# ---------------------------------------------------------------------- #
class WorkerCrash(ReproError, RuntimeError):
    """Protocol exception: a shard task raising this emulates a worker
    that died mid-shard.  Used by :mod:`repro.testing.faults` to inject
    crashes deterministically through the inline backend (process-mode
    injection kills the worker process itself instead)."""


class WorkerHang(ReproError, RuntimeError):
    """Protocol exception: a shard task raising this emulates a hung
    solve.  The inline backend reports the attempt as still running
    until the orchestrator kills it, as a timeout or as a straggler."""


@dataclass
class _Outcome:
    """Terminal state of one shard attempt."""

    status: str  # "ok" | "failed" | "crashed"
    values: Optional[np.ndarray] = None
    error: Optional[BaseException] = None


@dataclass
class _Active:
    shard_id: int
    handle: Any
    started: float


class WorkerBackend(Protocol):
    """What the orchestrator needs from a worker backend.

    ``start`` launches one shard attempt and returns an opaque handle;
    ``poll`` reports its outcome (``None`` while still running);
    ``kill`` cancels an attempt and discards its partial output;
    ``close`` releases every backend resource.
    """

    def start(self, shard_id: int) -> Any: ...

    def poll(self, handle: Any) -> Optional[_Outcome]: ...

    def kill(self, handle: Any) -> None: ...

    def close(self) -> None: ...


class InlineWorkerBackend:
    """Synchronous in-process worker backend.

    ``start`` executes the shard immediately on a private serial engine
    and stores the outcome; ``poll`` replays it.  A task raising
    :class:`WorkerHang` yields an attempt that stays "running" forever —
    exactly what the timeout and straggler paths need — and one raising
    :class:`WorkerCrash` mimics a worker death.  Deterministic by
    construction, which makes it the backend of the fault-injection test
    suite; it is also the production fallback when process workers are
    unavailable.
    """

    def __init__(
        self,
        plan: ShardPlan,
        settings: EngineSettings,
        signatures: Sequence[Signature],
    ) -> None:
        self._plan = plan
        self._settings = settings
        self._by_row = dict(enumerate(signatures))
        self._engine: Optional[PairwiseEMDEngine] = None
        self._handles = itertools.count()
        self._outcomes: Dict[int, Optional[_Outcome]] = {}

    def _ensure_engine(self) -> PairwiseEMDEngine:
        if self._engine is None:
            self._engine = self._settings.make_engine()
        return self._engine

    def start(self, shard_id: int) -> int:
        handle = next(self._handles)
        try:
            values = _compute_shard_values(
                self._ensure_engine(), self._by_row, self._plan, shard_id
            )
        except WorkerHang:
            self._outcomes[handle] = None  # reported as running until killed
        except WorkerCrash as exc:
            self._outcomes[handle] = _Outcome(
                "crashed",
                error=OrchestratorError(f"worker for shard {shard_id} crashed: {exc}"),
            )
        except SolverError as exc:
            self._outcomes[handle] = _Outcome("failed", error=exc)
        else:
            self._outcomes[handle] = _Outcome("ok", values=values)
        return handle

    def poll(self, handle: int) -> Optional[_Outcome]:
        return self._outcomes.get(handle)

    def kill(self, handle: int) -> None:
        self._outcomes.pop(handle, None)

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None


def _process_shard_entry(
    conn: Any,
    meta: Mapping[str, Tuple[str, tuple, str]],
    settings: EngineSettings,
    n: int,
    bandwidth: int,
    row_bounds: Tuple[int, ...],
    shard_id: int,
) -> None:
    """Child-process entry point: solve one shard, report over the pipe.

    Reports ``("ok", values)``, ``("solver_error", state)`` — the
    structured :class:`SolverError` context, rebuilt parent-side because
    pickling drops keyword-only attributes — or ``("error", message)``.
    A worker killed mid-shard sends nothing; the parent sees the broken
    pipe / dead process and treats the attempt as crashed.
    """
    from multiprocessing import shared_memory

    blocks = []
    try:
        arrays = {}
        for name, (shm_name, shape, dtype) in meta.items():
            block = shared_memory.SharedMemory(name=shm_name)
            blocks.append(block)
            arrays[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
        plan = ShardPlan(n, bandwidth, row_bounds)
        spec = plan.shard(shard_id)
        signatures = _signatures_from_arrays(arrays, spec.row_start, spec.halo_stop)
        with settings.make_engine() as engine:
            values = _compute_shard_values(engine, signatures, plan, shard_id)
        conn.send(("ok", values))
    except SolverError as exc:
        conn.send(
            (
                "solver_error",
                (str(exc), exc.pair_indices, exc.shard_id, exc.shard_rows),
            )
        )
    except BaseException as exc:  # pragma: no cover - depends on fault timing
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        for block in blocks:
            # Detach only — the parent-side store owns and unlinks the
            # segments; a worker must never tear shared state down.
            try:
                block.close()
            except OSError:  # pragma: no cover - already detached
                pass
        conn.close()


@dataclass
class _ProcessHandle:
    shard_id: int
    process: Any
    conn: Any


class ProcessWorkerBackend:
    """One short-lived ``multiprocessing.Process`` per shard attempt.

    Unlike a worker in a process pool, a dedicated process per attempt
    can be killed individually — the primitive the timeout and
    straggler paths share.  The
    signature arrays still live in shared memory (one placement for the
    whole build), so spawning an attempt ships only a few integers.
    """

    def __init__(
        self,
        plan: ShardPlan,
        settings: EngineSettings,
        signatures: Sequence[Signature],
    ) -> None:
        import multiprocessing

        self._ctx = multiprocessing.get_context()
        self._plan = plan
        self._settings = settings
        self._store = _SharedSignatureStore(signatures)
        self._handles: List[_ProcessHandle] = []

    def start(self, shard_id: int) -> _ProcessHandle:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_process_shard_entry,
            args=(
                send_conn,
                self._store.meta,
                self._settings,
                self._plan.n,
                self._plan.bandwidth,
                self._plan.row_bounds,
                shard_id,
            ),
            daemon=True,
        )
        process.start()
        send_conn.close()
        handle = _ProcessHandle(shard_id=shard_id, process=process, conn=recv_conn)
        self._handles.append(handle)
        return handle

    def poll(self, handle: _ProcessHandle) -> Optional[_Outcome]:
        conn, process = handle.conn, handle.process
        has_message = conn.poll()
        if not has_message and process.is_alive():
            return None
        if has_message or conn.poll():
            try:
                tag, payload = conn.recv()
            except (EOFError, OSError):
                self._reap(handle)
                return _Outcome(
                    "crashed",
                    error=OrchestratorError(
                        f"worker for shard {handle.shard_id} died mid-report"
                    ),
                )
            self._reap(handle)
            if tag == "ok":
                return _Outcome("ok", values=np.asarray(payload, dtype=float))
            if tag == "solver_error":
                message, pair_indices, shard_id, shard_rows = payload
                return _Outcome(
                    "failed",
                    error=SolverError(
                        message,
                        pair_indices=pair_indices,
                        shard_id=shard_id,
                        shard_rows=shard_rows,
                    ),
                )
            return _Outcome(
                "crashed",
                error=OrchestratorError(
                    f"worker for shard {handle.shard_id} failed: {payload}"
                ),
            )
        # Dead without a message: crashed mid-shard.
        exitcode = process.exitcode
        self._reap(handle)
        return _Outcome(
            "crashed",
            error=OrchestratorError(
                f"worker for shard {handle.shard_id} exited with code "
                f"{exitcode} before reporting a result"
            ),
        )

    def kill(self, handle: _ProcessHandle) -> None:
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck in kernel
                process.kill()
                process.join(timeout=5.0)
        self._reap(handle)

    def _reap(self, handle: _ProcessHandle) -> None:
        try:
            handle.process.join(timeout=5.0)
        except (ValueError, AssertionError):  # pragma: no cover - already reaped
            pass
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if handle in self._handles:
            self._handles.remove(handle)

    def close(self) -> None:
        for handle in list(self._handles):
            self.kill(handle)
        self._store.close()


# ---------------------------------------------------------------------- #
# The orchestrator
# ---------------------------------------------------------------------- #
class ShardOrchestrator:
    """Fault-tolerant driver of a :class:`~repro.emd.sharding.ShardPlan`.

    Parameters
    ----------
    plan:
        The shard plan (fixes n, bandwidth and the row boundaries).
    settings:
        The :class:`EngineSettings` every attempt solves under; defaults
        to the engine defaults.
    policy:
        The :class:`RetryPolicy`; defaults to two retries, no timeout
        and the strict poison policy.  Independently of the policy, an
        attempt older than :data:`STRAGGLER_FACTOR` × the median shard
        time (once :data:`STRAGGLER_MIN_DONE` shards have finished) is
        killed and its shard re-enqueued, once per shard, free of retry
        budget.
    mode:
        ``"process"`` (default) runs one killable worker process per
        attempt (falling back to the inline backend, with a warning,
        when process workers are unavailable); ``"serial"`` runs
        attempts synchronously in-process.
    n_workers:
        Maximum concurrently running attempts; defaults to the CPU
        count.
    checkpoint_dir:
        When set, finished shards are checkpointed, existing checkpoints
        are validated and resumed (corrupt or stale files are deleted
        and re-queued, not fatal), and the quarantine manifest is
        persisted as ``quarantine.json`` after every run, empty
        included.
    clock, sleep:
        Injectable time sources (``time.monotonic``/``time.sleep`` by
        default) so the fault-injection tests drive timeouts and
        stragglers deterministically on a fake clock.
    rng_seed:
        Seed of the orchestrator's private backoff-jitter RNG.  Never
        the detector's generator: retries must not shift signature or
        bootstrap streams.

    Attributes
    ----------
    n_shards_computed, n_shards_resumed:
        After :meth:`run`: shards solved this call vs loaded from
        checkpoints.
    n_retries, n_timeouts, n_stragglers_redispatched,
    n_checkpoints_requeued, n_poison_rescued:
        Fault-handling counters, reset at the start of every run.
    quarantine:
        The final :class:`QuarantineManifest` (empty when every pair
        solved).
    """

    def __init__(
        self,
        plan: ShardPlan,
        settings: Optional[EngineSettings] = None,
        *,
        policy: Optional[RetryPolicy] = None,
        mode: ParallelBackendName = "process",
        n_workers: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
        rng_seed: int = 0,
    ) -> None:
        if mode not in PARALLEL_BACKENDS:
            raise ConfigurationError(
                f"mode must be one of {PARALLEL_BACKENDS}, got {mode!r}"
            )
        if n_workers is not None:
            n_workers = check_positive_int(n_workers, "n_workers")
        self.plan = plan
        self.settings = settings if settings is not None else EngineSettings()
        self.policy = policy if policy is not None else RetryPolicy()
        self.mode = mode
        self.n_workers = n_workers
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self._clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self._sleep: Callable[[float], None] = sleep if sleep is not None else time.sleep
        self._rng = np.random.default_rng(rng_seed)
        self.quarantine: Optional[QuarantineManifest] = None
        self._reset_counters()

    @classmethod
    def from_config(cls, config: Any, n: int) -> "ShardOrchestrator":
        """The orchestrator a ``DetectorConfig`` asks for over ``n`` signatures.

        ``config.n_shards`` row-blocks (one when only
        ``config.shard_checkpoint_dir`` is set: a single checkpointed
        shard), run under ``config.parallel_backend``/``n_workers`` with
        the config's engine settings and retry policy.
        """
        return cls(
            ShardPlan.build(n, config.window_span, config.n_shards or 1),
            EngineSettings.from_config(config),
            policy=RetryPolicy.from_config(config),
            mode=config.parallel_backend,
            n_workers=config.n_workers,
            checkpoint_dir=config.shard_checkpoint_dir,
        )

    def _reset_counters(self) -> None:
        self.n_shards_computed = 0
        self.n_shards_resumed = 0
        self.n_retries = 0
        self.n_timeouts = 0
        self.n_stragglers_redispatched = 0
        self.n_checkpoints_requeued = 0
        self.n_poison_rescued = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, signatures: Sequence[Signature]) -> BandedDistanceMatrix:
        """Build (or resume) the band, surviving every recoverable fault."""
        if len(signatures) != self.plan.n:
            raise ValidationError(
                f"plan covers {self.plan.n} signatures, got {len(signatures)}"
            )
        self._reset_counters()
        fingerprint = band_fingerprint(self.settings, signatures)
        manifest = QuarantineManifest(self.plan.plan_hash(), fingerprint)
        values: Dict[int, np.ndarray] = {}
        self._resume_checkpoints(values, fingerprint, manifest)
        pending: Deque[int] = deque(
            spec.shard_id for spec in self.plan.shards if spec.shard_id not in values
        )
        if pending:
            backend = self._make_backend(signatures)
            try:
                self._drive(backend, signatures, pending, values, fingerprint, manifest)
            finally:
                backend.close()
        manifest = self._reconcile_quarantine(values, manifest)
        self.quarantine = manifest
        if self.checkpoint_dir is not None:
            # Written empty too: it replaces a previous run's record.
            manifest.save(self.checkpoint_dir)
        if len(manifest):
            if self.policy.on_poison_pair == "strict":
                raise PoisonPairError(
                    f"{len(manifest)} band pair(s) exhausted the poison-pair "
                    f"rescue budget and were quarantined: "
                    f"{sorted(manifest.pair_set())}; re-run with "
                    f"on_poison_pair='degraded' to accept a masked band",
                    manifest=manifest,
                )
            warnings.warn(
                f"degraded band: {len(manifest)} quarantined pair(s) masked as "
                f"NaN (see the quarantine manifest)",
                RuntimeWarning,
                stacklevel=2,
            )
        return merge_shards(self.plan, values)

    # ------------------------------------------------------------------ #
    # Resume
    # ------------------------------------------------------------------ #
    def _resume_checkpoints(
        self,
        values: Dict[int, np.ndarray],
        fingerprint: str,
        manifest: QuarantineManifest,
    ) -> None:
        """Load valid checkpoints; delete and re-queue invalid ones."""
        if self.checkpoint_dir is None:
            return
        for spec in self.plan.shards:
            try:
                loaded = load_shard_checkpoint(
                    self.checkpoint_dir, self.plan, spec.shard_id, fingerprint
                )
            except CheckpointError as exc:
                warnings.warn(
                    f"re-queueing shard {spec.shard_id}: {exc}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                checkpoint_path(self.checkpoint_dir, spec.shard_id).unlink(
                    missing_ok=True
                )
                self.n_checkpoints_requeued += 1
                continue
            if loaded is not None:
                values[spec.shard_id] = loaded
                self.n_shards_resumed += 1
        stored = QuarantineManifest.load(
            self.checkpoint_dir, self.plan.plan_hash(), fingerprint
        )
        if stored is not None:
            # Keep records only for shards actually resumed; anything
            # being recomputed gets a fresh poison resolution.
            for record in stored.pairs:
                if record.shard_id in values:
                    manifest.add(record)

    # ------------------------------------------------------------------ #
    # Drive loop
    # ------------------------------------------------------------------ #
    def _make_backend(self, signatures: Sequence[Signature]) -> WorkerBackend:
        if self.mode == "process":
            try:
                return ProcessWorkerBackend(self.plan, self.settings, signatures)
            except (OSError, ValueError, ImportError) as exc:
                warnings.warn(
                    f"process workers unavailable ({exc}); running shard "
                    "attempts inline",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return InlineWorkerBackend(self.plan, self.settings, signatures)

    def _effective_workers(self) -> int:
        return self.n_workers or os.cpu_count() or 1

    def _drive(
        self,
        backend: WorkerBackend,
        signatures: Sequence[Signature],
        pending: Deque[int],
        values: Dict[int, np.ndarray],
        fingerprint: str,
        manifest: QuarantineManifest,
    ) -> None:
        policy = self.policy
        slots = self._effective_workers()
        active: List[_Active] = []
        waiting: List[Tuple[float, int]] = []
        failures: Dict[int, int] = {}
        durations: List[float] = []
        reclaimed: Set[int] = set()

        def record_failure(shard_id: int, error: BaseException) -> None:
            failures[shard_id] = failures.get(shard_id, 0) + 1
            if failures[shard_id] > policy.max_retries:
                raise OrchestratorError(
                    f"shard {shard_id} failed {failures[shard_id]} time(s); "
                    f"retry budget ({policy.max_retries}) exhausted; last "
                    f"error: {error}"
                ) from error
            delay = policy.backoff(failures[shard_id], self._rng)
            waiting.append((self._clock() + delay, shard_id))
            self.n_retries += 1

        def finish(shard_id: int, shard_values: np.ndarray) -> None:
            values[shard_id] = np.asarray(shard_values, dtype=float)
            if self.checkpoint_dir is not None:
                save_shard_checkpoint(
                    self.checkpoint_dir, self.plan, shard_id, shard_values, fingerprint
                )
            self.n_shards_computed += 1

        while pending or waiting or active:
            now = self._clock()
            progressed = False

            pending.extend(shard_id for ready_at, shard_id in waiting if ready_at <= now)
            waiting = [(ready_at, s) for ready_at, s in waiting if ready_at > now]

            while pending and len(active) < slots:
                shard_id = pending.popleft()
                active.append(_Active(shard_id, backend.start(shard_id), self._clock()))
                progressed = True

            straggler_age = (
                STRAGGLER_FACTOR * max(float(np.median(durations)), policy.poll_interval)
                if len(durations) >= STRAGGLER_MIN_DONE
                else None
            )
            for entry in list(active):
                outcome = backend.poll(entry.handle)
                shard_id = entry.shard_id
                if outcome is None:
                    age = now - entry.started
                    timed_out = (
                        policy.shard_timeout is not None and age > policy.shard_timeout
                    )
                    straggling = (
                        straggler_age is not None
                        and age > straggler_age
                        and shard_id not in reclaimed
                    )
                    if not (timed_out or straggling):
                        continue
                    backend.kill(entry.handle)
                    active.remove(entry)
                    progressed = True
                    if timed_out:
                        self.n_timeouts += 1
                        record_failure(
                            shard_id,
                            OrchestratorError(
                                f"shard {shard_id} attempt timed out after "
                                f"{policy.shard_timeout:.3g}s"
                            ),
                        )
                    else:
                        # Hung or just slow: a fresh attempt goes first
                        # in line, with no backoff and no retry budget.
                        reclaimed.add(shard_id)
                        pending.appendleft(shard_id)
                        self.n_stragglers_redispatched += 1
                    continue
                active.remove(entry)
                progressed = True
                if outcome.status == "ok" and outcome.values is not None:
                    durations.append(max(0.0, self._clock() - entry.started))
                    finish(shard_id, outcome.values)
                    continue
                error = outcome.error or OrchestratorError(
                    f"shard {shard_id} attempt ended without a result"
                )
                if isinstance(error, SolverError) and error.pair_indices:
                    finish(
                        shard_id,
                        self._resolve_poison_shard(signatures, shard_id, error, manifest),
                    )
                    continue
                record_failure(shard_id, error)

            if not progressed:
                self._sleep(policy.poll_interval)

    # ------------------------------------------------------------------ #
    # Poison-pair quarantine
    # ------------------------------------------------------------------ #
    def _resolve_poison_shard(
        self,
        signatures: Sequence[Signature],
        shard_id: int,
        error: SolverError,
        manifest: QuarantineManifest,
    ) -> np.ndarray:
        """Bisect a poisoned shard down to the bad pairs and rescue them.

        Healthy pairs keep their batched solve path (identical grouping
        semantics, hence identical values); pairs isolated as poisonous
        get engine retries, then the per-pair exact LP, and finally a
        NaN mask plus a manifest record.
        """
        rows, cols = self.plan.pair_indices(shard_id)
        pairs = [
            (signatures[i], signatures[j])
            for i, j in zip(rows.tolist(), cols.tolist())
        ]
        out = np.full(len(pairs), np.nan)
        reported = sorted(
            {int(p) for p in (error.pair_indices or ()) if 0 <= int(p) < len(pairs)}
        )
        suspects = reported if reported else list(range(len(pairs)))
        healthy = [k for k in range(len(pairs)) if k not in set(suspects)]
        with self.settings.make_engine() as engine:
            if healthy:
                self._solve_subset(
                    engine, pairs, healthy, out, rows, cols, shard_id, manifest
                )
            self._solve_subset(
                engine, pairs, suspects, out, rows, cols, shard_id, manifest
            )
        return out

    def _solve_subset(
        self,
        engine: PairwiseEMDEngine,
        pairs: Sequence[Tuple[Signature, Signature]],
        indices: Sequence[int],
        out: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        shard_id: int,
        manifest: QuarantineManifest,
    ) -> None:
        """Recursive bisection: solve a pair subset, splitting on failure."""
        if not indices:
            return
        if len(indices) == 1:
            self._rescue_pair(
                engine, pairs, indices[0], out, rows, cols, shard_id, manifest
            )
            return
        indices = list(indices)
        try:
            out[indices] = engine.compute_pairs([pairs[k] for k in indices])
            return
        except SolverError as exc:
            # When the error narrows the failure to a strict subset of
            # this group, isolate exactly those pairs; otherwise halve.
            local = sorted(
                {int(p) for p in (exc.pair_indices or ()) if 0 <= int(p) < len(indices)}
            )
        if local and len(local) < len(indices):
            implicated = [indices[p] for p in local]
            rest = [k for k in indices if k not in set(implicated)]
            halves = (rest, implicated)
        else:
            mid = len(indices) // 2
            halves = (indices[:mid], indices[mid:])
        for half in halves:
            self._solve_subset(
                engine, pairs, half, out, rows, cols, shard_id, manifest
            )

    def _rescue_pair(
        self,
        engine: PairwiseEMDEngine,
        pairs: Sequence[Tuple[Signature, Signature]],
        index: int,
        out: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        shard_id: int,
        manifest: QuarantineManifest,
    ) -> None:
        """Last line of defence for one isolated pair."""
        sig_a, sig_b = pairs[index]
        last_error: Optional[SolverError] = None
        for _ in range(1 + max(0, self.policy.poison_retries)):
            try:
                out[index] = float(engine.compute_pairs([(sig_a, sig_b)])[0])
                # Reaching here at all means the pair poisoned a batched
                # solve: any success is a rescue.
                self.n_poison_rescued += 1
                return
            except SolverError as exc:
                last_error = exc
        try:
            out[index] = float(
                emd(
                    sig_a,
                    sig_b,
                    ground_distance=self.settings.ground_distance,
                    backend="linprog",
                )
            )
            self.n_poison_rescued += 1
            return
        except SolverError as exc:
            out[index] = np.nan
            manifest.add(
                QuarantinedPair(
                    row=int(rows[index]),
                    col=int(cols[index]),
                    shard_id=shard_id,
                    reason=(
                        f"engine failed {1 + max(0, self.policy.poison_retries)} "
                        f"time(s) ({last_error}); exact-LP rescue failed: {exc}"
                    ),
                )
            )

    def _reconcile_quarantine(
        self,
        values: Mapping[int, np.ndarray],
        manifest: QuarantineManifest,
    ) -> QuarantineManifest:
        """Make the manifest match the NaN mask of the merged band exactly.

        Resumed checkpoints may carry masked pairs whose records were
        lost (manifest deleted) or records for pairs a recomputation has
        since rescued; the band itself is the ground truth.
        """
        recorded = {(p.row, p.col): p for p in manifest.pairs}
        final = QuarantineManifest(manifest.plan_hash, manifest.fingerprint)
        for spec in self.plan.shards:
            shard_values = values[spec.shard_id]
            nan_positions = np.flatnonzero(np.isnan(shard_values))
            if nan_positions.size == 0:
                continue
            rows, cols = self.plan.pair_indices(spec.shard_id)
            for k in nan_positions.tolist():
                key = (int(rows[k]), int(cols[k]))
                record = recorded.get(key)
                if record is None:
                    record = QuarantinedPair(
                        row=key[0],
                        col=key[1],
                        shard_id=spec.shard_id,
                        reason="masked pair resumed from a checkpoint "
                        "without a manifest record",
                    )
                final.add(record)
        return final


__all__ = [
    "QUARANTINE_FILENAME",
    "compute_backoff",
    "RetryPolicy",
    "QuarantinedPair",
    "QuarantineManifest",
    "WorkerCrash",
    "WorkerHang",
    "InlineWorkerBackend",
    "ProcessWorkerBackend",
    "ShardOrchestrator",
]

"""Sharded construction of the banded pairwise-EMD matrix.

The detector needs every EMD inside a width-(τ + τ′) band of the bag
sequence.  PRs 1–4 made each solve cheap; this module makes the *band
build itself* divisible: the band's pair set is partitioned into
contiguous row-blocks, each block is executed independently (in a local
process pool, or on another machine entirely), progress is checkpointed
per block, and the blocks are reassembled into a
:class:`~repro.emd.batch.BandedDistanceMatrix` identical to the
single-process build.  Three pieces:

* :class:`ShardPlan` — partitions the band into ``n_shards`` contiguous
  row-blocks, balanced by pair count.  A shard *owns* every pair
  ``(i, j)`` whose smaller index ``i`` falls in its row range, so each
  pair lands in exactly one shard; because ``j`` can reach up to
  ``bandwidth − 1`` rows past ``i``, the shard additionally needs a
  *halo* of up to ``bandwidth − 1`` signature rows beyond its range
  (read-only — halo pairs are owned by the next shard).
* :class:`ShardRunner` — executes a plan's shards through any
  :class:`~repro.emd.batch.PairwiseEMDEngine` backend.  In
  ``mode="process"`` the signature arrays are placed in
  :mod:`multiprocessing.shared_memory` *once* and each worker attaches
  to them at start-up, so jobs carry only a shard id instead of pickled
  signatures, and each shard's solves run on truly parallel processes
  instead of GIL-bound threads.  With a
  ``checkpoint_dir``, every finished shard is written as an ``.npz``
  stamped with the plan hash and an engine-config fingerprint;
  re-running after a crash recomputes only the missing shards and
  refuses (:class:`~repro.exceptions.CheckpointError`) to merge
  checkpoints produced under a different plan or solver configuration.
* :func:`merge_shards` — reassembles per-shard value vectors into the
  banded matrix.  Every backend routes each pair independently of how
  pairs are batched, so the merged band equals the single-process build
  up to last-ulp rounding in the stacked LP solves (tested at 1e-12).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import (
    CheckpointError,
    ConfigurationError,
    SolverError,
    ValidationError,
)
from ..signatures import Signature
from .batch import (
    BandedDistanceMatrix,
    PairwiseEMDEngine,
    band_pair_counts,
    band_pair_indices,
)
from .ground_distance import GroundDistance
from .registry import EMD_SOLVERS, SHARD_MODES, EMDSolverName, ShardModeName

#: Version stamp written into every shard checkpoint; bump on layout
#: changes so old files are rejected instead of misread.  v2 added the
#: payload ``checksum`` entry (sha256 over the value bytes) so silent
#: on-disk corruption — truncation survives the zip CRC only in theory,
#: bit flips inside a stored-uncompressed member do not — is detected
#: before a corrupt shard can reach :func:`merge_shards`; v3 dropped the
#: entropic solver's settings from the :class:`EngineSettings` fingerprint.
CHECKPOINT_FORMAT_VERSION = 3


def _values_checksum(values: np.ndarray) -> str:
    """sha256 over the exact float64 payload bytes of one shard."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


# ---------------------------------------------------------------------- #
# Engine settings (picklable engine recipe + config fingerprint)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineSettings:
    """Picklable recipe for the :class:`PairwiseEMDEngine` a shard runs.

    Shard workers (possibly in other processes, possibly days later when
    resuming from checkpoints) must build an engine that computes the
    *same* distances, so the solver-relevant knobs are captured here and
    hashed into the checkpoint fingerprint.  Parallelism knobs are
    deliberately absent: inside a shard the engine always runs serially
    (the sharding layer owns the parallelism), and they do not change
    any distance.
    """

    ground_distance: GroundDistance = "euclidean"
    backend: EMDSolverName = "auto"

    def __post_init__(self) -> None:
        if self.backend not in EMD_SOLVERS:
            raise ConfigurationError(
                f"backend must be one of {EMD_SOLVERS}, got {self.backend!r}"
            )

    @classmethod
    def from_config(cls, config) -> "EngineSettings":
        """Extract the engine recipe from a ``DetectorConfig``-like object."""
        return cls(ground_distance=config.ground_distance, backend=config.emd_backend)

    def make_engine(self) -> PairwiseEMDEngine:
        """A serial engine with these solver settings (validates them)."""
        return PairwiseEMDEngine(
            ground_distance=self.ground_distance,
            backend=self.backend,
            parallel_backend="serial",
        )

    def fingerprint(self) -> str:
        """Stable hash of everything that changes a computed distance.

        A callable ground distance hashes by its qualified name — the
        best available identity; renaming the function (or passing a
        lambda with the same name but different body) is on the caller.
        """
        gd = self.ground_distance
        if not isinstance(gd, str):
            gd = f"callable:{getattr(gd, '__module__', '?')}.{getattr(gd, '__qualname__', repr(gd))}"
        payload = "|".join(
            (
                f"v{CHECKPOINT_FORMAT_VERSION}",
                f"ground_distance={gd}",
                f"backend={self.backend}",
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# Shard planning
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardSpec:
    """One contiguous row-block of the band.

    Attributes
    ----------
    shard_id:
        Position of the shard in the plan (0-based).
    row_start, row_stop:
        The rows this shard *owns*: it computes every band pair
        ``(i, j)`` with ``row_start <= i < row_stop``.
    halo_stop:
        One past the last signature row the shard *reads*:
        ``min(n, row_stop + bandwidth − 1)``.  Rows in
        ``[row_stop, halo_stop)`` are the halo — needed as the ``j``
        side of owned pairs but themselves owned by a later shard.
    n_pairs:
        Number of pairs the shard owns (its checkpoint length).
    """

    shard_id: int
    row_start: int
    row_stop: int
    halo_stop: int
    n_pairs: int


class ShardPlan:
    """Partition of the band's pair set into contiguous row-blocks.

    Every band pair ``(i, j)`` (``i < j < i + bandwidth``) is owned by
    exactly one shard — the one whose row range contains ``i`` — so the
    shards' pair sets are disjoint and their union is the full band.
    :meth:`build` balances the row boundaries by pair count; the number
    of shards is capped at the number of rows that own at least one
    pair, so degenerate requests (``n_shards > n_rows``) quietly yield
    fewer, non-empty shards.
    """

    def __init__(self, n: int, bandwidth: int, row_bounds: Sequence[int]) -> None:
        self._n = check_positive_int(n, "n")
        self._bandwidth = check_positive_int(bandwidth, "bandwidth", minimum=2)
        bounds = [int(b) for b in row_bounds]
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != self._n:
            raise ValidationError(
                f"row_bounds must run from 0 to n={self._n}, got {bounds}"
            )
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValidationError(f"row_bounds must be strictly increasing, got {bounds}")
        self._bounds = tuple(bounds)
        counts = band_pair_counts(self._n, self._bandwidth)
        cum = np.concatenate(([0], np.cumsum(counts)))
        self._shards = tuple(
            ShardSpec(
                shard_id=s,
                row_start=lo,
                row_stop=hi,
                halo_stop=min(self._n, hi + self._bandwidth - 1),
                n_pairs=int(cum[hi] - cum[lo]),
            )
            for s, (lo, hi) in enumerate(zip(self._bounds, self._bounds[1:]))
        )

    @classmethod
    def build(cls, n: int, bandwidth: int, n_shards: int) -> "ShardPlan":
        """Balanced plan: row boundaries chosen so shards own ~equal pairs."""
        n = check_positive_int(n, "n")
        bandwidth = check_positive_int(bandwidth, "bandwidth", minimum=2)
        n_shards = check_positive_int(n_shards, "n_shards")
        counts = band_pair_counts(n, bandwidth)
        rows_with_pairs = int(np.count_nonzero(counts))
        k = max(1, min(n_shards, rows_with_pairs))
        cum = np.cumsum(counts)
        total = int(cum[-1]) if counts.size else 0
        if total == 0 or k == 1:
            return cls(n, bandwidth, (0, n))
        targets = total * np.arange(1, k) / k
        interior = np.searchsorted(cum, targets, side="left") + 1
        bounds = np.unique(np.concatenate(([0], interior, [n])))
        return cls(n, bandwidth, bounds.tolist())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of signatures (rows of the banded matrix)."""
        return self._n

    @property
    def bandwidth(self) -> int:
        """Band width τ + τ′: offsets ``1 … bandwidth − 1`` are stored."""
        return self._bandwidth

    @property
    def n_shards(self) -> int:
        """Number of shards actually planned (≤ the requested count)."""
        return len(self._shards)

    @property
    def shards(self) -> Tuple[ShardSpec, ...]:
        """The shard specs, in row order."""
        return self._shards

    @property
    def n_pairs(self) -> int:
        """Total band pairs across all shards."""
        return sum(spec.n_pairs for spec in self._shards)

    @property
    def row_bounds(self) -> Tuple[int, ...]:
        """The ``n_shards + 1`` row boundaries."""
        return self._bounds

    def shard(self, shard_id: int) -> ShardSpec:
        """The spec of one shard (raises on unknown ids)."""
        if not 0 <= shard_id < len(self._shards):
            raise ValidationError(
                f"shard_id must lie in [0, {len(self._shards)}), got {shard_id}"
            )
        return self._shards[shard_id]

    def pair_indices(self, shard_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Global ``(i, j)`` pairs owned by one shard, in canonical order.

        The order matches the full-band enumeration restricted to the
        shard's rows, which is also the order of its checkpoint values.
        """
        spec = self.shard(shard_id)
        return band_pair_indices(self._n, self._bandwidth, spec.row_start, spec.row_stop)

    def plan_hash(self) -> str:
        """Stable hash of the geometry (n, bandwidth, row boundaries)."""
        payload = (
            f"v{CHECKPOINT_FORMAT_VERSION}|n={self._n}|bandwidth={self._bandwidth}"
            f"|bounds={','.join(map(str, self._bounds))}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardPlan(n={self._n}, bandwidth={self._bandwidth}, "
            f"n_shards={self.n_shards}, n_pairs={self.n_pairs})"
        )


# ---------------------------------------------------------------------- #
# Checkpoints
# ---------------------------------------------------------------------- #
def checkpoint_path(directory: Union[str, Path], shard_id: int) -> Path:
    """Canonical checkpoint file for one shard."""
    return Path(directory) / f"shard_{shard_id:05d}.npz"


def save_shard_checkpoint(
    directory: Union[str, Path],
    plan: ShardPlan,
    shard_id: int,
    values: np.ndarray,
    fingerprint: str,
) -> Path:
    """Atomically write one shard's values, stamped for safe resumes.

    The payload lands in a temporary file first and is renamed into
    place, so a kill mid-write leaves no half-written checkpoint under
    the canonical name.
    """
    spec = plan.shard(shard_id)
    values = np.asarray(values, dtype=float)
    if values.shape != (spec.n_pairs,):
        raise ValidationError(
            f"shard {shard_id} expects {spec.n_pairs} values, got shape {values.shape}"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, shard_id)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".shard_{shard_id:05d}.", suffix=".tmp.npz", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(
                handle,
                format_version=np.array(CHECKPOINT_FORMAT_VERSION),
                plan_hash=np.array(plan.plan_hash()),
                fingerprint=np.array(fingerprint),
                shard_id=np.array(spec.shard_id),
                row_start=np.array(spec.row_start),
                row_stop=np.array(spec.row_stop),
                checksum=np.array(_values_checksum(values)),
                values=values,
            )
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_shard_checkpoint(
    directory: Union[str, Path],
    plan: ShardPlan,
    shard_id: int,
    fingerprint: str,
) -> Optional[np.ndarray]:
    """One shard's checkpointed values, or ``None`` when not yet written.

    Raises :class:`~repro.exceptions.CheckpointError` when a file exists
    but is unreadable or *stale* — produced under a different shard plan
    or engine configuration.  Stale checkpoints are never silently
    recomputed: mixing them into a merge would be wrong, and recomputing
    behind the caller's back would hide that the directory holds results
    for a different run.
    """
    spec = plan.shard(shard_id)
    path = checkpoint_path(directory, shard_id)
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as archive:
            version = int(archive["format_version"])
            plan_hash = str(archive["plan_hash"])
            stamp = str(archive["fingerprint"])
            checksum = str(archive["checksum"])
            values = np.asarray(archive["values"], dtype=float)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}; clear the checkpoint directory"
        )
    if plan_hash != plan.plan_hash():
        raise CheckpointError(
            f"checkpoint {path} was written for a different shard plan: "
            f"expected plan hash {plan.plan_hash()}, found {plan_hash}; "
            "clear the checkpoint directory or rebuild with the original "
            "n/bandwidth/n_shards"
        )
    if stamp != fingerprint:
        raise CheckpointError(
            f"checkpoint {path} was computed under a different engine "
            f"configuration: expected fingerprint {fingerprint}, found "
            f"{stamp}; clear the checkpoint directory or restore the "
            "original solver settings"
        )
    if values.shape != (spec.n_pairs,):
        raise CheckpointError(
            f"checkpoint {path} holds {values.shape} values, "
            f"shard {shard_id} owns {spec.n_pairs} pairs"
        )
    found_checksum = _values_checksum(values)
    if checksum != found_checksum:
        raise CheckpointError(
            f"checkpoint {path} is corrupt: expected payload checksum "
            f"{checksum}, found {found_checksum}; delete the file and "
            "recompute the shard"
        )
    return values


# ---------------------------------------------------------------------- #
# Merging
# ---------------------------------------------------------------------- #
def merge_shards(
    plan: ShardPlan, shard_values: Mapping[int, np.ndarray]
) -> BandedDistanceMatrix:
    """Reassemble per-shard value vectors into the banded matrix.

    ``shard_values`` maps every shard id of the plan to the values of
    its owned pairs, in the order of :meth:`ShardPlan.pair_indices`.
    Because the shards partition the band, the result carries exactly
    one write per band entry and equals the single-process build.
    """
    missing = [spec.shard_id for spec in plan.shards if spec.shard_id not in shard_values]
    if missing:
        raise ValidationError(f"missing values for shards {missing}")
    banded = BandedDistanceMatrix(plan.n, plan.bandwidth)
    for spec in plan.shards:
        rows, cols = plan.pair_indices(spec.shard_id)
        values = np.asarray(shard_values[spec.shard_id], dtype=float)
        if values.shape != (spec.n_pairs,):
            raise ValidationError(
                f"shard {spec.shard_id} expects {spec.n_pairs} values, "
                f"got shape {values.shape}"
            )
        banded.set_pairs(rows, cols, values)
    return banded


# ---------------------------------------------------------------------- #
# Shared-memory signature store (process mode)
# ---------------------------------------------------------------------- #
def _pack_signatures(
    signatures: Sequence[Signature],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten signatures into (offsets, positions, weights) arrays."""
    dims = {sig.dimension for sig in signatures}
    if len(dims) > 1:
        raise ValidationError(f"signatures mix dimensions {sorted(dims)}")
    sizes = np.fromiter((sig.size for sig in signatures), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    positions = np.concatenate([np.asarray(sig.positions, dtype=float) for sig in signatures])
    weights = np.concatenate([np.asarray(sig.weights, dtype=float) for sig in signatures])
    return offsets, positions, weights


class _SharedSignatureStore:
    """Parent-side owner of the shared-memory signature buffers.

    The three flat arrays are copied into ``multiprocessing.shared_memory``
    blocks exactly once; workers attach by name at pool start-up, so a
    shard job pickles nothing but a few integers.

    Shared-memory segments outlive the process that created them (they
    are files under ``/dev/shm``), so every exit path — including a
    partial construction failure and a worker dying mid-shard — must
    unlink them explicitly or the host slowly fills with orphaned
    segments.  Construction therefore cleans up the blocks it already
    created when a later allocation fails, and :meth:`close` is
    idempotent so callers can keep it in a ``finally``.
    """

    def __init__(self, signatures: Sequence[Signature]) -> None:
        from multiprocessing import shared_memory

        offsets, positions, weights = _pack_signatures(signatures)
        self._blocks = []
        self.meta: Dict[str, Tuple[str, tuple, str]] = {}
        try:
            for name, array in (
                ("offsets", offsets),
                ("positions", positions),
                ("weights", weights),
            ):
                block = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
                self._blocks.append(block)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
                view[...] = array
                self.meta[name] = (block.name, array.shape, array.dtype.str)
        except BaseException:
            # A partial construction (e.g. /dev/shm exhausted on the
            # third block) must not leak the blocks already created.
            self.close()
            raise

    def close(self) -> None:
        for block in self._blocks:
            try:
                block.close()
                block.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._blocks = []


# Per-worker state, populated once by the pool initializer: attached
# shared-memory blocks, reconstructed array views, and a lazily created
# serial engine reused across all shards the worker executes.
_worker_state: dict = {}


def _shard_worker_init(meta: dict, settings: EngineSettings, n: int, bandwidth: int) -> None:
    from multiprocessing import shared_memory

    arrays = {}
    blocks = []
    try:
        for name, (shm_name, shape, dtype) in meta.items():
            block = shared_memory.SharedMemory(name=shm_name)
            blocks.append(block)
            arrays[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
    except BaseException:
        # Detach any blocks this worker already mapped; the parent-side
        # store still owns the segments and will unlink them.
        for block in blocks:
            try:
                block.close()
            except OSError:  # pragma: no cover - already detached
                pass
        raise
    _worker_state.clear()
    _worker_state.update(
        arrays=arrays,
        blocks=blocks,  # keep references so the buffers stay mapped
        settings=settings,
        n=n,
        bandwidth=bandwidth,
        engine=None,
    )


def _signatures_from_arrays(
    arrays: Mapping[str, np.ndarray], row_start: int, row_stop: int
) -> Dict[int, Signature]:
    """Reconstruct the signatures for rows ``[row_start, row_stop)``.

    ``Signature`` copies its inputs on construction, so the returned
    objects own their data and the shared buffers can be detached
    independently.
    """
    offsets = arrays["offsets"]
    positions = arrays["positions"]
    weights = arrays["weights"]
    return {
        r: Signature(
            positions=positions[offsets[r] : offsets[r + 1]],
            weights=weights[offsets[r] : offsets[r + 1]],
            label=r,
        )
        for r in range(row_start, row_stop)
    }


def _compute_shard_values(
    engine: PairwiseEMDEngine,
    signatures: Mapping[int, Signature],
    plan: ShardPlan,
    shard_id: int,
) -> np.ndarray:
    """One shard's distances, with shard context attached to failures."""
    spec = plan.shard(shard_id)
    rows, cols = plan.pair_indices(shard_id)
    pairs = [(signatures[i], signatures[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    try:
        return engine.compute_pairs(pairs)
    except SolverError as exc:
        raise SolverError(
            f"{exc} [while computing shard {shard_id}, "
            f"rows [{spec.row_start}, {spec.row_stop}) of {plan.n}]",
            pair_indices=exc.pair_indices,
            shard_id=shard_id,
            shard_rows=(spec.row_start, spec.row_stop),
        ) from exc


def _shard_worker_run(task: Tuple[int, tuple]) -> Tuple[int, np.ndarray]:
    shard_id, row_bounds = task
    state = _worker_state
    plan = ShardPlan(state["n"], state["bandwidth"], row_bounds)
    spec = plan.shard(shard_id)
    signatures = _signatures_from_arrays(
        state["arrays"], spec.row_start, spec.halo_stop
    )
    if state["engine"] is None:
        state["engine"] = state["settings"].make_engine()
    return shard_id, _compute_shard_values(state["engine"], signatures, plan, shard_id)


# ---------------------------------------------------------------------- #
# The runner
# ---------------------------------------------------------------------- #
class ShardRunner:
    """Executes a :class:`ShardPlan` and merges the result.

    Parameters
    ----------
    plan:
        The shard plan (fixes n, bandwidth and the row boundaries).
    settings:
        The :class:`EngineSettings` every shard solves under; defaults
        to the engine defaults.
    mode:
        ``"process"`` (default) executes pending shards on a process
        pool with the signatures in shared memory; ``"serial"`` runs
        them sequentially in-process (still checkpointable — useful for
        resumable single-machine builds and for tests).  Process mode
        falls back to serial, with a warning, when pools or shared
        memory are unavailable, and runs serially anyway when only one
        shard is pending or one worker is available.
    n_workers:
        Process-pool size; defaults to the CPU count.
    checkpoint_dir:
        When set, finished shards are written here as ``shard_*.npz``
        and :meth:`run` resumes by loading every valid checkpoint
        instead of recomputing it.

    Attributes
    ----------
    n_shards_computed, n_shards_resumed:
        After :meth:`run`: how many shards were solved this call vs
        loaded from checkpoints.
    """

    def __init__(
        self,
        plan: ShardPlan,
        settings: Optional[EngineSettings] = None,
        *,
        mode: ShardModeName = "process",
        n_workers: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if mode not in SHARD_MODES:
            raise ConfigurationError(f"mode must be one of {SHARD_MODES}, got {mode!r}")
        if n_workers is not None:
            n_workers = check_positive_int(n_workers, "n_workers")
        self.plan = plan
        self.settings = settings if settings is not None else EngineSettings()
        self.settings.make_engine().close()  # validate the recipe eagerly
        self.mode = mode
        self.n_workers = n_workers
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self.n_shards_computed = 0
        self.n_shards_resumed = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, signatures: Sequence[Signature]) -> BandedDistanceMatrix:
        """Compute (or resume) every shard and merge the band."""
        self._check_signatures(signatures)
        self.n_shards_computed = 0
        self.n_shards_resumed = 0
        fingerprint = self.settings.fingerprint()
        values: Dict[int, np.ndarray] = {}
        pending: List[int] = []
        for spec in self.plan.shards:
            loaded = None
            if self.checkpoint_dir is not None:
                loaded = load_shard_checkpoint(
                    self.checkpoint_dir, self.plan, spec.shard_id, fingerprint
                )
            if loaded is None:
                pending.append(spec.shard_id)
            else:
                values[spec.shard_id] = loaded
                self.n_shards_resumed += 1
        if pending:
            values.update(self._execute(signatures, pending, fingerprint))
            self.n_shards_computed += len(pending)
        return merge_shards(self.plan, values)

    def run_shard(self, signatures: Sequence[Signature], shard_id: int) -> np.ndarray:
        """Compute one shard in-process (checkpointing it when configured).

        The building block for external drivers that spread shards over
        several machines: each machine runs its shard ids against the
        same plan/settings and ships the checkpoint files to one place
        for the final :meth:`run` (which then merely loads and merges).
        """
        self._check_signatures(signatures)
        fingerprint = self.settings.fingerprint()
        return self._execute_serial(signatures, [shard_id], fingerprint)[shard_id]

    # ------------------------------------------------------------------ #
    # Execution backends
    # ------------------------------------------------------------------ #
    def _check_signatures(self, signatures: Sequence[Signature]) -> None:
        if len(signatures) != self.plan.n:
            raise ValidationError(
                f"plan covers {self.plan.n} signatures, got {len(signatures)}"
            )

    def _effective_workers(self) -> int:
        return self.n_workers or os.cpu_count() or 1

    def _checkpoint(self, shard_id: int, values: np.ndarray, fingerprint: str) -> None:
        """Persist one finished shard immediately (kill-resume depends on it)."""
        if self.checkpoint_dir is not None:
            save_shard_checkpoint(
                self.checkpoint_dir, self.plan, shard_id, values, fingerprint
            )

    def _execute(
        self, signatures: Sequence[Signature], shard_ids: List[int], fingerprint: str
    ) -> Dict[int, np.ndarray]:
        workers = min(self._effective_workers(), len(shard_ids))
        if self.mode == "serial" or workers <= 1:
            return self._execute_serial(signatures, shard_ids, fingerprint)
        try:
            return self._execute_process(signatures, shard_ids, workers, fingerprint)
        except (OSError, ValueError, ImportError, RuntimeError) as exc:
            if isinstance(exc, (SolverError, CheckpointError)):
                raise
            # No /dev/shm, forbidden fork, broken pool, ...: the serial
            # path computes the identical result, so degrade gracefully.
            warnings.warn(
                f"process-mode shard execution unavailable ({exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return self._execute_serial(signatures, shard_ids, fingerprint)

    def _execute_serial(
        self, signatures: Sequence[Signature], shard_ids: List[int], fingerprint: str
    ) -> Dict[int, np.ndarray]:
        by_row = dict(enumerate(signatures))
        results: Dict[int, np.ndarray] = {}
        with self.settings.make_engine() as engine:
            for shard_id in shard_ids:
                shard_values = _compute_shard_values(engine, by_row, self.plan, shard_id)
                # Checkpoint each shard as it finishes, not at the end of
                # the run: a kill (or a solver failure in a later shard)
                # must not discard the shards already solved.
                self._checkpoint(shard_id, shard_values, fingerprint)
                results[shard_id] = shard_values
        return results

    def _execute_process(
        self,
        signatures: Sequence[Signature],
        shard_ids: List[int],
        workers: int,
        fingerprint: str,
    ) -> Dict[int, np.ndarray]:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        store = _SharedSignatureStore(signatures)
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_shard_worker_init,
                initargs=(store.meta, self.settings, self.plan.n, self.plan.bandwidth),
            ) as pool:
                futures = [
                    pool.submit(_shard_worker_run, (shard_id, self.plan.row_bounds))
                    for shard_id in shard_ids
                ]
                results: Dict[int, np.ndarray] = {}
                # Checkpoint in completion order so finished shards are
                # durable even if a later one fails or the run is killed.
                for future in as_completed(futures):
                    shard_id, shard_values = future.result()
                    self._checkpoint(shard_id, shard_values, fingerprint)
                    results[shard_id] = shard_values
                return results
        finally:
            store.close()


def sharded_banded_matrix(
    signatures: Sequence[Signature],
    bandwidth: int,
    n_shards: int,
    *,
    settings: Optional[EngineSettings] = None,
    mode: ShardModeName = "process",
    n_workers: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
) -> BandedDistanceMatrix:
    """Convenience wrapper: plan, run and merge in one call."""
    plan = ShardPlan.build(len(signatures), bandwidth, n_shards)
    runner = ShardRunner(
        plan,
        settings,
        mode=mode,
        n_workers=n_workers,
        checkpoint_dir=checkpoint_dir,
    )
    return runner.run(signatures)

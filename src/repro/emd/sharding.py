"""Sharded construction of the banded pairwise-EMD matrix.

The detector needs every EMD inside a width-(τ + τ′) band of the bag
sequence.  PRs 1–4 made each solve cheap; this module makes the *band
build itself* divisible: the band's pair set is partitioned into
contiguous row-blocks, each block is executed independently (in-process
or in a worker process), progress is checkpointed per block, and the
blocks are reassembled into a
:class:`~repro.emd.batch.BandedDistanceMatrix` equal to the
single-process build.  Three pieces:

* :class:`ShardPlan` — partitions the band into ``n_shards`` contiguous
  row-blocks, balanced by pair count.  A shard *owns* every pair
  ``(i, j)`` whose smaller index ``i`` falls in its row range, so each
  pair lands in exactly one shard; because ``j`` can reach up to
  ``bandwidth − 1`` rows past ``i``, the shard additionally needs a
  *halo* of up to ``bandwidth − 1`` signature rows beyond its range
  (read-only — halo pairs are owned by the next shard).
* shard checkpoints — :func:`save_shard_checkpoint` writes one
  finished shard in the stamped format of :mod:`repro._artifacts`, with
  the plan hash, the shard id and a :func:`band_fingerprint` of the
  engine configuration and the input signatures as identity stamps;
  :func:`load_shard_checkpoint` refuses
  (:class:`~repro.exceptions.CheckpointError`) a corrupt file or one
  written for another plan, shard, solver configuration or input data.
* :func:`merge_shards` — reassembles per-shard value vectors into the
  banded matrix.  The engine routes each pair independently of how
  pairs are batched, so the merged band equals the single-process build
  up to last-ulp rounding in the stacked LP solves (tested at 1e-12).

:class:`~repro.emd.orchestrator.ShardOrchestrator` drives a plan through
these pieces; the shared-memory signature store and the per-shard solve
below are its building blocks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .._artifacts import Stamp, load_stamped, save_stamped
from .._validation import check_positive_int
from ..exceptions import SolverError, ValidationError
from ..signatures import Signature
from .batch import (
    BandedDistanceMatrix,
    PairwiseEMDEngine,
    band_pair_counts,
    band_pair_indices,
)
from .ground_distance import GroundDistance, ground_distance_identity

#: Version stamp written into every shard checkpoint; bump on layout
#: changes so old files are rejected instead of misread.  v2 added the
#: payload ``checksum`` entry (sha256 over the value bytes) so silent
#: on-disk corruption — truncation survives the zip CRC only in theory,
#: bit flips inside a stored-uncompressed member do not — is detected
#: before a corrupt shard can reach :func:`merge_shards`; v3 dropped the
#: entropic solver's settings from the :class:`EngineSettings` fingerprint;
#: v4 dropped the solver name, now that the engine has one route; v5
#: stamps checkpoints with :func:`band_fingerprint`, which also hashes the
#: input signatures; v6 moved to the shared :mod:`repro._artifacts`
#: layout, which checks the ``shard_id`` stamp on load and drops the row
#: bounds (they follow from the plan hash and the shard id).
CHECKPOINT_FORMAT_VERSION = 6


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
    any distance.  The engine has one route, so the ground distance is
    the only solver knob.
    """

    ground_distance: GroundDistance = "euclidean"

    @classmethod
    def from_config(cls, config) -> "EngineSettings":
        """Extract the engine recipe from a ``DetectorConfig``-like object."""
        return cls(ground_distance=config.ground_distance)

    def make_engine(self) -> PairwiseEMDEngine:
        """A serial engine with these solver settings."""
        return PairwiseEMDEngine(
            ground_distance=self.ground_distance, parallel_backend="serial"
        )

    def fingerprint(self) -> str:
        """Stable hash of everything that changes a computed distance.

        A callable ground distance hashes by its qualified name (see
        :func:`~repro.emd.ground_distance.ground_distance_identity`).
        """
        payload = "|".join(
            (
                f"v{CHECKPOINT_FORMAT_VERSION}",
                f"ground_distance={ground_distance_identity(self.ground_distance)}",
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


def _stamps(plan: ShardPlan, shard_id: int, fingerprint: str) -> Tuple[Stamp, ...]:
    """The identity stamps of one shard's checkpoint, in checking order."""
    return (
        Stamp("plan_hash", plan.plan_hash(), "shard plan"),
        Stamp("shard_id", str(shard_id), "shard"),
        Stamp("fingerprint", fingerprint, "engine configuration or input data"),
    )


def save_shard_checkpoint(
    directory: Union[str, Path],
    plan: ShardPlan,
    shard_id: int,
    values: np.ndarray,
    fingerprint: str,
) -> Path:
    """Atomically write one shard's values, stamped for safe resumes."""
    spec = plan.shard(shard_id)
    values = np.asarray(values, dtype=float)
    if values.shape != (spec.n_pairs,):
        raise ValidationError(
            f"shard {shard_id} expects {spec.n_pairs} values, got shape {values.shape}"
        )
    return save_stamped(
        checkpoint_path(directory, shard_id),
        CHECKPOINT_FORMAT_VERSION,
        _stamps(plan, shard_id, fingerprint),
        {"values": values},
    )


def load_shard_checkpoint(
    directory: Union[str, Path],
    plan: ShardPlan,
    shard_id: int,
    fingerprint: str,
) -> Optional[np.ndarray]:
    """One shard's checkpointed values, or ``None`` when not yet written.

    Raises :class:`~repro.exceptions.CheckpointError` when a file exists
    but is unreadable, corrupt or *stale* — produced under a different
    shard plan or engine configuration, or copied from another shard.
    Stale checkpoints are never silently recomputed: mixing them into a
    merge would be wrong, and recomputing behind the caller's back would
    hide that the directory holds results for a different run.
    """
    plan.shard(shard_id)  # rejects an unknown shard id
    payload = load_stamped(
        checkpoint_path(directory, shard_id),
        "checkpoint",
        CHECKPOINT_FORMAT_VERSION,
        _stamps(plan, shard_id, fingerprint),
        ("values",),
    )
    return None if payload is None else payload["values"]


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


def band_fingerprint(settings: EngineSettings, signatures: Sequence[Signature]) -> str:
    """Stamp of a band build: the engine fingerprint plus the input data.

    Folds a sha256 of the packed signature arrays into
    :meth:`EngineSettings.fingerprint`, so a checkpoint directory written
    for other input data is re-queued, never resumed.  Kept out of
    :meth:`EngineSettings.fingerprint` itself, which also keys the
    streaming supervisor's batching and must not depend on the data.
    """
    digest = hashlib.sha256(settings.fingerprint().encode())
    for array in _pack_signatures(signatures):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


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

"""Stamped, checksummed on-disk snapshots of online detector streams.

The in-memory form of a stream's state is
:meth:`repro.core.OnlineBagDetector.state_dict`; this module packs it
into payload arrays and stores them in the stamped, atomically written
format of :mod:`repro._artifacts` (shared with the shard checkpoints of
:mod:`repro.emd.sharding`).  The identity stamps are the
online-detector **state version**, the **stream** name and a **config
fingerprint** (sha256 over every score-affecting detector setting).
Loads never repair: an unreadable, stale, corrupt or renamed snapshot
raises :class:`~repro.exceptions.CheckpointError`, because silently
restoring a stream from a snapshot produced under different settings
would continue it with the wrong computation.

The quarantine manifest of :class:`repro.service.StreamSupervisor` —
the JSON record of streams parked by the ``"quarantine"`` error policy —
is persisted here too, next to the snapshots it refers to.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .._artifacts import Stamp, load_stamped, save_stamped, write_atomic
from ..bootstrap import ConfidenceInterval
from ..core.config import DetectorConfig
from ..core.online import STATE_FORMAT_VERSION
from ..core.results import ScorePoint
from ..emd.ground_distance import ground_distance_identity
from ..exceptions import CheckpointError, ValidationError
from ..signatures import Signature

#: Version stamp written into every stream snapshot; bumped on layout
#: changes so an old file is rejected with a clear message instead of
#: being misread into a silently wrong stream state.  v2 dropped the
#: entropic solver's settings from :func:`config_fingerprint`; v3
#: dropped ``emd_backend``, which has one meaning now; v4 moved to the
#: shared :mod:`repro._artifacts` layout, which checks the ``stream`` and
#: ``state_version`` stamps on load.
SNAPSHOT_FORMAT_VERSION = 4

#: Version stamp of the quarantine manifest JSON layout.
QUARANTINE_MANIFEST_VERSION = 1

#: Stream names become file names, so they are restricted to a
#: filesystem-safe alphabet up front.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9._-]+$")

#: The payload arrays of a snapshot.
_PAYLOAD_KEYS: Tuple[str, ...] = (
    "n_seen",
    "sig_indices",
    "sig_offsets",
    "sig_positions",
    "sig_weights",
    "window_matrix",
    "log_matrix",
    "rng_state_json",
    "threshold_times",
    "threshold_bounds",
    "history_times",
    "history_scores",
    "history_gammas",
    "history_alerts",
    "history_bounds",
)


def check_stream_name(name: str) -> str:
    """Validate a stream name (it becomes part of a file name)."""
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ValidationError(
            "stream names must be non-empty and use only letters, digits, "
            f"'.', '_' and '-', got {name!r}"
        )
    return name


def snapshot_path(directory: Union[str, Path], name: str) -> Path:
    """Canonical snapshot file for one stream."""
    return Path(directory) / f"stream_{check_stream_name(name)}.npz"


def quarantine_manifest_path(directory: Union[str, Path]) -> Path:
    """Canonical quarantine manifest file of a snapshot directory."""
    return Path(directory) / "stream_quarantine.json"


# ---------------------------------------------------------------------- #
# Config fingerprint
# ---------------------------------------------------------------------- #
def config_fingerprint(config: DetectorConfig) -> str:
    """Stable hash of every detector setting that changes a score.

    Two configs with equal fingerprints produce bit-identical score
    streams from identical inputs, so a snapshot may only be restored
    into a detector whose config fingerprint matches.  Runtime-only
    knobs — parallelism, sharding, checkpoint paths, ``history_limit`` —
    are deliberately excluded: they change how fast or how much is
    retained, never what is computed.
    """
    est = config.estimator
    payload = "|".join(
        (
            f"v{SNAPSHOT_FORMAT_VERSION}",
            f"tau={config.tau}",
            f"tau_test={config.tau_test}",
            f"score={config.score}",
            f"signature_method={config.signature_method}",
            f"n_clusters={config.n_clusters}",
            f"bins={config.bins!r}",
            f"histogram_range={None if config.histogram_range is None else [tuple(map(float, r)) for r in np.atleast_2d(np.asarray(config.histogram_range, dtype=float))]!r}",
            f"ground_distance={ground_distance_identity(config.ground_distance)}",
            f"lr_inspection_index={config.lr_inspection_index}",
            f"weighting={config.weighting}",
            f"n_bootstrap={config.n_bootstrap}",
            f"alpha={config.alpha!r}",
            f"estimator_constant={est.constant!r}",
            f"estimator_dimension={est.dimension!r}",
            f"estimator_min_distance={est.min_distance!r}",
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# State <-> array packing
# ---------------------------------------------------------------------- #
def _encode_rng_state(rng_state: Dict[str, Any]) -> str:
    """JSON-encode a bit-generator state (ndarray members become lists)."""

    def _default(obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.integer):
            return int(obj)
        raise TypeError(f"cannot serialise {type(obj).__name__} in RNG state")

    return json.dumps(rng_state, default=_default)


def _decode_rng_state(encoded: str) -> Dict[str, Any]:
    """Invert :func:`_encode_rng_state` (restores MT19937 key arrays)."""
    state: Dict[str, Any] = json.loads(encoded)
    inner = state.get("state")
    if isinstance(inner, dict) and isinstance(inner.get("key"), list):
        inner["key"] = np.asarray(inner["key"], dtype=np.uint32)
    return state


def _intervals_to_arrays(
    items: List[Tuple[int, ConfidenceInterval]]
) -> Tuple[np.ndarray, np.ndarray]:
    times = np.array([t for t, _ in items], dtype=np.int64)
    bounds = np.array(
        [[iv.lower, iv.upper, iv.level, iv.point] for _, iv in items], dtype=float
    ).reshape(len(items), 4)
    return times, bounds


def _interval_from_row(row: np.ndarray) -> ConfidenceInterval:
    return ConfidenceInterval(
        lower=float(row[0]), upper=float(row[1]), level=float(row[2]), point=float(row[3])
    )


def _pack_state(state: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Flatten a detector state dict into named numpy payload arrays."""
    signatures: List[Tuple[int, Signature]] = state["signatures"]
    sig_indices = np.array([int(i) for i, _ in signatures], dtype=np.int64)
    sizes = [sig.size for _, sig in signatures]
    sig_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    if signatures:
        sig_positions = np.vstack([np.asarray(sig.positions, dtype=float) for _, sig in signatures])
        sig_weights = np.concatenate([np.asarray(sig.weights, dtype=float) for _, sig in signatures])
    else:
        sig_positions = np.zeros((0, 1), dtype=float)
        sig_weights = np.zeros(0, dtype=float)

    threshold: Dict[int, ConfidenceInterval] = state["threshold"]
    threshold_times, threshold_bounds = _intervals_to_arrays(
        sorted(threshold.items())
    )

    history: List[ScorePoint] = state["history"]
    history_times = np.array([p.time for p in history], dtype=np.int64)
    history_scores = np.array([p.score for p in history], dtype=float)
    history_gammas = np.array([p.gamma for p in history], dtype=float)
    history_alerts = np.array([p.alert for p in history], dtype=bool)
    _, history_bounds = _intervals_to_arrays([(p.time, p.interval) for p in history])

    return {
        "n_seen": np.array(int(state["n_seen"]), dtype=np.int64),
        "sig_indices": sig_indices,
        "sig_offsets": sig_offsets,
        "sig_positions": sig_positions,
        "sig_weights": sig_weights,
        "window_matrix": np.asarray(state["window_matrix"], dtype=float),
        "log_matrix": np.asarray(state["log_matrix"], dtype=float),
        "rng_state_json": np.array(_encode_rng_state(dict(state["rng_state"]))),
        "threshold_times": threshold_times,
        "threshold_bounds": threshold_bounds,
        "history_times": history_times,
        "history_scores": history_scores,
        "history_gammas": history_gammas,
        "history_alerts": history_alerts,
        "history_bounds": history_bounds,
    }


def _unpack_state(payload: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """Invert :func:`_pack_state` back into a detector state dict."""
    sig_indices = np.asarray(payload["sig_indices"], dtype=np.int64)
    sig_offsets = np.asarray(payload["sig_offsets"], dtype=np.int64)
    sig_positions = np.asarray(payload["sig_positions"], dtype=float)
    sig_weights = np.asarray(payload["sig_weights"], dtype=float)
    signatures: List[Tuple[int, Signature]] = []
    for k, index in enumerate(sig_indices):
        lo, hi = int(sig_offsets[k]), int(sig_offsets[k + 1])
        signatures.append(
            (
                int(index),
                Signature(
                    positions=sig_positions[lo:hi],
                    weights=sig_weights[lo:hi],
                    label=int(index),
                ),
            )
        )

    threshold_times = np.asarray(payload["threshold_times"], dtype=np.int64)
    threshold_bounds = np.asarray(payload["threshold_bounds"], dtype=float)
    threshold = {
        int(t): _interval_from_row(threshold_bounds[k])
        for k, t in enumerate(threshold_times)
    }

    history_times = np.asarray(payload["history_times"], dtype=np.int64)
    history_bounds = np.asarray(payload["history_bounds"], dtype=float)
    history = [
        ScorePoint(
            time=int(history_times[k]),
            score=float(payload["history_scores"][k]),
            interval=_interval_from_row(history_bounds[k]),
            gamma=float(payload["history_gammas"][k]),
            alert=bool(payload["history_alerts"][k]),
        )
        for k in range(len(history_times))
    ]

    return {
        "format_version": STATE_FORMAT_VERSION,
        "n_seen": int(payload["n_seen"]),
        "signatures": signatures,
        "window_matrix": np.asarray(payload["window_matrix"], dtype=float),
        "log_matrix": np.asarray(payload["log_matrix"], dtype=float),
        "rng_state": _decode_rng_state(str(payload["rng_state_json"])),
        "threshold": threshold,
        "history": history,
    }


# ---------------------------------------------------------------------- #
# Save / load
# ---------------------------------------------------------------------- #
def _stamps(name: str, fingerprint: str) -> Tuple[Stamp, ...]:
    """The identity stamps of one stream's snapshot, in checking order."""
    return (
        Stamp("state_version", str(STATE_FORMAT_VERSION), "online-detector state layout"),
        Stamp("stream", name, "stream"),
        Stamp("fingerprint", fingerprint, "detector configuration"),
    )


def save_stream_snapshot(
    directory: Union[str, Path],
    name: str,
    state: Dict[str, Any],
    fingerprint: str,
) -> Path:
    """Atomically write one stream's state, stamped for safe restores."""
    version = int(state.get("format_version", -1))
    if version != STATE_FORMAT_VERSION:
        raise ValidationError(
            f"stream state has format version {version}, expected "
            f"{STATE_FORMAT_VERSION}"
        )
    return save_stamped(
        snapshot_path(directory, name),
        SNAPSHOT_FORMAT_VERSION,
        _stamps(name, fingerprint),
        _pack_state(state),
    )


def load_stream_snapshot(
    directory: Union[str, Path],
    name: str,
    fingerprint: str,
) -> Optional[Dict[str, Any]]:
    """One stream's snapshotted state, or ``None`` when not yet written.

    Raises :class:`~repro.exceptions.CheckpointError` when a file exists
    but is unreadable, has a different snapshot format, belongs to
    another stream, was captured under a different config fingerprint,
    or fails its payload checksum.  A rejected snapshot is never
    silently discarded or recomputed — the caller decides whether to
    delete it or to restore the original configuration.
    """
    payload = load_stamped(
        snapshot_path(directory, name),
        "stream snapshot",
        SNAPSHOT_FORMAT_VERSION,
        _stamps(name, fingerprint),
        _PAYLOAD_KEYS,
    )
    return None if payload is None else _unpack_state(payload)


# ---------------------------------------------------------------------- #
# Quarantine manifest
# ---------------------------------------------------------------------- #
def _manifest_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """One stream's quarantine record with its fields in their JSON types."""
    return {
        "n_seen": int(entry["n_seen"]),
        "reason": str(entry["reason"]),
        "fingerprint": str(entry["fingerprint"]),
    }


def save_quarantine_manifest(
    directory: Union[str, Path], entries: Dict[str, Dict[str, Any]]
) -> Path:
    """Atomically persist the supervisor's quarantined-stream record.

    ``entries`` maps stream names to ``{"n_seen", "reason",
    "fingerprint"}`` dicts; an empty mapping is written out too (it
    records that nothing is quarantined any more).
    """
    document = {
        "format_version": QUARANTINE_MANIFEST_VERSION,
        "streams": {
            check_stream_name(name): _manifest_entry(entry)
            for name, entry in sorted(entries.items())
        },
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return write_atomic(
        quarantine_manifest_path(directory),
        lambda handle: handle.write(text.encode("utf-8")),
    )


def load_quarantine_manifest(
    directory: Union[str, Path]
) -> Dict[str, Dict[str, Any]]:
    """The persisted quarantine record, empty when none was written.

    Raises :class:`~repro.exceptions.CheckpointError` for an unreadable
    or wrong-version manifest — a supervisor must not silently resume
    streams whose quarantine record it cannot interpret.
    """
    path = quarantine_manifest_path(directory)
    if not path.exists():
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        version = int(document["format_version"])
        streams = document["streams"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"quarantine manifest {path} is unreadable: {exc}"
        ) from exc
    if version != QUARANTINE_MANIFEST_VERSION:
        raise CheckpointError(
            f"quarantine manifest {path} has format version {version}, "
            f"expected {QUARANTINE_MANIFEST_VERSION}"
        )
    return {str(name): _manifest_entry(entry) for name, entry in streams.items()}

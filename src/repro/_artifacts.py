"""The on-disk format of the library's stamped artefacts.

Stream snapshots (:mod:`repro.service.snapshots`) and shard checkpoints
(:mod:`repro.emd.sharding`) are ``.npz`` archives trusted only after
three checks pass, in this order: the **format version**; each
**identity stamp** in the caller's order (a plan or configuration
fingerprint, and which file of a set it is, so a copy under another
name is refused); and a sha256 **checksum** over the key, dtype, shape
and bytes of every payload array, which catches a readable archive
whose numbers silently changed.  :func:`load_stamped` never repairs: a
missing file reads as ``None``, every other failure raises
:class:`~repro.exceptions.CheckpointError` naming the expected and the
found value.

Every artefact, the JSON quarantine manifests included, is written by
:func:`write_atomic`, so a kill mid-write never leaves a half-written
file under the canonical name.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import zipfile
from pathlib import Path
from typing import IO, Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .exceptions import CheckpointError


class Stamp(NamedTuple):
    """One identity stamp: archive entry ``key`` must hold ``value``.

    ``of`` names what a mismatch means in the error message, as in
    "checkpoint ... was written for a different ``shard plan``".
    """

    key: str
    value: str
    of: str


def write_atomic(path: Union[str, Path], write: Callable[[IO[bytes]], object]) -> Path:
    """Write ``path`` through ``write(handle)`` so it appears whole or not at all.

    The bytes go to a temporary file in the same directory (created if
    missing), which is renamed over ``path`` once ``write`` returns.  On
    any exception the temporary file is removed and ``path`` keeps its
    previous content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem}.", suffix=f".tmp{path.suffix}", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def payload_checksum(arrays: Mapping[str, np.ndarray]) -> str:
    """sha256 over the key, dtype, shape and bytes of each payload array."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def save_stamped(
    path: Union[str, Path],
    version: int,
    stamps: Sequence[Stamp],
    arrays: Mapping[str, np.ndarray],
) -> Path:
    """Atomically write ``arrays`` with the version, stamps and checksum."""

    def write(handle: IO[bytes]) -> None:
        np.savez(
            handle,
            format_version=np.array(version),
            **{stamp.key: np.array(stamp.value) for stamp in stamps},
            checksum=np.array(payload_checksum(arrays)),
            **arrays,
        )

    return write_atomic(path, write)


def load_stamped(
    path: Union[str, Path],
    label: str,
    version: int,
    stamps: Sequence[Stamp],
    keys: Sequence[str],
) -> Optional[Dict[str, np.ndarray]]:
    """The payload arrays ``keys`` of a stamped file, or ``None`` if absent.

    Raises :class:`~repro.exceptions.CheckpointError` when the file is
    unreadable, has another format version, carries another value for
    any of ``stamps`` (checked in the order given) or fails its payload
    checksum.  ``label`` names the kind of file in the message.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        # np.load on a path leaks its handle when the archive is
        # truncated (it raises before returning the NpzFile), so the file
        # is opened, and closed, here.
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            found_version = int(archive["format_version"])
            if found_version != version:
                # Checked before the other entries, which an older
                # layout may lack.
                raise CheckpointError(
                    f"{label} {path} has format version {found_version}, expected "
                    f"{version}; it was written by another library version"
                )
            found_stamps = [str(archive[stamp.key]) for stamp in stamps]
            checksum = str(archive["checksum"])
            arrays = {key: np.asarray(archive[key]) for key in keys}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{label} {path} is unreadable: {exc}") from exc
    for stamp, found in zip(stamps, found_stamps):
        if found != stamp.value:
            raise CheckpointError(
                f"{label} {path} was written for a different {stamp.of}: expected "
                f"{stamp.key.replace('_', ' ')} {stamp.value}, found {found}"
            )
    found_checksum = payload_checksum(arrays)
    if found_checksum != checksum:
        raise CheckpointError(
            f"{label} {path} is corrupt: expected payload checksum "
            f"{checksum}, found {found_checksum}; delete the file"
        )
    return arrays

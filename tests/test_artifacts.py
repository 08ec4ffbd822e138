"""The shared stamped-artefact writer and loader (``repro._artifacts``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._artifacts import Stamp, load_stamped, save_stamped, write_atomic
from repro.exceptions import CheckpointError

STAMPS = (Stamp("plan_hash", "p1", "plan"), Stamp("fingerprint", "f1", "configuration"))


class TestWriteAtomic:
    def test_failed_write_keeps_the_previous_file_and_no_temp_file(self, tmp_path):
        path = write_atomic(tmp_path / "artefact.json", lambda handle: handle.write(b"old"))

        def failing(handle):
            handle.write(b"half of the new cont")
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError, match="killed mid-write"):
            write_atomic(path, failing)
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artefact.json"]

    def test_creates_the_directory(self, tmp_path):
        path = write_atomic(tmp_path / "a" / "b.bin", lambda handle: handle.write(b"x"))
        assert path.read_bytes() == b"x"


class TestStampedRoundTrip:
    def test_round_trip_returns_the_payload(self, tmp_path):
        arrays = {"values": np.linspace(0.0, 1.0, 7), "counts": np.arange(3)}
        path = save_stamped(tmp_path / "x.npz", 2, STAMPS, arrays)
        loaded = load_stamped(path, "artefact", 2, STAMPS, ("values", "counts"))
        assert loaded is not None
        assert set(loaded) == {"values", "counts"}
        for key, array in arrays.items():
            assert np.array_equal(loaded[key], array)
            assert loaded[key].dtype == array.dtype

    def test_missing_file_reads_as_none(self, tmp_path):
        assert load_stamped(tmp_path / "x.npz", "artefact", 2, STAMPS, ("values",)) is None

    def test_stamps_are_checked_in_the_callers_order(self, tmp_path):
        path = save_stamped(tmp_path / "x.npz", 2, STAMPS, {"values": np.zeros(2)})
        both_wrong = (Stamp("plan_hash", "p2", "plan"), Stamp("fingerprint", "f2", "configuration"))
        with pytest.raises(CheckpointError, match="expected plan hash p2, found p1"):
            load_stamped(path, "artefact", 2, both_wrong, ("values",))
        with pytest.raises(CheckpointError, match="expected fingerprint f2, found f1"):
            load_stamped(path, "artefact", 2, both_wrong[::-1], ("values",))

    def test_version_is_checked_before_the_stamps(self, tmp_path):
        path = save_stamped(tmp_path / "x.npz", 2, STAMPS, {"values": np.zeros(2)})
        stale = (Stamp("plan_hash", "p2", "plan"),)
        with pytest.raises(CheckpointError, match="format version 2, expected 3"):
            load_stamped(path, "artefact", 3, stale, ("values",))

    def test_older_layout_without_a_stamp_reports_its_version(self, tmp_path):
        path = save_stamped(tmp_path / "x.npz", 1, STAMPS[:1], {"values": np.zeros(2)})
        with pytest.raises(CheckpointError, match="format version 1, expected 2"):
            load_stamped(path, "artefact", 2, STAMPS, ("values",))

    def test_missing_payload_key_is_unreadable(self, tmp_path):
        path = save_stamped(tmp_path / "x.npz", 2, STAMPS, {"values": np.zeros(2)})
        with pytest.raises(CheckpointError, match="artefact .* is unreadable"):
            load_stamped(path, "artefact", 2, STAMPS, ("values", "absent"))

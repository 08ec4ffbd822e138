"""Tests for the crash-safe streaming service (:mod:`repro.service`).

Covers the three robustness layers of the supervisor stack:

* snapshot/restore — a stream killed at an arbitrary push and restored
  from its snapshot reproduces the uninterrupted run's full score
  history to 1e-12, under every ground distance; corrupt, tampered and
  fingerprint-mismatched snapshots are rejected with
  :class:`~repro.exceptions.CheckpointError`;
* per-stream fault isolation — a solver failure in one stream is
  handled by the strict/degraded/quarantine policy and leaves sibling
  streams bit-identical to unfaulted runs;
* backpressure — bounded ingest queues with block/shed/error policies
  and truthful supervisor metrics.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import DetectorConfig, OnlineBagDetector
from repro.exceptions import (
    BackpressureError,
    CheckpointError,
    SolverError,
    ValidationError,
)
from repro.service import (
    StreamSupervisor,
    SupervisorPolicy,
    config_fingerprint,
    load_quarantine_manifest,
    load_stream_snapshot,
    save_stream_snapshot,
    snapshot_path,
)
from repro.testing.faults import (
    bitflip_checkpoint,
    inject_transient_solver_error,
    tamper_payload,
    truncate_checkpoint,
)

from test_sharding import DISTINCT_GROUND_DISTANCES, restamp_format_version

TOL = 1e-12


def make_bags(n, shift=3.0, seed=0, size=15):
    r = np.random.default_rng(seed)
    return [
        r.normal(size=(size, 2)) + (shift if i >= n // 2 else 0.0) for i in range(n)
    ]


def service_config(**overrides):
    defaults = dict(
        tau=3,
        tau_test=3,
        signature_method="kmeans",
        n_clusters=4,
        n_bootstrap=20,
        random_state=11,
    )
    defaults.update(overrides)
    return DetectorConfig(**defaults)


def histogram_config(ground_distance, **overrides):
    """A config exercising ``ground_distance`` on common-support signatures."""
    defaults = dict(
        tau=3,
        tau_test=3,
        signature_method="histogram",
        bins=3,
        histogram_range=[(-6.0, 10.0), (-6.0, 10.0)],
        ground_distance=ground_distance,
        n_bootstrap=20,
        random_state=7,
    )
    defaults.update(overrides)
    return DetectorConfig(**defaults)


def _same(a, b, tol=TOL):
    if np.isnan(a) and np.isnan(b):
        return True
    return abs(a - b) <= tol


def assert_histories_match(points_a, points_b, tol=TOL):
    """Full score-history equality: times, scores, bounds, gammas, alerts."""
    assert [p.time for p in points_a] == [p.time for p in points_b]
    for p, q in zip(points_a, points_b):
        assert _same(p.score, q.score, tol), (p.time, p.score, q.score)
        assert _same(p.interval.lower, q.interval.lower, tol)
        assert _same(p.interval.upper, q.interval.upper, tol)
        assert _same(p.gamma, q.gamma, tol)
        assert p.alert == q.alert


# ---------------------------------------------------------------------- #
# Detector state_dict / from_state_dict
# ---------------------------------------------------------------------- #
class TestStateDict:
    def test_roundtrip_continues_bit_identically(self):
        bags = make_bags(24, seed=1)
        cfg = service_config()
        full = OnlineBagDetector(cfg)
        for bag in bags:
            full.push(bag)
        partial = OnlineBagDetector(service_config())
        for bag in bags[:13]:
            partial.push(bag)
        restored = OnlineBagDetector.from_state_dict(
            partial.state_dict(), service_config()
        )
        for bag in bags[13:]:
            restored.push(bag)
        assert_histories_match(full.history.points, restored.history.points)

    def test_state_dict_readable_after_close(self):
        detector = OnlineBagDetector(service_config())
        for bag in make_bags(10, seed=2):
            detector.push(bag)
        detector.close()
        state = detector.state_dict()
        assert state["n_seen"] == 10

    def test_rejects_wrong_format_version(self):
        detector = OnlineBagDetector(service_config())
        state = detector.state_dict()
        state["format_version"] = 99
        with pytest.raises(CheckpointError, match="format version"):
            OnlineBagDetector.from_state_dict(state, service_config())

    def test_rejects_mismatched_window_span(self):
        detector = OnlineBagDetector(service_config())
        for bag in make_bags(8, seed=3):
            detector.push(bag)
        state = detector.state_dict()
        with pytest.raises(CheckpointError, match="tau"):
            OnlineBagDetector.from_state_dict(
                state, service_config(tau=4, tau_test=4)
            )

    def test_rejects_mismatched_rng_family(self):
        detector = OnlineBagDetector(service_config())
        state = detector.state_dict()
        state["rng_state"] = dict(state["rng_state"], bit_generator="MT19937")
        with pytest.raises(CheckpointError, match="bit"):
            OnlineBagDetector.from_state_dict(state, service_config())


# ---------------------------------------------------------------------- #
# Snapshot files: kill / restore / replay parity, per ground distance
# ---------------------------------------------------------------------- #
class TestSnapshotRestoreParity:
    @pytest.mark.parametrize("ground_distance", DISTINCT_GROUND_DISTANCES)
    def test_kill_restore_replay_matches_uninterrupted(self, tmp_path, ground_distance):
        cfg = histogram_config(ground_distance)
        fingerprint = config_fingerprint(cfg)
        bags = make_bags(22, seed=4)
        full = OnlineBagDetector(cfg)
        for bag in bags:
            full.push(bag)
        # Seeded random kill points — the property must hold wherever the
        # stream dies, including mid-warmup and deep into emission.
        kill_rng = np.random.default_rng(DISTINCT_GROUND_DISTANCES.index(ground_distance))
        kills = kill_rng.integers(2, len(bags) - 1, size=2)
        for kill in kills:
            victim = OnlineBagDetector(histogram_config(ground_distance))
            for bag in bags[:kill]:
                victim.push(bag)
            save_stream_snapshot(
                tmp_path, f"victim-{ground_distance}-{kill}", victim.state_dict(), fingerprint
            )
            state = load_stream_snapshot(
                tmp_path, f"victim-{ground_distance}-{kill}", fingerprint
            )
            restored = OnlineBagDetector.from_state_dict(
                state, histogram_config(ground_distance)
            )
            for bag in bags[kill:]:
                restored.push(bag)
            assert_histories_match(full.history.points, restored.history.points)

    def test_missing_snapshot_returns_none(self, tmp_path):
        cfg = service_config()
        assert load_stream_snapshot(tmp_path, "ghost", config_fingerprint(cfg)) is None

    def test_invalid_stream_name_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="stream names"):
            snapshot_path(tmp_path, "../escape")


def _snapshot_for_corruption(tmp_path, name="victim"):
    cfg = service_config()
    detector = OnlineBagDetector(cfg)
    for bag in make_bags(14, seed=5):
        detector.push(bag)
    fingerprint = config_fingerprint(cfg)
    path = save_stream_snapshot(tmp_path, name, detector.state_dict(), fingerprint)
    return path, fingerprint


class TestSnapshotRejection:
    def test_previous_format_version_rejected(self, tmp_path):
        # v3 snapshots carried stream and state-version stamps no load checked.
        path, fingerprint = _snapshot_for_corruption(tmp_path)
        restamp_format_version(path, 3)
        with pytest.raises(CheckpointError, match="format version 3, expected 4"):
            load_stream_snapshot(tmp_path, "victim", fingerprint)

    def test_truncated_snapshot_rejected(self, tmp_path):
        path, fingerprint = _snapshot_for_corruption(tmp_path)
        truncate_checkpoint(path)
        with pytest.raises(CheckpointError, match="unreadable"):
            load_stream_snapshot(tmp_path, "victim", fingerprint)

    def test_bitflipped_snapshot_rejected(self, tmp_path):
        path, fingerprint = _snapshot_for_corruption(tmp_path)
        bitflip_checkpoint(path, seed=3, n_bits=8)
        with pytest.raises(CheckpointError):
            load_stream_snapshot(tmp_path, "victim", fingerprint)

    def test_tampered_snapshot_rejected_by_checksum(self, tmp_path):
        path, fingerprint = _snapshot_for_corruption(tmp_path)
        tamper_payload(path, key="window_matrix", delta=0.5)
        with pytest.raises(CheckpointError, match="checksum"):
            load_stream_snapshot(tmp_path, "victim", fingerprint)

    def test_snapshot_copied_to_another_stream_rejected(self, tmp_path):
        path, fingerprint = _snapshot_for_corruption(tmp_path, name="left")
        snapshot_path(tmp_path, "right").write_bytes(path.read_bytes())
        with pytest.raises(CheckpointError, match="expected stream right, found left"):
            load_stream_snapshot(tmp_path, "right", fingerprint)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        _snapshot_for_corruption(tmp_path)
        other = config_fingerprint(service_config(n_bootstrap=40))
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_stream_snapshot(tmp_path, "victim", other)

    def test_fingerprint_ignores_runtime_knobs(self):
        base = service_config()
        assert config_fingerprint(base) == config_fingerprint(
            service_config(history_limit=64, parallel_backend="process", n_workers=2)
        )
        assert config_fingerprint(base) != config_fingerprint(
            service_config(n_bootstrap=40)
        )


# ---------------------------------------------------------------------- #
# Supervisor: multiplexing, snapshots, metrics
# ---------------------------------------------------------------------- #
class TestStreamSupervisor:
    def test_streams_match_independent_detectors(self):
        cfg = service_config()
        bags_a = make_bags(16, seed=6)
        bags_b = make_bags(16, shift=1.5, seed=7)
        with StreamSupervisor(cfg) as supervisor:
            supervisor.add_stream("a")
            supervisor.add_stream("b")
            for bag_a, bag_b in zip(bags_a, bags_b):
                supervisor.submit("a", bag_a)
                supervisor.submit("b", bag_b)
            emitted = supervisor.drain()
            for name, bags in (("a", bags_a), ("b", bags_b)):
                independent = OnlineBagDetector(service_config())
                for bag in bags:
                    independent.push(bag)
                assert_histories_match(
                    independent.history.points,
                    supervisor.detector(name).history.points,
                )
        assert {name for name, _ in emitted} == {"a", "b"}

    def test_supervised_streams_get_bounded_history(self):
        with StreamSupervisor(service_config()) as supervisor:
            detector = supervisor.add_stream("a")
            assert detector.config.history_limit is not None

    def test_restore_on_startup_continues_streams(self, tmp_path):
        cfg = service_config()
        bags = make_bags(20, seed=8)
        with StreamSupervisor(cfg, snapshot_dir=tmp_path) as supervisor:
            supervisor.add_stream("a")
            for bag in bags[:12]:
                supervisor.submit("a", bag)
            supervisor.drain()
        # close() snapshotted the stream; a new supervisor resumes it.
        with StreamSupervisor(cfg, snapshot_dir=tmp_path) as supervisor:
            detector = supervisor.add_stream("a")
            assert detector.n_seen == 12
            assert supervisor.metrics["n_restored"] == 1
            for bag in bags[12:]:
                supervisor.submit("a", bag)
            supervisor.drain()
            independent = OnlineBagDetector(service_config())
            for bag in bags:
                independent.push(bag)
            assert_histories_match(
                independent.history.points,
                supervisor.detector("a").history.points,
            )

    def test_snapshot_cadence(self, tmp_path):
        policy = SupervisorPolicy(snapshot_every=4)
        with StreamSupervisor(
            service_config(), policy, snapshot_dir=tmp_path
        ) as supervisor:
            supervisor.add_stream("a")
            for bag in make_bags(9, seed=9):
                supervisor.submit("a", bag)
            supervisor.drain()
            # 9 pushes at cadence 4 -> snapshots after push 4 and 8.
            assert supervisor.metrics["n_snapshots_written"] == 2
            assert snapshot_path(tmp_path, "a").exists()

    def test_duplicate_and_unknown_streams_rejected(self):
        with StreamSupervisor(service_config()) as supervisor:
            supervisor.add_stream("a")
            with pytest.raises(ValidationError, match="already registered"):
                supervisor.add_stream("a")
            with pytest.raises(ValidationError, match="unknown stream"):
                supervisor.submit("nope", np.zeros((3, 2)))

    def test_close_is_idempotent_and_closes_detectors(self):
        supervisor = StreamSupervisor(service_config())
        detector = supervisor.add_stream("a")
        supervisor.close()
        supervisor.close()
        assert detector.closed


# ---------------------------------------------------------------------- #
# Backpressure
# ---------------------------------------------------------------------- #
class TestBackpressure:
    def test_shed_policy_drops_and_counts(self):
        policy = SupervisorPolicy(backpressure="shed", queue_capacity=2)
        with StreamSupervisor(service_config(), policy) as supervisor:
            supervisor.add_stream("a")
            accepted = [
                supervisor.submit("a", bag) for bag in make_bags(5, seed=10)
            ]
            assert accepted == [True, True, False, False, False]
            assert supervisor.metrics["n_shed"] == 3
            assert supervisor.metrics["queue_depths"]["a"] == 2

    def test_error_policy_raises_with_context(self):
        policy = SupervisorPolicy(backpressure="error", queue_capacity=1)
        with StreamSupervisor(service_config(), policy) as supervisor:
            supervisor.add_stream("a")
            supervisor.submit("a", np.zeros((5, 2)))
            with pytest.raises(BackpressureError) as excinfo:
                supervisor.submit("a", np.zeros((5, 2)))
            assert excinfo.value.stream == "a"
            assert excinfo.value.depth == 1

    def test_block_policy_drains_inline(self):
        policy = SupervisorPolicy(backpressure="block", queue_capacity=2)
        with StreamSupervisor(service_config(), policy) as supervisor:
            supervisor.add_stream("a")
            for bag in make_bags(6, seed=11):
                assert supervisor.submit("a", bag)
            # 6 accepted into a 2-slot queue: 4 were processed inline.
            assert supervisor.detector("a").n_seen == 4
            assert supervisor.metrics["n_shed"] == 0


# ---------------------------------------------------------------------- #
# Per-stream fault isolation
# ---------------------------------------------------------------------- #
@pytest.mark.faults
class TestFaultIsolation:
    def test_strict_policy_requeues_and_retries(self):
        cfg = service_config()
        bags = make_bags(16, seed=12)
        with StreamSupervisor(cfg) as supervisor:
            supervisor.add_stream("a")
            for bag in bags[:10]:
                supervisor.submit("a", bag)
            supervisor.drain()
            n_before = supervisor.detector("a").n_seen
            supervisor.submit("a", bags[10])
            with inject_transient_solver_error(times=1):
                with pytest.raises(SolverError):
                    supervisor.drain()
            # The failed bag went back to the front of the queue and the
            # detector was left untouched.
            assert supervisor.detector("a").n_seen == n_before
            assert supervisor.metrics["queue_depths"]["a"] == 1
            for bag in bags[11:]:
                supervisor.submit("a", bag)
            supervisor.drain()
            independent = OnlineBagDetector(service_config())
            for bag in bags:
                independent.push(bag)
            assert_histories_match(
                independent.history.points,
                supervisor.detector("a").history.points,
            )

    def test_degraded_policy_emits_nan_and_heals(self):
        cfg = service_config()
        bags = make_bags(18, seed=13)
        policy = SupervisorPolicy(on_stream_error="degraded")
        with StreamSupervisor(cfg, policy) as supervisor:
            supervisor.add_stream("a")
            for position, bag in enumerate(bags):
                supervisor.submit("a", bag)
                if position == 8:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        with inject_transient_solver_error(times=1):
                            supervisor.drain()
                else:
                    supervisor.drain()
            assert supervisor.metrics["n_degraded_points"] == 1
            points = supervisor.detector("a").history.points
            nan_times = [p.time for p in points if np.isnan(p.score)]
            # The masked entries are bag 8's distances to its window
            # predecessors (bags 3..7), so exactly the windows containing
            # bag 8 together with at least one of them are NaN-scored.
            assert nan_times == [
                p.time
                for p in points
                if p.time - cfg.tau <= 7 and 8 <= p.time + cfg.tau_test - 1
            ]
            assert not any(p.alert for p in points if np.isnan(p.score))
            # Once bag 8 left the window the stream healed: the tail is
            # bit-identical to an unfaulted run.
            independent = OnlineBagDetector(service_config())
            for bag in bags:
                independent.push(bag)
            reference = {p.time: p for p in independent.history.points}
            # Scores and intervals heal as soon as no masked pair is in
            # the window (t > 10)...
            healed = [p for p in points if p.time > 10]
            assert healed, "expected post-fault points"
            for q in healed:
                p = reference[q.time]
                assert _same(p.score, q.score)
                assert _same(p.interval.lower, q.interval.lower)
                assert _same(p.interval.upper, q.interval.upper)
            # ...while gamma additionally needs its comparison interval
            # (tau_test steps back) to be post-fault too.
            fully_healed = [p for p in points if p.time > 10 + cfg.tau_test]
            assert fully_healed, "expected fully healed points"
            assert_histories_match(
                [reference[p.time] for p in fully_healed], fully_healed
            )

    def test_fault_leaves_sibling_streams_bit_identical(self):
        cfg = service_config()
        bags_a = make_bags(16, seed=14)
        bags_b = make_bags(16, shift=2.0, seed=15)
        policy = SupervisorPolicy(on_stream_error="degraded")
        with StreamSupervisor(cfg, policy) as supervisor:
            supervisor.add_stream("a")
            supervisor.add_stream("b")
            for position, (bag_a, bag_b) in enumerate(zip(bags_a, bags_b)):
                supervisor.submit("a", bag_a)
                supervisor.submit("b", bag_b)
                if position == 7:
                    # Drain the healthy stream first, then fault only the
                    # target stream's drain.
                    supervisor.drain("b")
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        with inject_transient_solver_error(times=1):
                            supervisor.drain("a")
                else:
                    supervisor.drain()
            independent = OnlineBagDetector(service_config())
            for bag in bags_b:
                independent.push(bag)
            assert_histories_match(
                independent.history.points,
                supervisor.detector("b").history.points,
            )
            assert any(
                np.isnan(p.score) for p in supervisor.detector("a").history.points
            )

    def test_quarantine_policy_parks_and_restores(self, tmp_path):
        cfg = service_config()
        bags = make_bags(18, seed=16)
        policy = SupervisorPolicy(on_stream_error="quarantine")
        with StreamSupervisor(cfg, policy, snapshot_dir=tmp_path) as supervisor:
            supervisor.add_stream("a")
            for bag in bags[:9]:
                supervisor.submit("a", bag)
            supervisor.drain()
            for bag in bags[9:12]:
                supervisor.submit("a", bag)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with inject_transient_solver_error(times=1):
                    supervisor.drain()
            assert supervisor.status("a") == "quarantined"
            metrics = supervisor.metrics
            assert metrics["n_quarantined"] == 1
            assert metrics["n_shed"] == 2  # the two bags queued behind the failure
            manifest = load_quarantine_manifest(tmp_path)
            assert set(manifest) == {"a"}
            assert manifest["a"]["n_seen"] == 9
            assert "SolverError" in manifest["a"]["reason"]
            # Parked streams shed their submissions.
            assert supervisor.submit("a", bags[12]) is False
            # Un-park: the stream resumes from its pre-failure snapshot
            # and replaying the tail matches an unfaulted run.
            detector = supervisor.restore_stream("a")
            assert detector.n_seen == 9
            assert load_quarantine_manifest(tmp_path) == {}
            for bag in bags[9:]:
                supervisor.submit("a", bag)
            supervisor.drain()
            independent = OnlineBagDetector(service_config())
            for bag in bags:
                independent.push(bag)
            assert_histories_match(
                independent.history.points,
                supervisor.detector("a").history.points,
            )

    def test_quarantine_manifest_parks_stream_across_restarts(self, tmp_path):
        cfg = service_config()
        bags = make_bags(14, seed=17)
        policy = SupervisorPolicy(on_stream_error="quarantine")
        with StreamSupervisor(cfg, policy, snapshot_dir=tmp_path) as supervisor:
            supervisor.add_stream("a")
            for bag in bags[:8]:
                supervisor.submit("a", bag)
            supervisor.drain()
            supervisor.submit("a", bags[8])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with inject_transient_solver_error(times=1):
                    supervisor.drain()
        with StreamSupervisor(cfg, policy, snapshot_dir=tmp_path) as supervisor:
            supervisor.add_stream("a")
            assert supervisor.status("a") == "quarantined"
            assert supervisor.submit("a", bags[8]) is False
            detector = supervisor.restore_stream("a")
            assert supervisor.status("a") == "active"
            assert detector.n_seen == 8

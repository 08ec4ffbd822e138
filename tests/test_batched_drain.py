"""Tests for the cross-stream batched drain and the drain-path bugfixes.

Covers:

* the two-phase push contract (``prepare``/``commit``/``rollback``) the
  batched drain is built on;
* batched-vs-sequential drain parity ≤ 1e-12 across every ground
  distance and every ``on_stream_error`` policy, including interleaved
  faults and a poison pair injected into a cross-stream stacked solve
  (sibling streams sharing the stack must commit bit-identically);
* the block-backpressure regression: inline drains must not discard the
  emitted :class:`~repro.core.ScorePoint` — it is buffered and delivered
  by the next ``drain()``;
* the per-cause shed metrics (``n_shed_backpressure``,
  ``n_shed_quarantined``, ``n_discarded_on_close``; ``n_shed`` stays
  their sum);
* the documented attempts-not-emissions semantics of ``drain(limit=N)``
  when a stream faults mid-round.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import DetectorConfig, OnlineBagDetector
from repro.emd.batch import PairwiseEMDEngine
from repro.exceptions import ConfigurationError, SolverError, ValidationError
from repro.service import StreamSupervisor, SupervisorPolicy
from repro.testing.faults import inject_transient_solver_error
from test_sharding import DISTINCT_GROUND_DISTANCES

TOL = 1e-12
N_STREAMS = 3


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
    """A config exercising ``ground_distance`` on histogram signatures."""
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


def stream_histories(supervisor):
    return {
        name: list(supervisor.detector(name).history.points)
        for name in supervisor.stream_names
    }


POISON_OFFSET = 1e6


def poison_bag(size=15):
    """A bag whose kmeans signature is unmistakable (centres ~ 1e6)."""
    return np.full((size, 2), POISON_OFFSET)


@contextmanager
def inject_poison_marker(threshold=1e5):
    """Fail any solve whose pair list contains a poison-marker signature.

    Marker pairs are identified by signature *content* (a support point
    beyond ``threshold``), not by label — stream detectors label their
    signatures with per-stream bag indices, which collide across
    streams, so a content marker is the only way to poison exactly one
    stream's pairs inside a cross-stream stacked solve.  The raised
    :class:`~repro.exceptions.SolverError` carries the marker pairs'
    positions in the failing call (``pair_indices``), exactly like the
    engine's own batched-group failure translation.
    """
    original = PairwiseEMDEngine.compute_pairs

    def wrapper(self, pairs):
        pairs = list(pairs)
        positions = [
            k
            for k, (a, b) in enumerate(pairs)
            if max(
                float(np.max(np.abs(a.positions))),
                float(np.max(np.abs(b.positions))),
            )
            > threshold
        ]
        if positions:
            raise SolverError(
                f"injected poison marker at positions {positions}",
                pair_indices=tuple(positions),
            )
        return original(self, pairs)

    PairwiseEMDEngine.compute_pairs = wrapper
    try:
        yield
    finally:
        PairwiseEMDEngine.compute_pairs = original


def run_rounds(supervisor, per_stream_bags, drain_each_round=True):
    """Submit one bag per stream per round, draining between rounds."""
    emitted = []
    n_rounds = len(next(iter(per_stream_bags.values())))
    for t in range(n_rounds):
        for name, bags in per_stream_bags.items():
            supervisor.submit(name, bags[t])
        if drain_each_round:
            emitted.extend(supervisor.drain())
    emitted.extend(supervisor.drain())
    return emitted


# ---------------------------------------------------------------------- #
# Policy plumbing
# ---------------------------------------------------------------------- #
class TestPolicy:
    def test_batch_drain_defaults_off(self):
        assert SupervisorPolicy().batch_drain is False

    def test_batch_drain_must_be_bool(self):
        with pytest.raises(ConfigurationError, match="batch_drain"):
            SupervisorPolicy(batch_drain="yes")


# ---------------------------------------------------------------------- #
# Two-phase push contract
# ---------------------------------------------------------------------- #
class TestPreparedPush:
    def test_prepare_commit_matches_push(self):
        bags = make_bags(14, seed=3)
        pushed = OnlineBagDetector(service_config())
        staged = OnlineBagDetector(service_config())
        for bag in bags:
            pushed.push(bag)
            pending = staged.prepare(bag)
            distances = staged._engine.compute_pairs(list(pending.pairs))
            staged.commit(pending, distances)
        assert_histories_match(pushed.history.points, staged.history.points)
        assert (
            pushed._rng.bit_generator.state == staged._rng.bit_generator.state
        )
        pushed.close()
        staged.close()

    def test_rollback_rewinds_generator_draws(self):
        bags = make_bags(10, seed=4)
        detector = OnlineBagDetector(service_config())
        reference = OnlineBagDetector(service_config())
        for bag in bags[:6]:
            detector.push(bag)
            reference.push(bag)
        pending = detector.prepare(bags[6])
        detector.rollback(pending)
        for bag in bags[6:]:
            detector.push(bag)
            reference.push(bag)
        assert_histories_match(reference.history.points, detector.history.points)
        detector.close()
        reference.close()

    def test_stale_pending_rejected(self):
        bags = make_bags(6, seed=5)
        detector = OnlineBagDetector(service_config())
        pending = detector.prepare(bags[0])
        detector.commit(pending, np.zeros(len(pending.pairs)))
        with pytest.raises(ValidationError, match="pending push"):
            detector.commit(pending, np.zeros(len(pending.pairs)))
        with pytest.raises(ValidationError, match="pending push"):
            detector.rollback(pending)
        detector.close()

    def test_commit_checks_distance_shape(self):
        detector = OnlineBagDetector(service_config())
        detector.push(make_bags(2, seed=6)[0])
        pending = detector.prepare(make_bags(2, seed=6)[1])
        with pytest.raises(ValidationError, match="distances"):
            detector.commit(pending, np.zeros(len(pending.pairs) + 1))
        detector.close()


# ---------------------------------------------------------------------- #
# Batched-vs-sequential parity
# ---------------------------------------------------------------------- #
def _parity_run(config_for, batch, rounds=12, error_policy="strict"):
    policy = SupervisorPolicy(batch_drain=batch, on_stream_error=error_policy)
    supervisor = StreamSupervisor(policy=policy)
    per_stream = {}
    for s in range(N_STREAMS):
        name = f"s{s}"
        supervisor.add_stream(name, config_for(s))
        per_stream[name] = make_bags(rounds, shift=float(s), seed=100 + s)
    emitted = run_rounds(supervisor, per_stream)
    histories = stream_histories(supervisor)
    supervisor.close()
    return emitted, histories


@pytest.mark.parametrize("ground_distance", DISTINCT_GROUND_DISTANCES)
class TestBatchedDrainParity:
    def test_histogram_streams_match_sequential(self, ground_distance):
        def config_for(_s):
            return histogram_config(ground_distance)

        seq_emitted, seq = _parity_run(config_for, batch=False)
        bat_emitted, bat = _parity_run(config_for, batch=True)
        assert seq.keys() == bat.keys()
        for name in seq:
            assert seq[name], f"stream {name} emitted nothing"
            assert_histories_match(seq[name], bat[name])
        assert [name for name, _ in seq_emitted] == [
            name for name, _ in bat_emitted
        ]

    def test_kmeans_streams_match_sequential(self, ground_distance):
        def config_for(s):
            return service_config(ground_distance=ground_distance, random_state=50 + s)

        _, seq = _parity_run(config_for, batch=False)
        _, bat = _parity_run(config_for, batch=True)
        for name in seq:
            assert seq[name]
            assert_histories_match(seq[name], bat[name])


def _interleaved_fault_run(batch, error_policy):
    """Rounds with a scripted transient fault: strict drains retry."""
    policy = SupervisorPolicy(batch_drain=batch, on_stream_error=error_policy)
    supervisor = StreamSupervisor(policy=policy)
    per_stream = {}
    for s in range(N_STREAMS):
        name = f"s{s}"
        supervisor.add_stream(name, service_config(random_state=60 + s))
        per_stream[name] = make_bags(14, shift=float(s), seed=200 + s)
    for t in range(14):
        for name, bags in per_stream.items():
            supervisor.submit(name, bags[t])
        if t in (5, 9):
            # The sequential drain raises (first stream's solve fails,
            # bag requeued); the batched drain survives the single
            # firing because the unattributable group failure falls
            # back to per-stream solves, which run after the budget is
            # exhausted.  Either way no bag may be lost.
            with inject_transient_solver_error(times=1):
                try:
                    supervisor.drain()
                except SolverError:
                    pass
        # The retry (fault cleared) must fully catch up.
        supervisor.drain()
    supervisor.drain()
    histories = stream_histories(supervisor)
    supervisor.close()
    return histories


@pytest.mark.faults
class TestBatchedDrainFaults:
    def test_strict_interleaved_faults_converge_to_sequential(self):
        seq = _interleaved_fault_run(batch=False, error_policy="strict")
        bat = _interleaved_fault_run(batch=True, error_policy="strict")
        for name in seq:
            assert seq[name]
            assert_histories_match(seq[name], bat[name])

    @pytest.mark.parametrize("error_policy", ["degraded", "quarantine"])
    def test_poison_pair_parity_with_sequential(self, error_policy):
        """A poisoned stream takes the policy identically on both paths."""

        def run(batch):
            policy = SupervisorPolicy(
                batch_drain=batch, on_stream_error=error_policy
            )
            supervisor = StreamSupervisor(policy=policy)
            per_stream = {}
            for s in range(N_STREAMS):
                name = f"s{s}"
                supervisor.add_stream(name, service_config(random_state=70 + s))
                per_stream[name] = make_bags(14, shift=float(s), seed=300 + s)
            per_stream["s1"][6] = poison_bag()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with inject_poison_marker():
                    run_rounds(supervisor, per_stream)
            histories = stream_histories(supervisor)
            metrics = supervisor.metrics
            supervisor.close()
            return histories, metrics

        seq, seq_metrics = run(batch=False)
        bat, bat_metrics = run(batch=True)
        for name in seq:
            assert_histories_match(seq[name], bat[name])
        # The poisoned stream actually took the policy, on both paths.
        key = (
            "n_degraded_points"
            if error_policy == "degraded"
            else "n_quarantined"
        )
        assert seq_metrics[key] > 0
        assert seq_metrics[key] == bat_metrics[key]

    def test_poison_in_stacked_solve_leaves_siblings_bit_identical(self):
        """Siblings sharing the failing stacked solve commit unaffected.

        Every active stream's pairs are stacked into one solve per
        round, so the poisoned round's failing call contains the
        sibling streams' pairs too; ``pair_indices`` attribution must
        rescue them bit-identically (compared against unfaulted
        independent detectors), while only the poisoned stream is
        quarantined.
        """
        policy = SupervisorPolicy(batch_drain=True, on_stream_error="quarantine")
        supervisor = StreamSupervisor(policy=policy)
        per_stream = {}
        for s in range(N_STREAMS):
            name = f"s{s}"
            supervisor.add_stream(name, service_config(random_state=80 + s))
            per_stream[name] = make_bags(14, shift=float(s), seed=400 + s)
        per_stream["s1"][7] = poison_bag()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with inject_poison_marker():
                run_rounds(supervisor, per_stream)
        assert supervisor.status("s1") == "quarantined"
        assert supervisor.metrics["n_quarantined"] == 1
        for s in (0, 2):
            name = f"s{s}"
            assert supervisor.status(name) == "active"
            independent = OnlineBagDetector(service_config(random_state=80 + s))
            for bag in per_stream[name]:
                independent.push(bag)
            assert_histories_match(
                independent.history.points,
                supervisor.detector(name).history.points,
            )
            independent.close()
        supervisor.close()

    def test_strict_batched_raise_buffers_round_emissions(self):
        """A strict abort mid-round must not lose the committed points."""
        policy = SupervisorPolicy(batch_drain=True, on_stream_error="strict")
        supervisor = StreamSupervisor(policy=policy)
        per_stream = {}
        for s in range(N_STREAMS):
            name = f"s{s}"
            supervisor.add_stream(name, service_config(random_state=90 + s))
            per_stream[name] = make_bags(12, shift=float(s), seed=500 + s)
        # Warm the windows so the faulted round actually emits points.
        for t in range(9):
            for name, bags in per_stream.items():
                supervisor.submit(name, bags[t])
            supervisor.drain()
        per_stream["s1"][9] = poison_bag()
        for name, bags in per_stream.items():
            supervisor.submit(name, bags[9])
        with inject_poison_marker():
            with pytest.raises(SolverError):
                supervisor.drain()
        # The healthy streams committed before the raise; their points
        # were buffered, not lost, and the poisoned bag was requeued.
        metrics = supervisor.metrics
        assert metrics["n_pending_emissions"] == N_STREAMS - 1
        assert metrics["queue_depths"]["s1"] == 1
        emitted = supervisor.drain()
        names = [name for name, _ in emitted]
        assert names[: N_STREAMS - 1] == ["s0", "s2"]
        assert supervisor.metrics["n_pending_emissions"] == 0
        supervisor.close()

    def test_unattributable_fault_rescues_all_streams(self):
        """A context-free SolverError re-solves every stream alone."""
        policy = SupervisorPolicy(batch_drain=True, on_stream_error="degraded")
        supervisor = StreamSupervisor(policy=policy)
        per_stream = {}
        for s in range(N_STREAMS):
            name = f"s{s}"
            supervisor.add_stream(name, service_config(random_state=30 + s))
            per_stream[name] = make_bags(12, shift=float(s), seed=600 + s)
        for t in range(12):
            for name, bags in per_stream.items():
                supervisor.submit(name, bags[t])
            if t == 6:
                # One firing kills only the stacked solve; the
                # per-stream rescue solves run after the budget is
                # exhausted, so every stream commits normally.
                with inject_transient_solver_error(times=1):
                    supervisor.drain()
            else:
                supervisor.drain()
        supervisor.drain()
        assert supervisor.metrics["n_degraded_points"] == 0
        for s in range(N_STREAMS):
            name = f"s{s}"
            independent = OnlineBagDetector(service_config(random_state=30 + s))
            for bag in per_stream[name]:
                independent.push(bag)
            assert_histories_match(
                independent.history.points,
                supervisor.detector(name).history.points,
            )
            independent.close()
        supervisor.close()


class TestDrainBatchedScheduling:
    def test_drain_batched_works_without_policy_flag(self):
        supervisor = StreamSupervisor(policy=SupervisorPolicy())
        per_stream = {}
        for s in range(2):
            name = f"s{s}"
            supervisor.add_stream(name, service_config(random_state=40 + s))
            per_stream[name] = make_bags(10, seed=700 + s)
        for t in range(10):
            for name, bags in per_stream.items():
                supervisor.submit(name, bags[t])
        emitted = supervisor.drain_batched()
        assert emitted
        for s in range(2):
            name = f"s{s}"
            independent = OnlineBagDetector(service_config(random_state=40 + s))
            for bag in per_stream[name]:
                independent.push(bag)
            assert_histories_match(
                independent.history.points,
                supervisor.detector(name).history.points,
            )
            independent.close()
        supervisor.close()

    def test_drain_batched_respects_limit(self):
        supervisor = StreamSupervisor(
            policy=SupervisorPolicy(), config=service_config()
        )
        for s in range(3):
            supervisor.add_stream(f"s{s}")
        for t in range(4):
            for s in range(3):
                supervisor.submit(f"s{s}", make_bags(4, seed=800 + s)[t])
        supervisor.drain_batched(limit=5)
        depths = supervisor.metrics["queue_depths"]
        assert sum(depths.values()) == 12 - 5
        supervisor.close()

    def test_single_stream_drain_stays_sequential(self):
        """drain(name=...) ignores batch_drain, and still works."""
        supervisor = StreamSupervisor(
            policy=SupervisorPolicy(batch_drain=True), config=service_config()
        )
        supervisor.add_stream("a")
        bags = make_bags(10, seed=900)
        for bag in bags:
            supervisor.submit("a", bag)
        emitted = supervisor.drain("a")
        assert [name for name, _ in emitted] == ["a"] * len(emitted)
        assert supervisor.metrics["queue_depths"]["a"] == 0
        supervisor.close()


# ---------------------------------------------------------------------- #
# Block-backpressure score loss (the headline bugfix)
# ---------------------------------------------------------------------- #
class TestInlineDrainEmissions:
    def test_block_backpressure_loses_no_scores(self):
        """Inline drains buffer their points for the next drain()."""
        bags = make_bags(20, seed=21)

        def run(capacity):
            policy = SupervisorPolicy(backpressure="block", queue_capacity=capacity)
            supervisor = StreamSupervisor(service_config(), policy)
            supervisor.add_stream("a")
            emitted = []
            for bag in bags:
                assert supervisor.submit("a", bag)
            emitted.extend(supervisor.drain())
            supervisor.close()
            return emitted

        throttled = run(capacity=2)
        unthrottled = run(capacity=len(bags))
        assert [name for name, _ in throttled] == [
            name for name, _ in unthrottled
        ]
        assert_histories_match(
            [p for _, p in unthrottled], [p for _, p in throttled]
        )

    def test_inline_points_buffered_then_cleared(self):
        policy = SupervisorPolicy(backpressure="block", queue_capacity=2)
        supervisor = StreamSupervisor(service_config(), policy)
        supervisor.add_stream("a")
        for bag in make_bags(16, seed=22):
            supervisor.submit("a", bag)
        # 14 bags were processed inline; the windows they filled emitted
        # points that only exist in the pending buffer so far.
        buffered = supervisor.metrics["n_pending_emissions"]
        assert buffered > 0
        emitted = supervisor.drain()
        assert len(emitted) == buffered + 2
        assert supervisor.metrics["n_pending_emissions"] == 0
        # Nothing is delivered twice.
        assert supervisor.drain() == []
        supervisor.close()


# ---------------------------------------------------------------------- #
# Per-cause shed metrics
# ---------------------------------------------------------------------- #
class TestShedMetricSplit:
    def test_shed_policy_counts_backpressure_only(self):
        policy = SupervisorPolicy(backpressure="shed", queue_capacity=2)
        with StreamSupervisor(service_config(), policy) as supervisor:
            supervisor.add_stream("a")
            for bag in make_bags(5, seed=23):
                supervisor.submit("a", bag)
            metrics = supervisor.metrics
            assert metrics["n_shed_backpressure"] == 3
            assert metrics["n_shed_quarantined"] == 0
            assert metrics["n_discarded_on_close"] == 0
            assert metrics["n_shed"] == 3

    @pytest.mark.faults
    def test_quarantine_counts_quarantined_only(self):
        policy = SupervisorPolicy(on_stream_error="quarantine")
        with StreamSupervisor(service_config(), policy) as supervisor:
            supervisor.add_stream("a")
            for bag in make_bags(3, seed=24):
                supervisor.submit("a", bag)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with inject_transient_solver_error(times=1):
                    supervisor.drain()
            # The failing bag was consumed by the quarantine; the two
            # queued behind it were shed by it.
            metrics = supervisor.metrics
            assert metrics["n_shed_quarantined"] == 2
            assert metrics["n_shed_backpressure"] == 0
            assert metrics["n_discarded_on_close"] == 0
            # Submissions to the parked stream are quarantine sheds too.
            assert supervisor.submit("a", make_bags(1, seed=25)[0]) is False
            assert supervisor.metrics["n_shed_quarantined"] == 3
            assert supervisor.metrics["n_shed"] == 3

    def test_close_counts_discarded_queues(self):
        supervisor = StreamSupervisor(service_config(), SupervisorPolicy())
        supervisor.add_stream("a")
        for bag in make_bags(3, seed=26):
            supervisor.submit("a", bag)
        supervisor.close()
        assert supervisor.n_discarded_on_close == 3
        assert supervisor.n_shed_backpressure == 0
        assert supervisor.n_shed_quarantined == 0
        assert supervisor.n_shed == 3


# ---------------------------------------------------------------------- #
# drain(limit=N) semantics under mid-round faults
# ---------------------------------------------------------------------- #
class TestDrainLimitSemantics:
    def test_limit_counts_attempts_not_emissions(self):
        with StreamSupervisor(service_config(), SupervisorPolicy()) as supervisor:
            supervisor.add_stream("a")
            for bag in make_bags(4, seed=27):
                supervisor.submit("a", bag)
            # 4 warm-up bags never emit, yet all are consumed by limit.
            emitted = supervisor.drain(limit=4)
            assert emitted == []
            assert supervisor.metrics["queue_depths"]["a"] == 0

    @pytest.mark.faults
    def test_faulting_stream_consumes_limit_without_starving_siblings(self):
        """A mid-round quarantine eats one limit unit, no more.

        The faulting attempt emits nothing but still counts; the
        sibling's attempt in the same round proceeds, so a permanently
        failing stream cannot pin the round-robin loop on itself.
        """
        policy = SupervisorPolicy(on_stream_error="quarantine")
        with StreamSupervisor(service_config(), policy) as supervisor:
            supervisor.add_stream("a")
            supervisor.add_stream("b")
            bags_a = make_bags(2, seed=28)
            bags_b = make_bags(2, seed=29)
            for bag_a, bag_b in zip(bags_a, bags_b):
                supervisor.submit("a", bag_a)
                supervisor.submit("b", bag_b)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with inject_transient_solver_error(times=1):
                    supervisor.drain(limit=2)
            # Round 1: stream a's attempt faulted (quarantining it, no
            # emission) and consumed one unit; stream b's attempt
            # consumed the other.  b's second bag is still queued - the
            # fault did not starve it of its round-1 slot.
            assert supervisor.status("a") == "quarantined"
            assert supervisor.detector("b").n_seen == 1
            assert supervisor.metrics["queue_depths"]["b"] == 1

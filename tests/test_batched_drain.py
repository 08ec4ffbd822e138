"""Tests for the supervisor's cross-stream drain rounds.

Covers:

* the two-phase push contract (``prepare``/``commit``/``rollback``) the
  drain rounds are built on;
* drain parity ≤ 1e-12 with independent per-stream
  :meth:`~repro.core.OnlineBagDetector.push` replays across every ground
  distance and every ``on_stream_error`` policy (faulted streams against
  ``push_masked`` or stopped replays), including interleaved faults and
  a poison pair injected into a cross-stream stacked solve (sibling
  streams sharing the stack must commit bit-identically); one-stream
  drains are bit-identical to ``push``;
* strict raises never lose points: whatever the drain call (or an
  inline block push) committed before the raise is buffered and
  delivered by the next ``drain()``;
* the block-backpressure regression: inline drains must not discard the
  emitted :class:`~repro.core.ScorePoint` — it is buffered and delivered
  by the next ``drain()``;
* the per-cause shed metrics (``n_shed_backpressure``,
  ``n_shed_quarantined``, ``n_discarded_on_close``; ``n_shed`` stays
  their sum);
* the documented attempts-not-emissions semantics of ``drain(limit=N)``
  when a stream faults mid-round;
* ``n_distance_evaluations`` of supervised streams, counted at commit.
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


def push_replay(config, bags, masked=(), stop=None):
    """An independent detector fed ``bags`` by hand: the drain's oracle.

    Bags at positions in ``masked`` go through ``push_masked`` (the
    degraded policy's path); ``stop`` ends the replay before that
    position (a quarantined stream's last state).
    """
    detector = OnlineBagDetector(config)
    for position, bag in enumerate(bags[:stop]):
        if position in masked:
            detector.push_masked(bag)
        else:
            detector.push(bag)
    detector.close()
    return detector


# ---------------------------------------------------------------------- #
# Policy plumbing
# ---------------------------------------------------------------------- #
class TestPolicy:
    def test_batch_drain_defaults_on(self):
        assert SupervisorPolicy().batch_drain is True

    @pytest.mark.parametrize("value", [False, "yes", 1])
    def test_batch_drain_rejects_anything_but_true(self, value):
        with pytest.raises(ConfigurationError, match="batch_drain"):
            SupervisorPolicy(batch_drain=value)


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
# Drain parity with independent push replays
# ---------------------------------------------------------------------- #
def _parity_run(config_for, rounds=12):
    supervisor = StreamSupervisor()
    per_stream = {}
    for s in range(N_STREAMS):
        name = f"s{s}"
        supervisor.add_stream(name, config_for(s))
        per_stream[name] = make_bags(rounds, shift=float(s), seed=100 + s)
    emitted = run_rounds(supervisor, per_stream)
    histories = stream_histories(supervisor)
    supervisor.close()
    for s in range(N_STREAMS):
        name = f"s{s}"
        replay = push_replay(config_for(s), per_stream[name])
        assert histories[name], f"stream {name} emitted nothing"
        assert_histories_match(replay.history.points, histories[name])
        # Every committed point was returned by a drain, once, in order.
        assert [p for n, p in emitted if n == name] == histories[name]


@pytest.mark.parametrize("ground_distance", DISTINCT_GROUND_DISTANCES)
class TestDrainParity:
    def test_histogram_streams_match_push_replays(self, ground_distance):
        _parity_run(lambda _s: histogram_config(ground_distance))

    def test_kmeans_streams_match_push_replays(self, ground_distance):
        _parity_run(
            lambda s: service_config(
                ground_distance=ground_distance, random_state=50 + s
            )
        )


@pytest.mark.faults
class TestDrainFaults:
    def test_strict_interleaved_faults_match_push_replays(self):
        """Transient stacked-solve faults neither raise nor lose a bag.

        One firing kills only a round's stacked solve; the unattributable
        failure re-solves every stream alone after the budget is spent,
        so each stream still converges to its unfaulted push replay.
        """
        supervisor = StreamSupervisor(
            policy=SupervisorPolicy(on_stream_error="strict")
        )
        per_stream = {}
        for s in range(N_STREAMS):
            name = f"s{s}"
            supervisor.add_stream(name, service_config(random_state=60 + s))
            per_stream[name] = make_bags(14, shift=float(s), seed=200 + s)
        for t in range(14):
            for name, bags in per_stream.items():
                supervisor.submit(name, bags[t])
            if t in (5, 9):
                with inject_transient_solver_error(times=1) as log:
                    supervisor.drain()
                assert log.events
            supervisor.drain()
        histories = stream_histories(supervisor)
        supervisor.close()
        for s in range(N_STREAMS):
            name = f"s{s}"
            replay = push_replay(service_config(random_state=60 + s), per_stream[name])
            assert histories[name]
            assert_histories_match(replay.history.points, histories[name])

    @pytest.mark.parametrize("error_policy", ["degraded", "quarantine"])
    def test_poison_pair_matches_independent_detectors(self, error_policy):
        """The poisoned stream takes the policy as an independent detector would.

        Degraded: the poisoned bag, and every later bag whose window
        pairs still touch it, is consumed masked, exactly like
        ``push_masked``.  Quarantine: the stream stops at the fault, on
        the state a detector fed only the bags before it holds.  The
        siblings match their full push replays either way.
        """
        policy = SupervisorPolicy(on_stream_error=error_policy)
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
        for s in range(N_STREAMS):
            name = f"s{s}"
            config = service_config(random_state=70 + s)
            if name != "s1":
                replay = push_replay(config, per_stream[name])
            elif error_policy == "degraded":
                # Bags 7..11 pair with bag 6 until it leaves the window.
                replay = push_replay(config, per_stream[name], masked=set(range(6, 12)))
            else:
                replay = push_replay(config, per_stream[name], stop=6)
            assert_histories_match(replay.history.points, histories[name])
        if error_policy == "degraded":
            assert metrics["n_degraded_points"] == 6
            assert any(np.isnan(p.score) for p in histories["s1"])
        else:
            assert metrics["n_quarantined"] == 1

    def test_poison_in_stacked_solve_leaves_siblings_bit_identical(self):
        """Siblings sharing the failing stacked solve commit unaffected.

        Every active stream's pairs are stacked into one solve per
        round, so the poisoned round's failing call contains the
        sibling streams' pairs too; ``pair_indices`` attribution must
        rescue them bit-identically (compared against unfaulted
        independent detectors), while only the poisoned stream is
        quarantined.
        """
        policy = SupervisorPolicy(on_stream_error="quarantine")
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

    def test_strict_raise_buffers_round_emissions(self):
        """A strict abort mid-round must not lose the committed points."""
        policy = SupervisorPolicy(on_stream_error="strict")
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
        policy = SupervisorPolicy(on_stream_error="degraded")
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


    def test_strict_single_stream_drain_keeps_committed_points(self):
        """drain(name) buffers the points its earlier rounds committed.

        Bag 11 commits and emits, then the poisoned bag 12 fails
        strictly in the same call: the raise must not lose bag 11's
        point, and the requeued bag is retried by the next drain.
        """
        bags = [*make_bags(12, seed=910), poison_bag()]
        supervisor = StreamSupervisor(
            service_config(), SupervisorPolicy(on_stream_error="strict")
        )
        supervisor.add_stream("a")
        for bag in bags[:11]:
            supervisor.submit("a", bag)
        supervisor.drain("a")
        supervisor.submit("a", bags[11])
        supervisor.submit("a", bags[12])
        with inject_poison_marker():
            with pytest.raises(SolverError):
                supervisor.drain("a")
        assert supervisor.metrics["n_pending_emissions"] == 1
        assert supervisor.metrics["queue_depths"]["a"] == 1
        # Fault cleared: the buffered point comes first, then the retry's.
        emitted = supervisor.drain()
        replay = push_replay(service_config(), bags)
        assert [p.time for _, p in emitted] == [9, 10]
        assert_histories_match(
            replay.history.points[-2:], [p for _, p in emitted], tol=0.0
        )
        supervisor.close()

    def test_strict_block_push_keeps_buffered_points(self):
        """An inline block push that fails strictly keeps the buffer.

        With a one-bag queue every submit pushes the queued bag inline:
        one push emits (its point is buffered), the next pushes the
        poisoned bag and raises — the buffered point must survive.
        """
        bags = [*make_bags(12, seed=920), poison_bag()]
        policy = SupervisorPolicy(
            on_stream_error="strict", backpressure="block", queue_capacity=1
        )
        supervisor = StreamSupervisor(service_config(), policy)
        supervisor.add_stream("a")
        for bag in bags[:11]:
            supervisor.submit("a", bag)
        supervisor.drain()
        supervisor.submit("a", bags[11])
        supervisor.submit("a", bags[12])  # pushes bag 11 inline
        assert supervisor.metrics["n_pending_emissions"] == 1
        with inject_poison_marker():
            with pytest.raises(SolverError):
                supervisor.submit("a", make_bags(1, seed=921)[0])
        assert supervisor.metrics["n_pending_emissions"] == 1
        assert supervisor.metrics["queue_depths"]["a"] == 1
        emitted = supervisor.drain()
        replay = push_replay(service_config(), bags)
        assert_histories_match(
            replay.history.points[-2:], [p for _, p in emitted], tol=0.0
        )
        supervisor.close()


class TestDrainScheduling:
    def test_round_robin_drain_matches_push_replays(self):
        supervisor = StreamSupervisor(policy=SupervisorPolicy())
        per_stream = {}
        for s in range(2):
            name = f"s{s}"
            supervisor.add_stream(name, service_config(random_state=40 + s))
            per_stream[name] = make_bags(10, seed=700 + s)
        for t in range(10):
            for name, bags in per_stream.items():
                supervisor.submit(name, bags[t])
        emitted = supervisor.drain()
        assert emitted
        for s in range(2):
            name = f"s{s}"
            replay = push_replay(service_config(random_state=40 + s), per_stream[name])
            assert_histories_match(
                replay.history.points, supervisor.detector(name).history.points
            )
        supervisor.close()

    def test_drain_respects_limit(self):
        supervisor = StreamSupervisor(
            policy=SupervisorPolicy(), config=service_config()
        )
        for s in range(3):
            supervisor.add_stream(f"s{s}")
        for t in range(4):
            for s in range(3):
                supervisor.submit(f"s{s}", make_bags(4, seed=800 + s)[t])
        supervisor.drain(limit=5)
        depths = supervisor.metrics["queue_depths"]
        assert sum(depths.values()) == 12 - 5
        # Round-robin: the first round took one bag of every stream.
        assert [depths[f"s{s}"] for s in range(3)] == [2, 2, 3]
        supervisor.close()

    def test_single_stream_drain_is_bit_identical_to_push(self):
        """drain(name=...) rounds solve exactly push's pairs, alone."""
        supervisor = StreamSupervisor(config=service_config())
        supervisor.add_stream("a")
        supervisor.add_stream("b")
        bags = make_bags(10, seed=900)
        for bag in bags:
            supervisor.submit("a", bag)
            supervisor.submit("b", bag)
        emitted = supervisor.drain("a")
        assert [name for name, _ in emitted] == ["a"] * len(emitted)
        assert supervisor.metrics["queue_depths"] == {"a": 0, "b": len(bags)}
        replay = push_replay(service_config(), bags)
        assert_histories_match(
            replay.history.points, [p for _, p in emitted], tol=0.0
        )
        supervisor.close()


class TestDistanceEvaluations:
    def test_supervised_count_matches_independent_detector(self):
        """Rounds solve on a shared engine; the count follows the commits."""
        supervisor = StreamSupervisor(config=service_config())
        per_stream = {name: make_bags(8, seed=seed) for name, seed in (("a", 31), ("b", 32))}
        for name in per_stream:
            supervisor.add_stream(name)
        run_rounds(supervisor, per_stream)
        for name, bags in per_stream.items():
            replay = push_replay(service_config(), bags)
            assert replay.n_distance_evaluations > 0
            assert (
                supervisor.detector(name).n_distance_evaluations
                == replay.n_distance_evaluations
            )
        supervisor.close()

    def test_masked_push_counts_nothing(self):
        detector = OnlineBagDetector(service_config())
        bags = make_bags(5, seed=33)
        for bag in bags[:4]:
            detector.push(bag)
        before = detector.n_distance_evaluations
        detector.push_masked(bags[4])
        assert detector.n_distance_evaluations == before
        detector.close()


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
            bags_a = make_bags(3, seed=28)
            bags_a[1] = poison_bag()
            bags_b = make_bags(3, seed=29)
            supervisor.submit("a", bags_a[0])
            supervisor.submit("b", bags_b[0])
            supervisor.drain()
            for bag_a, bag_b in zip(bags_a[1:], bags_b[1:]):
                supervisor.submit("a", bag_a)
                supervisor.submit("b", bag_b)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with inject_poison_marker():
                    supervisor.drain(limit=2)
            # One round: stream a's attempt faulted on its own pairs
            # (quarantining it, no emission) and consumed one unit;
            # stream b's attempt, rescued from the shared stack,
            # consumed the other.  b's third bag is still queued - the
            # fault did not starve it of its slot in the round.
            assert supervisor.status("a") == "quarantined"
            assert supervisor.detector("b").n_seen == 2
            assert supervisor.metrics["queue_depths"]["b"] == 1

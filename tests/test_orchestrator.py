"""Tests for the fault-tolerant shard orchestrator.

Every recovery path is exercised deterministically — the fault
injectors from :mod:`repro.testing.faults` script the failures and a
:class:`~repro.testing.FakeClock` drives timeouts and straggler
thresholds — and the acceptance bar throughout is *parity*: the band an
orchestrated, faulted build returns must equal the unfaulted build to
``1e-12`` (exactly, for entries that solved).
"""

from __future__ import annotations

import json
import warnings
from functools import partial

import numpy as np
import pytest

from repro.emd import PairwiseEMDEngine
from repro.emd.orchestrator import (
    QUARANTINE_FILENAME,
    InlineWorkerBackend,
    QuarantinedPair,
    QuarantineManifest,
    RetryPolicy,
    ShardOrchestrator,
    compute_backoff,
)
from repro.emd.sharding import (
    EngineSettings,
    ShardPlan,
    band_fingerprint,
    checkpoint_path,
)
from repro.exceptions import (
    ConfigurationError,
    OrchestratorError,
    PoisonPairError,
    ValidationError,
)
from repro.testing import (
    FakeClock,
    bitflip_checkpoint,
    inject_poison_pairs,
    inject_transient_solver_error,
    inject_worker_crash,
    inject_worker_hang,
    match_first_row,
    tamper_payload,
    truncate_checkpoint,
)
from test_sharding import (
    DISTINCT_GROUND_DISTANCES,
    histogram_signatures,
    irregular_signatures,
)

PARITY_TOL = 1e-12


def reference_band(signatures, bandwidth, ground_distance="euclidean"):
    engine = PairwiseEMDEngine(ground_distance=ground_distance)
    return np.asarray(engine.banded_matrix(signatures, bandwidth).band)


def assert_band_parity(band, reference):
    assert np.array_equal(np.isnan(np.asarray(band.band)), np.isnan(reference))
    deltas = np.abs(np.asarray(band.band) - reference)
    assert np.nanmax(np.where(np.isnan(deltas), 0.0, deltas)) <= PARITY_TOL


def make_orchestrator(
    plan, *, policy=None, checkpoint_dir=None, ground_distance="euclidean", **kwargs
):
    # Pin the slot count: the orchestrator defaults to the host CPU
    # count, and how many shards run at once decides when enough have
    # finished to reclaim a straggler, so the tests must not depend on
    # the machine they run on.
    kwargs.setdefault("n_workers", 8)
    fake = FakeClock()
    orchestrator = ShardOrchestrator(
        plan,
        EngineSettings(ground_distance=ground_distance),
        policy=policy,
        mode="serial",
        checkpoint_dir=checkpoint_dir,
        clock=fake,
        sleep=fake.sleep,
        **kwargs,
    )
    return orchestrator, fake


# ---------------------------------------------------------------------- #
# Backoff helper and policy validation
# ---------------------------------------------------------------------- #
class TestComputeBackoff:
    def test_exponential_growth_and_cap(self):
        delays = [compute_backoff(a, base=0.1, factor=2.0, max_delay=1.0, jitter=0.0)
                  for a in range(6)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert delays[4] == delays[5] == 1.0

    def test_jitter_is_bounded_and_seeded(self):
        rng = np.random.default_rng(7)
        base = compute_backoff(2, base=0.1, factor=2.0, max_delay=10.0, jitter=0.0)
        jittered = [
            compute_backoff(2, base=0.1, factor=2.0, max_delay=10.0, jitter=0.5,
                            rng=np.random.default_rng(7))
            for _ in range(3)
        ]
        assert jittered[0] == jittered[1] == jittered[2]  # seeded: reproducible
        assert base <= jittered[0] <= base * 1.5
        spread = {compute_backoff(2, jitter=0.5, rng=rng) for _ in range(8)}
        assert len(spread) > 1  # a shared generator de-synchronises retries

    def test_jitter_never_exceeds_the_cap(self):
        rng = np.random.default_rng(0)
        for attempt in range(8):
            assert compute_backoff(attempt, base=1.0, factor=3.0, max_delay=2.0,
                                   jitter=1.0, rng=rng) <= 2.0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValidationError):
            compute_backoff(-1)
        with pytest.raises(ValidationError):
            compute_backoff(0, base=-0.1)
        with pytest.raises(ValidationError):
            compute_backoff(0, factor=0.5)
        with pytest.raises(ValidationError):
            compute_backoff(0, jitter=-1.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(shard_timeout=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(on_poison_pair="ignore")
        with pytest.raises(ConfigurationError):
            RetryPolicy(poll_interval=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.0)
        # Non-finite times and fractional counts: a NaN timeout would
        # never fire and a NaN poll interval would crash time.sleep.
        for bad in (
            {"shard_timeout": float("nan")},
            {"shard_timeout": float("inf")},
            {"poll_interval": float("nan")},
            {"poll_interval": float("inf")},
            {"max_retries": 1.5},
            {"poison_retries": 1.5},
        ):
            with pytest.raises(ConfigurationError):
                RetryPolicy(**bad)
        # The straggler threshold is a module constant, not a knob.
        with pytest.raises(TypeError):
            RetryPolicy(straggler_factor=1.0)

    def test_from_config_reads_detector_fields(self):
        from repro.core import DetectorConfig

        config = DetectorConfig(
            shard_retries=5, shard_timeout=30.0, on_poison_pair="degraded"
        )
        policy = RetryPolicy.from_config(config)
        assert policy.max_retries == 5
        assert policy.shard_timeout == 30.0
        assert policy.on_poison_pair == "degraded"


# ---------------------------------------------------------------------- #
# No-fault parity (every ground distance)
# ---------------------------------------------------------------------- #
class TestNoFaultParity:
    @pytest.mark.parametrize("ground_distance", DISTINCT_GROUND_DISTANCES)
    def test_orchestrated_band_matches_plain(self, ground_distance):
        signatures = histogram_signatures(20, seed=3)
        plan = ShardPlan.build(len(signatures), 6, 4)
        orchestrator, _ = make_orchestrator(plan, ground_distance=ground_distance)
        band = orchestrator.run(signatures)
        assert_band_parity(band, reference_band(signatures, 6, ground_distance))
        assert orchestrator.n_shards_computed == plan.n_shards
        assert orchestrator.n_retries == 0
        assert len(orchestrator.quarantine) == 0

    def test_irregular_signatures_match(self):
        signatures = irregular_signatures(14, seed=5)
        plan = ShardPlan.build(len(signatures), 5, 3)
        orchestrator, _ = make_orchestrator(plan)
        assert_band_parity(orchestrator.run(signatures), reference_band(signatures, 5))

    def test_signature_count_must_match_plan(self):
        plan = ShardPlan.build(10, 4, 2)
        orchestrator, _ = make_orchestrator(plan)
        with pytest.raises(ValidationError):
            orchestrator.run(histogram_signatures(9))

    def test_rejects_unknown_mode(self):
        plan = ShardPlan.build(10, 4, 2)
        with pytest.raises(ConfigurationError):
            ShardOrchestrator(plan, mode="thread")  # no thread pools


# ---------------------------------------------------------------------- #
# Retry with backoff
# ---------------------------------------------------------------------- #
@pytest.mark.faults
class TestRetries:
    def test_worker_crash_is_retried_to_parity(self):
        signatures = histogram_signatures(18, seed=1)
        plan = ShardPlan.build(len(signatures), 6, 3)
        orchestrator, _ = make_orchestrator(plan)
        with inject_worker_crash(at_pair=4) as log:
            band = orchestrator.run(signatures)
        assert log.count("crash") == 1
        assert orchestrator.n_retries == 1
        assert_band_parity(band, reference_band(signatures, 6))

    def test_transient_solver_error_clears_after_retries(self):
        signatures = histogram_signatures(18, seed=1)
        plan = ShardPlan.build(len(signatures), 6, 3)
        orchestrator, fake = make_orchestrator(plan)
        with inject_transient_solver_error(times=2, match=match_first_row(0)) as log:
            band = orchestrator.run(signatures)
        assert log.count("transient") == 2
        assert orchestrator.n_retries == 2
        assert_band_parity(band, reference_band(signatures, 6))

    def test_backoff_is_actually_slept(self):
        signatures = histogram_signatures(12, seed=1)
        plan = ShardPlan.build(len(signatures), 4, 2)
        policy = RetryPolicy(backoff_base=0.2, backoff_jitter=0.0, poll_interval=0.05)
        orchestrator, fake = make_orchestrator(plan, policy=policy)
        with inject_transient_solver_error(times=1):
            orchestrator.run(signatures)
        # The retry waits out at least one full backoff delay before
        # relaunching; all sleeping goes through the injected sleep.
        assert sum(fake.sleeps) >= 0.2

    def test_budget_exhaustion_aborts_with_orchestrator_error(self):
        signatures = histogram_signatures(12, seed=1)
        plan = ShardPlan.build(len(signatures), 4, 2)
        orchestrator, _ = make_orchestrator(plan, policy=RetryPolicy(max_retries=1))
        with inject_transient_solver_error(times=10):
            with pytest.raises(OrchestratorError, match="retry budget"):
                orchestrator.run(signatures)

    def test_zero_retries_fails_on_first_fault(self):
        signatures = histogram_signatures(12, seed=1)
        plan = ShardPlan.build(len(signatures), 4, 2)
        orchestrator, _ = make_orchestrator(plan, policy=RetryPolicy(max_retries=0))
        with inject_worker_crash(at_pair=0):
            with pytest.raises(OrchestratorError, match="retry budget"):
                orchestrator.run(signatures)


# ---------------------------------------------------------------------- #
# Timeouts and stragglers
# ---------------------------------------------------------------------- #
@pytest.mark.faults
class TestTimeoutsAndStragglers:
    def test_hung_shard_is_killed_and_retried(self):
        signatures = histogram_signatures(18, seed=2)
        plan = ShardPlan.build(len(signatures), 6, 3)
        policy = RetryPolicy(shard_timeout=1.0)
        orchestrator, fake = make_orchestrator(plan, policy=policy)
        with inject_worker_hang(times=1) as log:
            band = orchestrator.run(signatures)
        assert log.count("hang") == 1
        assert orchestrator.n_timeouts == 1
        assert orchestrator.n_retries == 1
        assert_band_parity(band, reference_band(signatures, 6))

    def test_straggler_is_killed_and_redispatched(self):
        signatures = histogram_signatures(30, seed=4)
        plan = ShardPlan.build(len(signatures), 6, 6)
        # Inline backend: completions are instantaneous on the fake
        # clock, so a hang on one shard becomes a straggler as soon as
        # enough siblings have finished and the poll loop has slept.
        orchestrator, fake = make_orchestrator(plan)
        with inject_worker_hang(times=1, match=match_first_row(0)) as log:
            band = orchestrator.run(signatures)
        assert log.count("hang") == 1
        assert orchestrator.n_stragglers_redispatched == 1
        assert orchestrator.n_timeouts == 0  # no timeout configured
        assert orchestrator.n_retries == 0  # reclaiming spends no budget
        assert_band_parity(band, reference_band(signatures, 6))

    def test_saturated_pool_reclaims_stragglers(self):
        # Both worker slots hang: nothing waits for a free slot, so the
        # two stragglers are reclaimed long before the 100 s timeout.
        signatures = histogram_signatures(35, seed=4)
        plan = ShardPlan.build(len(signatures), 6, 7)
        hung = [plan.shard(3).row_start, plan.shard(4).row_start]
        orchestrator, fake = make_orchestrator(
            plan, policy=RetryPolicy(shard_timeout=100.0), n_workers=2
        )
        with inject_worker_hang(times=1, match=match_first_row(hung[0])):
            with inject_worker_hang(times=1, match=match_first_row(hung[1])):
                band = orchestrator.run(signatures)
        assert orchestrator.n_stragglers_redispatched == 2
        assert orchestrator.n_timeouts == 0
        assert orchestrator.n_retries == 0
        assert fake.now < 1.0
        assert_band_parity(band, reference_band(signatures, 6))

    def test_straggler_reclaim_spends_no_retry_budget(self):
        signatures = histogram_signatures(30, seed=4)
        plan = ShardPlan.build(len(signatures), 6, 6)
        # The timeout is only a backstop: without the reclaim the hang
        # would time out and, with no budget, abort instead of hanging.
        policy = RetryPolicy(max_retries=0, shard_timeout=100.0)
        orchestrator, fake = make_orchestrator(plan, policy=policy)
        with inject_worker_hang(times=1, match=match_first_row(0)):
            band = orchestrator.run(signatures)
        assert orchestrator.n_stragglers_redispatched == 1
        assert orchestrator.n_retries == 0
        assert fake.now < 1.0
        assert_band_parity(band, reference_band(signatures, 6))

    def test_timeout_only_kills_overdue_attempts(self):
        signatures = histogram_signatures(18, seed=2)
        plan = ShardPlan.build(len(signatures), 6, 3)
        policy = RetryPolicy(shard_timeout=1e6)
        orchestrator, _ = make_orchestrator(plan, policy=policy)
        band = orchestrator.run(signatures)
        assert orchestrator.n_timeouts == 0
        assert_band_parity(band, reference_band(signatures, 6))


# ---------------------------------------------------------------------- #
# Poison pairs
# ---------------------------------------------------------------------- #
@pytest.mark.faults
class TestPoisonPairs:
    def find_band_pair(self, plan, shard_id=0, offset=0):
        rows, cols = plan.pair_indices(shard_id)
        return int(rows[offset]), int(cols[offset])

    def test_batch_poison_rescued_by_singleton_solve(self):
        signatures = histogram_signatures(18, seed=6)
        plan = ShardPlan.build(len(signatures), 6, 3)
        pair = self.find_band_pair(plan)
        orchestrator, _ = make_orchestrator(plan)
        with inject_poison_pairs([pair]) as log:
            band = orchestrator.run(signatures)
        assert log.count("poison") >= 1
        assert orchestrator.n_poison_rescued >= 1
        assert len(orchestrator.quarantine) == 0
        assert_band_parity(band, reference_band(signatures, 6))

    def test_singleton_poison_rescued_by_exact_lp(self):
        signatures = histogram_signatures(18, seed=6)
        plan = ShardPlan.build(len(signatures), 6, 3)
        pair = self.find_band_pair(plan)
        orchestrator, _ = make_orchestrator(plan)
        with inject_poison_pairs([pair], fail_singleton=True):
            band = orchestrator.run(signatures)
        assert orchestrator.n_poison_rescued >= 1
        assert len(orchestrator.quarantine) == 0
        assert_band_parity(band, reference_band(signatures, 6))

    def test_batch_reported_indices_force_bisection_to_parity(self):
        # report="batch" blames the whole group, so the orchestrator
        # must bisect its way down to the genuinely bad pair.
        signatures = histogram_signatures(18, seed=6)
        plan = ShardPlan.build(len(signatures), 6, 3)
        pair = self.find_band_pair(plan, offset=3)
        orchestrator, _ = make_orchestrator(plan)
        with inject_poison_pairs([pair], report="batch"):
            band = orchestrator.run(signatures)
        assert len(orchestrator.quarantine) == 0
        assert_band_parity(band, reference_band(signatures, 6))

    def test_degraded_masks_exactly_the_quarantined_pairs(self):
        signatures = histogram_signatures(18, seed=6)
        plan = ShardPlan.build(len(signatures), 6, 3)
        pair = self.find_band_pair(plan, offset=1)
        orchestrator, _ = make_orchestrator(
            plan, policy=RetryPolicy(on_poison_pair="degraded")
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with inject_poison_pairs([pair], fail_singleton=True, fail_exact=True):
                band = orchestrator.run(signatures)
        assert any("degraded band" in str(w.message) for w in caught)
        assert orchestrator.quarantine.pair_set() == frozenset({pair})
        reference = reference_band(signatures, 6)
        band_values = np.asarray(band.band)
        # Exactly one more NaN than the band's structural padding, and
        # every solved entry still matches the reference to PARITY_TOL
        # (stacked HiGHS solves may move the last ulp with the batch
        # composition, which the poison-pair rescue changes).
        assert np.isnan(band_values).sum() == np.isnan(reference).sum() + 1
        solved = ~np.isnan(band_values)
        np.testing.assert_allclose(
            band_values[solved], reference[solved], rtol=0, atol=PARITY_TOL
        )

    def test_strict_raises_with_manifest_attached(self):
        signatures = histogram_signatures(18, seed=6)
        plan = ShardPlan.build(len(signatures), 6, 3)
        pair = self.find_band_pair(plan, offset=2)
        orchestrator, _ = make_orchestrator(
            plan, policy=RetryPolicy(on_poison_pair="strict")
        )
        with inject_poison_pairs([pair], fail_singleton=True, fail_exact=True):
            with pytest.raises(PoisonPairError) as excinfo:
                orchestrator.run(signatures)
        manifest = excinfo.value.manifest
        assert isinstance(manifest, QuarantineManifest)
        assert manifest.pair_set() == frozenset({pair})
        assert str(pair) in str(excinfo.value)
        record = manifest.pairs[0]
        assert "exact-LP rescue failed" in record.reason

    def test_quarantine_manifest_round_trips(self, tmp_path):
        manifest = QuarantineManifest("planhash", "fingerprint")
        manifest.add(QuarantinedPair(row=3, col=5, shard_id=1, reason="injected"))
        path = manifest.save(tmp_path)
        assert path.name == QUARANTINE_FILENAME
        payload = json.loads(path.read_text())
        assert payload["plan_hash"] == "planhash"
        loaded = QuarantineManifest.load(tmp_path, "planhash", "fingerprint")
        assert loaded is not None
        assert loaded.pair_set() == frozenset({(3, 5)})
        assert QuarantineManifest.load(tmp_path, "otherplan", "fingerprint") is None
        assert QuarantineManifest.load(tmp_path, "planhash", "otherfp") is None

    def test_degraded_run_persists_manifest(self, tmp_path):
        signatures = histogram_signatures(18, seed=6)
        plan = ShardPlan.build(len(signatures), 6, 3)
        pair = self.find_band_pair(plan)
        orchestrator, _ = make_orchestrator(
            plan,
            policy=RetryPolicy(on_poison_pair="degraded"),
            checkpoint_dir=tmp_path,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with inject_poison_pairs([pair], fail_singleton=True, fail_exact=True):
                orchestrator.run(signatures)
        loaded = QuarantineManifest.load(
            tmp_path, plan.plan_hash(), band_fingerprint(EngineSettings(), signatures)
        )
        assert loaded is not None and loaded.pair_set() == frozenset({pair})
        # A resume of the (now checkpointed, masked) build reconstructs
        # the same quarantine from the stored manifest.
        resumed, _ = make_orchestrator(
            plan,
            policy=RetryPolicy(on_poison_pair="degraded"),
            checkpoint_dir=tmp_path,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            band = resumed.run(signatures)
        assert resumed.n_shards_resumed == plan.n_shards
        assert resumed.quarantine.pair_set() == frozenset({pair})
        assert np.isnan(np.asarray(band.band)).sum() == np.isnan(
            reference_band(signatures, 6)
        ).sum() + 1

    def test_clean_rerun_empties_the_persisted_manifest(self, tmp_path):
        signatures = histogram_signatures(18, seed=6)
        plan = ShardPlan.build(len(signatures), 6, 3)
        pair = self.find_band_pair(plan)
        degraded, _ = make_orchestrator(
            plan,
            policy=RetryPolicy(on_poison_pair="degraded"),
            checkpoint_dir=tmp_path,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with inject_poison_pairs([pair], fail_singleton=True, fail_exact=True):
                degraded.run(signatures)
        # The operator drops the masked shards and rebuilds without the fault.
        for path in tmp_path.glob("shard_*.npz"):
            path.unlink()
        clean, _ = make_orchestrator(plan, checkpoint_dir=tmp_path)
        clean.run(signatures)
        assert len(clean.quarantine) == 0
        payload = json.loads((tmp_path / QUARANTINE_FILENAME).read_text())
        assert payload["pairs"] == []


# ---------------------------------------------------------------------- #
# Checkpoint validation
# ---------------------------------------------------------------------- #
@pytest.mark.faults
class TestCheckpointValidation:
    def build_checkpoints(self, tmp_path):
        signatures = histogram_signatures(18, seed=8)
        plan = ShardPlan.build(len(signatures), 6, 3)
        orchestrator, _ = make_orchestrator(plan, checkpoint_dir=tmp_path)
        orchestrator.run(signatures)
        return signatures, plan

    @pytest.mark.parametrize(
        "corrupt",
        [truncate_checkpoint, bitflip_checkpoint, partial(tamper_payload, key="values")],
        ids=["truncated", "bitflipped", "tampered-payload"],
    )
    def test_corrupt_checkpoint_is_requeued_not_fatal(self, tmp_path, corrupt):
        signatures, plan = self.build_checkpoints(tmp_path)
        corrupt(checkpoint_path(tmp_path, 1))
        orchestrator, _ = make_orchestrator(plan, checkpoint_dir=tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            band = orchestrator.run(signatures)
        assert any("re-queueing shard 1" in str(w.message) for w in caught)
        assert orchestrator.n_checkpoints_requeued == 1
        assert orchestrator.n_shards_resumed == plan.n_shards - 1
        assert orchestrator.n_shards_computed == 1
        assert_band_parity(band, reference_band(signatures, 6))
        # The recomputed shard is re-checkpointed and valid again.
        final, _ = make_orchestrator(plan, checkpoint_dir=tmp_path)
        final.run(signatures)
        assert final.n_shards_resumed == plan.n_shards

    def test_stale_fingerprint_checkpoint_is_requeued(self, tmp_path):
        signatures, plan = self.build_checkpoints(tmp_path)
        stale, _ = make_orchestrator(
            plan, checkpoint_dir=tmp_path, ground_distance="manhattan"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            band = stale.run(signatures)
        assert stale.n_checkpoints_requeued == plan.n_shards
        assert stale.n_shards_resumed == 0
        assert any("engine configuration" in str(w.message) for w in caught)
        assert_band_parity(band, reference_band(signatures, 6, "manhattan"))

    def test_checkpoints_of_other_input_data_are_requeued(self, tmp_path):
        # Same plan and engine settings, different signatures: the stamp
        # covers the input data, so nothing of the old run is resumed.
        _, plan = self.build_checkpoints(tmp_path)
        other = histogram_signatures(plan.n, seed=99)
        orchestrator, _ = make_orchestrator(plan, checkpoint_dir=tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            band = orchestrator.run(other)
        assert orchestrator.n_checkpoints_requeued == plan.n_shards
        assert orchestrator.n_shards_resumed == 0
        assert any("input data" in str(w.message) for w in caught)
        assert_band_parity(band, reference_band(other, 6))


# ---------------------------------------------------------------------- #
# Inline backend protocol
# ---------------------------------------------------------------------- #
class TestInlineBackend:
    def test_poll_reports_killed_handles_as_gone(self):
        signatures = histogram_signatures(10, seed=1)
        plan = ShardPlan.build(len(signatures), 4, 2)
        backend = InlineWorkerBackend(plan, EngineSettings(), signatures)
        try:
            with inject_worker_hang(times=1):
                handle = backend.start(0)
            assert backend.poll(handle) is None  # hung: still "running"
            backend.kill(handle)
            handle2 = backend.start(0)
            outcome = backend.poll(handle2)
            assert outcome is not None and outcome.status == "ok"
        finally:
            backend.close()


# ---------------------------------------------------------------------- #
# Process mode (small, real worker processes)
# ---------------------------------------------------------------------- #
@pytest.mark.faults
class TestProcessMode:
    def test_parity_and_checkpoints(self, tmp_path):
        signatures = histogram_signatures(14, seed=10)
        plan = ShardPlan.build(len(signatures), 5, 3)
        orchestrator = ShardOrchestrator(
            plan,
            EngineSettings(),
            mode="process",
            n_workers=2,
            checkpoint_dir=tmp_path,
        )
        band = orchestrator.run(signatures)
        assert_band_parity(band, reference_band(signatures, 5))
        assert len(list(tmp_path.glob("shard_*.npz"))) == plan.n_shards

    def test_hard_worker_death_is_retried_to_parity(self, tmp_path):
        signatures = histogram_signatures(14, seed=10)
        plan = ShardPlan.build(len(signatures), 5, 3)
        orchestrator = ShardOrchestrator(
            plan, EngineSettings(), mode="process", n_workers=2
        )
        sentinel = tmp_path / "crash-once"
        with inject_worker_crash(at_pair=2, hard=True, sentinel=sentinel):
            band = orchestrator.run(signatures)
        assert orchestrator.n_retries >= 1
        assert len(list(tmp_path.glob("crash-once.fired.*"))) == 1
        assert_band_parity(band, reference_band(signatures, 5))


# ---------------------------------------------------------------------- #
# Detector / config integration
# ---------------------------------------------------------------------- #
class TestDetectorIntegration:
    def test_orchestrated_detect_matches_plain(self, step_change_bags):
        from repro import BagChangePointDetector
        from repro.core import DetectorConfig

        kwargs = dict(
            tau=4, tau_test=4, signature_method="exact", n_bootstrap=40, random_state=0
        )
        plain = BagChangePointDetector(DetectorConfig(**kwargs)).detect(step_change_bags)
        orchestrated = BagChangePointDetector(
            DetectorConfig(n_shards=3, shard_retries=3, **kwargs)
        ).detect(step_change_bags)
        for a, b in zip(plain.points, orchestrated.points):
            assert a.score == b.score
            assert a.alert == b.alert

    @pytest.mark.faults
    def test_detect_survives_transient_faults_identically(self, step_change_bags):
        from repro import BagChangePointDetector
        from repro.core import DetectorConfig

        kwargs = dict(
            tau=4, tau_test=4, signature_method="exact", n_bootstrap=40, random_state=0
        )
        plain = BagChangePointDetector(DetectorConfig(**kwargs)).detect(step_change_bags)
        config = DetectorConfig(n_shards=3, shard_retries=3, **kwargs)
        with inject_transient_solver_error(times=2):
            faulted = BagChangePointDetector(config).detect(step_change_bags)
        for a, b in zip(plain.points, faulted.points):
            assert a.score == b.score
            assert a.alert == b.alert

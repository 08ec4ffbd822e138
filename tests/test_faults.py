"""Tests for the deterministic fault-injection harness itself.

The orchestrator's recovery guarantees are only as good as the faults
used to prove them, so the injectors get their own suite: firing
conditions, budgets (in-memory and cross-process sentinel files),
restoration on exit, and the checkpoint corruptors actually producing
the corruption class they claim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.emd import PairwiseEMDEngine
from repro.emd.orchestrator import WorkerCrash, WorkerHang
from repro.emd.sharding import (
    EngineSettings,
    ShardPlan,
    checkpoint_path,
    load_shard_checkpoint,
    save_shard_checkpoint,
)
from repro.exceptions import CheckpointError, SolverError
from repro.testing import (
    FakeClock,
    InjectionLog,
    bitflip_checkpoint,
    inject_poison_pairs,
    inject_transient_solver_error,
    inject_worker_crash,
    inject_worker_hang,
    match_first_row,
    tamper_payload,
    truncate_checkpoint,
)
from test_sharding import histogram_signatures

pytestmark = pytest.mark.faults


@pytest.fixture
def engine():
    eng = PairwiseEMDEngine()
    yield eng
    eng.close()


@pytest.fixture
def pairs():
    signatures = histogram_signatures(6, seed=0)
    return [(signatures[i], signatures[i + 1]) for i in range(5)]


class TestFakeClock:
    def test_call_does_not_advance(self):
        clock = FakeClock(start=10.0)
        assert clock() == 10.0
        assert clock() == 10.0

    def test_sleep_records_and_advances(self):
        clock = FakeClock()
        clock.sleep(0.5)
        clock.sleep(0.25)
        assert clock() == 0.75
        assert clock.sleeps == [0.5, 0.25]

    def test_advance(self):
        clock = FakeClock()
        clock.advance(3.0)
        assert clock() == 3.0
        assert clock.sleeps == []


class TestInjectionLog:
    def test_count_by_prefix(self):
        log = InjectionLog()
        log.record("crash:1")
        log.record("crash:2")
        log.record("hang:1")
        assert log.count("crash") == 2
        assert log.count("hang") == 1
        assert log.count("poison") == 0


class TestWorkerCrashInjector:
    def test_fires_once_then_clears(self, engine, pairs):
        with inject_worker_crash(at_pair=0, times=1) as log:
            with pytest.raises(WorkerCrash, match="injected worker crash"):
                engine.compute_pairs(pairs)
            values = engine.compute_pairs(pairs)  # budget spent: clean
        assert len(values) == len(pairs)
        assert log.count("crash") == 1

    def test_pair_threshold_is_cumulative(self, engine, pairs):
        with inject_worker_crash(at_pair=8) as log:
            engine.compute_pairs(pairs)  # 5 pairs seen: below threshold
            with pytest.raises(WorkerCrash):
                engine.compute_pairs(pairs)  # 5 + 5 > 8: fires
        assert log.events == ["crash:1:after_pair:5"]

    def test_sentinel_counts_across_injector_instances(self, engine, pairs, tmp_path):
        # Two separate contexts sharing one sentinel behave like a
        # parent and its forked worker: the budget is global.
        sentinel = tmp_path / "crash"
        with inject_worker_crash(at_pair=0, times=1, sentinel=sentinel):
            with pytest.raises(WorkerCrash):
                engine.compute_pairs(pairs)
        with inject_worker_crash(at_pair=0, times=1, sentinel=sentinel):
            values = engine.compute_pairs(pairs)  # already fired elsewhere
        assert len(values) == len(pairs)
        assert len(list(tmp_path.glob("crash.fired.*"))) == 1

    def test_restores_compute_pairs_on_exit(self, engine, pairs):
        original = PairwiseEMDEngine.compute_pairs
        with inject_worker_crash(at_pair=0):
            assert PairwiseEMDEngine.compute_pairs is not original
        assert PairwiseEMDEngine.compute_pairs is original


class TestWorkerHangInjector:
    def test_raises_worker_hang(self, engine, pairs):
        with inject_worker_hang(times=1) as log:
            with pytest.raises(WorkerHang, match="injected hang"):
                engine.compute_pairs(pairs)
            engine.compute_pairs(pairs)
        assert log.count("hang") == 1

    def test_match_predicate_targets_one_shard(self, engine):
        signatures = histogram_signatures(8, seed=1)
        shard0 = [(signatures[0], signatures[1])]
        shard3 = [(signatures[3], signatures[4])]
        with inject_worker_hang(times=5, match=match_first_row(3)) as log:
            engine.compute_pairs(shard0)  # row 0: untouched
            with pytest.raises(WorkerHang):
                engine.compute_pairs(shard3)
        assert log.count("hang") == 1


class TestTransientErrorInjector:
    def test_clears_after_budget(self, engine, pairs):
        with inject_transient_solver_error(times=2) as log:
            for expected in ("#1", "#2"):
                with pytest.raises(SolverError, match=expected):
                    engine.compute_pairs(pairs)
            values = engine.compute_pairs(pairs)
        assert len(values) == len(pairs)
        assert log.events == ["transient:1", "transient:2"]

    def test_no_pair_indices_attached(self, engine, pairs):
        # Context-free by contract: must hit the retry path, never the
        # poison-bisection path.
        with inject_transient_solver_error(times=1):
            with pytest.raises(SolverError) as excinfo:
                engine.compute_pairs(pairs)
        assert excinfo.value.pair_indices is None


class TestPoisonPairInjector:
    def test_reports_exact_positions(self, engine, pairs):
        key = (pairs[2][0].label, pairs[2][1].label)
        with inject_poison_pairs([key]) as log:
            with pytest.raises(SolverError) as excinfo:
                engine.compute_pairs(pairs)
        assert excinfo.value.pair_indices == (2,)
        assert log.count("poison") == 1

    def test_batch_report_blames_everything(self, engine, pairs):
        key = (pairs[2][0].label, pairs[2][1].label)
        with inject_poison_pairs([key], report="batch"):
            with pytest.raises(SolverError) as excinfo:
                engine.compute_pairs(pairs)
        assert excinfo.value.pair_indices == tuple(range(len(pairs)))

    def test_singleton_solve_succeeds_unless_told_otherwise(self, engine, pairs):
        key = (pairs[2][0].label, pairs[2][1].label)
        with inject_poison_pairs([key]):
            value = engine.compute_pairs([pairs[2]])  # singleton: rescued
            assert np.isfinite(value[0])
        with inject_poison_pairs([key], fail_singleton=True):
            with pytest.raises(SolverError):
                engine.compute_pairs([pairs[2]])

    def test_fail_exact_blocks_the_lp_rescue(self, pairs):
        from repro.emd import orchestrator as orchestrator_module

        key = (pairs[2][0].label, pairs[2][1].label)
        original = orchestrator_module.emd
        with inject_poison_pairs([key], fail_exact=True):
            with pytest.raises(SolverError, match="exact-LP"):
                orchestrator_module.emd(pairs[2][0], pairs[2][1])
            # Other pairs still solve through the module's emd binding.
            assert np.isfinite(orchestrator_module.emd(pairs[0][0], pairs[0][1]))
        assert orchestrator_module.emd is original

    def test_unordered_labels_match(self, engine, pairs):
        a, b = pairs[1]
        with inject_poison_pairs([(b.label, a.label)]):
            with pytest.raises(SolverError):
                engine.compute_pairs(pairs)

    def test_rejects_unknown_report_mode(self):
        with pytest.raises(ValueError, match="report"):
            with inject_poison_pairs([(0, 1)], report="everything"):
                pass


class TestCheckpointCorruptors:
    def make_checkpoint(self, tmp_path):
        plan = ShardPlan.build(12, 4, 2)
        values = np.linspace(0.0, 1.0, plan.shard(0).n_pairs)
        save_shard_checkpoint(tmp_path, plan, 0, values, "fp")
        return plan, checkpoint_path(tmp_path, 0)

    def test_truncate_makes_checkpoint_unreadable(self, tmp_path):
        plan, path = self.make_checkpoint(tmp_path)
        before = path.stat().st_size
        truncate_checkpoint(path)
        assert path.stat().st_size < before
        with pytest.raises(CheckpointError):
            load_shard_checkpoint(tmp_path, plan, 0, "fp")

    def test_truncate_validates_fraction(self, tmp_path):
        _, path = self.make_checkpoint(tmp_path)
        with pytest.raises(ValueError):
            truncate_checkpoint(path, keep_fraction=1.0)

    def test_bitflip_is_seeded_and_detected(self, tmp_path):
        plan, path = self.make_checkpoint(tmp_path)
        pristine = path.read_bytes()
        bitflip_checkpoint(path, seed=3)
        flipped_once = path.read_bytes()
        assert flipped_once != pristine
        path.write_bytes(pristine)
        bitflip_checkpoint(path, seed=3)
        assert path.read_bytes() == flipped_once  # same seed, same flip
        with pytest.raises(CheckpointError):
            load_shard_checkpoint(tmp_path, plan, 0, "fp")

    def test_tampered_payload_defeats_zip_but_not_checksum(self, tmp_path):
        # The whole point of checkpoint format v2: a perfectly readable
        # archive whose float payload silently changed must still be
        # rejected, by the sha256 payload checksum.
        plan, path = self.make_checkpoint(tmp_path)
        tamper_payload(path, key="values", delta=0.5)
        with np.load(path) as archive:  # readable: the zip layer is happy
            assert "values" in archive.files
        with pytest.raises(CheckpointError, match="payload checksum"):
            load_shard_checkpoint(tmp_path, plan, 0, "fp")


class TestInjectorDeterminism:
    def test_two_identical_runs_produce_identical_logs(self):
        signatures = histogram_signatures(12, seed=5)
        plan = ShardPlan.build(len(signatures), 4, 2)
        from repro.emd.orchestrator import ShardOrchestrator

        def run_once():
            clock = FakeClock()
            orchestrator = ShardOrchestrator(
                plan,
                EngineSettings(),
                mode="serial",
                n_workers=4,
                clock=clock,
                sleep=clock.sleep,
            )
            with inject_transient_solver_error(times=1) as log:
                band = orchestrator.run(signatures)
            return log.events, clock.sleeps, np.asarray(band.band)

        events_a, sleeps_a, band_a = run_once()
        events_b, sleeps_b, band_b = run_once()
        assert events_a == events_b
        assert sleeps_a == sleeps_b
        assert np.array_equal(band_a, band_b, equal_nan=True)

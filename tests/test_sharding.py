"""Tests for the sharded band build (:mod:`repro.emd.sharding`).

Shards are executed by :class:`~repro.emd.orchestrator.ShardOrchestrator`;
its fault-handling paths are covered in ``test_orchestrator.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BagChangePointDetector
from repro.core import DetectorConfig
from repro.emd import (
    BandedDistanceMatrix,
    EngineSettings,
    PairwiseEMDEngine,
    RetryPolicy,
    ShardOrchestrator,
    ShardPlan,
    band_fingerprint,
    band_pair_indices,
    load_shard_checkpoint,
    merge_shards,
    save_shard_checkpoint,
)
from repro.emd.sharding import _compute_shard_values, checkpoint_path
from repro.exceptions import (
    CheckpointError,
    OrchestratorError,
    SolverError,
    ValidationError,
)
from repro.signatures import Signature, SignatureBuilder

MERGE_TOL = 1e-12

#: Every ground distance once ("manhattan" is a second name for
#: "cityblock"): the one solver knob the parity suites run over.
DISTINCT_GROUND_DISTANCES = ("euclidean", "sqeuclidean", "cityblock", "chebyshev")


def histogram_signatures(n_bags, side=4, dim=2, seed=0):
    """Histogram signatures with varying bin occupancy over one grid."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.arange(float(side))] * dim)
    grid = np.column_stack([axis.ravel() for axis in axes])
    signatures = []
    for i in range(n_bags):
        counts = rng.poisson(3.0, size=grid.shape[0]).astype(float)
        if counts.sum() == 0:
            counts[0] = 1.0
        signatures.append(Signature(grid[counts > 0], counts[counts > 0], label=i))
    return signatures


def irregular_signatures(n_bags, seed=0):
    """k-means-style signatures: every support distinct (stacked LP route)."""
    rng = np.random.default_rng(seed)
    bags = [rng.normal(0.0, 1.0, size=(25, 2)) for _ in range(n_bags)]
    builder = SignatureBuilder("kmeans", n_clusters=4, random_state=seed)
    return builder.build_sequence(bags)


def restamp_format_version(path, version):
    """Rewrite an ``.npz`` artefact's ``format_version`` stamp in place."""
    with np.load(path, allow_pickle=False) as archive:
        entries = {name: np.asarray(archive[name]) for name in archive.files}
    entries["format_version"] = np.array(version)
    with open(path, "wb") as handle:
        np.savez(handle, **entries)


def serial_orchestrator(plan, settings=None, *, checkpoint_dir=None, max_retries=2):
    """Shards one after another in-process, so failures land in order."""
    return ShardOrchestrator(
        plan,
        settings,
        policy=RetryPolicy(max_retries=max_retries),
        mode="serial",
        n_workers=1,
        checkpoint_dir=checkpoint_dir,
    )


def band_pairs_set(plan):
    pairs = set()
    for spec in plan.shards:
        i, j = plan.pair_indices(spec.shard_id)
        for a, b in zip(i.tolist(), j.tolist()):
            assert (a, b) not in pairs, "pair owned by two shards"
            pairs.add((a, b))
    return pairs


# ---------------------------------------------------------------------- #
# Pair-range slicing API
# ---------------------------------------------------------------------- #
class TestPairRangeSlicing:
    def test_row_ranges_partition_the_band(self):
        n, bw = 23, 7
        full_i, full_j = band_pair_indices(n, bw)
        cut = 9
        head_i, head_j = band_pair_indices(n, bw, 0, cut)
        tail_i, tail_j = band_pair_indices(n, bw, cut, n)
        np.testing.assert_array_equal(np.concatenate([head_i, tail_i]), full_i)
        np.testing.assert_array_equal(np.concatenate([head_j, tail_j]), full_j)

    def test_matrix_method_matches_module_function(self):
        banded = BandedDistanceMatrix(15, 5)
        i_m, j_m = banded.pair_indices(3, 11)
        i_f, j_f = band_pair_indices(15, 5, 3, 11)
        np.testing.assert_array_equal(i_m, i_f)
        np.testing.assert_array_equal(j_m, j_f)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValidationError):
            band_pair_indices(10, 4, 5, 3)
        with pytest.raises(ValidationError):
            band_pair_indices(10, 4, 0, 11)

    def test_empty_range_yields_empty_arrays(self):
        i, j = band_pair_indices(5, 3, 2, 2)
        assert i.size == 0 and j.size == 0
        i, j = BandedDistanceMatrix(5, 3).pair_indices(5, 5)
        assert i.size == 0 and j.size == 0

    def test_set_pairs_round_trips(self):
        banded = BandedDistanceMatrix(10, 4)
        rows, cols = banded.pair_indices()
        values = np.arange(rows.size, dtype=float)
        banded.set_pairs(rows, cols, values)
        for k in range(rows.size):
            assert banded[rows[k], cols[k]] == values[k]

    def test_set_pairs_rejects_out_of_band_and_diagonal(self):
        banded = BandedDistanceMatrix(10, 4)
        with pytest.raises(ValidationError):
            banded.set_pairs(np.array([0]), np.array([5]), np.array([1.0]))
        with pytest.raises(ValidationError):
            banded.set_pairs(np.array([2]), np.array([2]), np.array([1.0]))
        with pytest.raises(ValidationError):
            banded.set_pairs(np.array([0, 1]), np.array([1]), np.array([1.0]))


# ---------------------------------------------------------------------- #
# Shard planning
# ---------------------------------------------------------------------- #
class TestShardPlan:
    @pytest.mark.parametrize(
        "n,bandwidth,n_shards",
        [(30, 6, 4), (50, 10, 7), (12, 12, 3), (100, 4, 16), (8, 3, 2)],
    )
    def test_shards_partition_the_band(self, n, bandwidth, n_shards):
        plan = ShardPlan.build(n, bandwidth, n_shards)
        full_i, full_j = band_pair_indices(n, bandwidth)
        assert band_pairs_set(plan) == set(zip(full_i.tolist(), full_j.tolist()))
        assert plan.n_pairs == full_i.size
        assert sum(spec.n_pairs for spec in plan.shards) == full_i.size

    def test_band_wider_than_shard_row_range(self):
        # bandwidth - 1 = 11 exceeds every shard's row count; halos span
        # multiple downstream shards and the partition must still be exact.
        plan = ShardPlan.build(16, 12, 5)
        assert any(
            spec.row_stop - spec.row_start < plan.bandwidth - 1 for spec in plan.shards
        )
        full_i, full_j = band_pair_indices(16, 12)
        assert band_pairs_set(plan) == set(zip(full_i.tolist(), full_j.tolist()))
        for spec in plan.shards:
            _, j = plan.pair_indices(spec.shard_id)
            if j.size:
                assert j.max() < spec.halo_stop
                assert spec.halo_stop == min(plan.n, spec.row_stop + plan.bandwidth - 1)

    def test_more_shards_than_rows_degrades_gracefully(self):
        plan = ShardPlan.build(5, 3, 50)
        assert plan.n_shards <= 5
        assert all(spec.n_pairs > 0 for spec in plan.shards)
        full_i, full_j = band_pair_indices(5, 3)
        assert band_pairs_set(plan) == set(zip(full_i.tolist(), full_j.tolist()))

    def test_single_shard_owns_everything(self):
        plan = ShardPlan.build(20, 5, 1)
        assert plan.n_shards == 1
        spec = plan.shard(0)
        assert (spec.row_start, spec.row_stop) == (0, 20)
        i, j = plan.pair_indices(0)
        full_i, full_j = band_pair_indices(20, 5)
        np.testing.assert_array_equal(i, full_i)
        np.testing.assert_array_equal(j, full_j)

    def test_balancing_is_roughly_even(self):
        plan = ShardPlan.build(200, 8, 8)
        sizes = [spec.n_pairs for spec in plan.shards]
        assert max(sizes) <= 2 * min(sizes)

    def test_plan_hash_tracks_geometry(self):
        base = ShardPlan.build(30, 6, 4)
        assert base.plan_hash() == ShardPlan.build(30, 6, 4).plan_hash()
        assert base.plan_hash() != ShardPlan.build(30, 6, 3).plan_hash()
        assert base.plan_hash() != ShardPlan.build(30, 8, 4).plan_hash()
        assert base.plan_hash() != ShardPlan.build(31, 6, 4).plan_hash()

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlan(10, 4, (0, 5, 5, 10))
        with pytest.raises(ValidationError):
            ShardPlan(10, 4, (1, 10))
        with pytest.raises(ValidationError):
            ShardPlan.build(10, 4, 2).shard(7)


# ---------------------------------------------------------------------- #
# Engine settings
# ---------------------------------------------------------------------- #
class TestEngineSettings:
    def test_from_config_carries_solver_knobs(self):
        config = DetectorConfig(ground_distance="manhattan")
        settings = EngineSettings.from_config(config)
        assert settings.ground_distance == "manhattan"
        engine = settings.make_engine()
        assert engine.ground_distance == "manhattan"
        assert engine.parallel_backend == "serial"
        engine.close()

    def test_fingerprint_changes_with_each_knob(self):
        base = EngineSettings()
        assert base.fingerprint() == EngineSettings().fingerprint()
        variants = [
            EngineSettings(ground_distance="manhattan"),
            EngineSettings(ground_distance="chebyshev"),
        ]
        prints = {settings.fingerprint() for settings in variants}
        assert len(prints) == len(variants)
        assert base.fingerprint() not in prints


# ---------------------------------------------------------------------- #
# Merge parity with the single-process build
# ---------------------------------------------------------------------- #
class TestMergeParity:
    def test_process_mode_matches_serial(self):
        signatures = histogram_signatures(16, seed=7)
        plan = ShardPlan.build(len(signatures), 5, 3)
        serial = ShardOrchestrator(plan, mode="serial").run(signatures)
        process = ShardOrchestrator(plan, mode="process", n_workers=2).run(signatures)
        assert np.nanmax(np.abs(process.band - serial.band)) <= MERGE_TOL

    def test_shard_count_does_not_change_the_band(self):
        signatures = histogram_signatures(20, seed=11)
        bands = [
            ShardOrchestrator(ShardPlan.build(len(signatures), 6, k), mode="serial")
            .run(signatures)
            .band
            for k in (1, 2, 5)
        ]
        for other in bands[1:]:
            assert np.nanmax(np.abs(other - bands[0])) <= MERGE_TOL

    def test_merge_requires_every_shard(self):
        plan = ShardPlan.build(10, 4, 2)
        values = {0: np.zeros(plan.shard(0).n_pairs)}
        with pytest.raises(ValidationError):
            merge_shards(plan, values)
        values[1] = np.zeros(plan.shard(1).n_pairs + 1)
        with pytest.raises(ValidationError):
            merge_shards(plan, values)

    def test_signature_count_must_match_plan(self):
        # Checked before any worker process is started.
        plan = ShardPlan.build(10, 4, 2)
        with pytest.raises(ValidationError):
            ShardOrchestrator(plan, mode="process").run(histogram_signatures(9))


# ---------------------------------------------------------------------- #
# Checkpoints
# ---------------------------------------------------------------------- #
class TestCheckpoints:
    def make(self, tmp_path, n_shards=4):
        signatures = histogram_signatures(20, seed=2)
        plan = ShardPlan.build(len(signatures), 6, n_shards)
        orchestrator = serial_orchestrator(plan, checkpoint_dir=tmp_path / "ckpt")
        return signatures, plan, orchestrator

    def test_resume_after_simulated_crash(self, tmp_path):
        signatures, plan, _ = self.make(tmp_path)
        # The "crashed" first run finished two of four shards.
        settings = EngineSettings()
        by_row = dict(enumerate(signatures))
        with settings.make_engine() as engine:
            for shard_id in (0, 2):
                values = _compute_shard_values(engine, by_row, plan, shard_id)
                save_shard_checkpoint(
                    tmp_path / "ckpt", plan, shard_id, values,
                    band_fingerprint(settings, signatures),
                )
        resumed = serial_orchestrator(plan, checkpoint_dir=tmp_path / "ckpt")
        merged = resumed.run(signatures)
        assert resumed.n_shards_resumed == 2
        assert resumed.n_shards_computed == plan.n_shards - 2
        reference = PairwiseEMDEngine().banded_matrix(signatures, plan.bandwidth)
        assert np.nanmax(np.abs(merged.band - reference.band)) <= MERGE_TOL

    def test_full_resume_computes_nothing(self, tmp_path):
        signatures, plan, orchestrator = self.make(tmp_path)
        first = orchestrator.run(signatures)
        again = serial_orchestrator(plan, checkpoint_dir=tmp_path / "ckpt")
        second = again.run(signatures)
        assert again.n_shards_computed == 0
        assert again.n_shards_resumed == plan.n_shards
        assert np.nanmax(np.abs(second.band - first.band)) == 0.0

    def test_stale_fingerprint_rejected(self, tmp_path):
        signatures, plan, orchestrator = self.make(tmp_path)
        orchestrator.run(signatures)
        stale = EngineSettings(ground_distance="manhattan").fingerprint()
        with pytest.raises(CheckpointError, match="different engine configuration"):
            load_shard_checkpoint(tmp_path / "ckpt", plan, 0, stale)

    def test_stale_plan_rejected(self, tmp_path):
        signatures, plan, orchestrator = self.make(tmp_path)
        orchestrator.run(signatures)
        other_plan = ShardPlan.build(len(signatures), 6, 3)
        with pytest.raises(CheckpointError, match="different shard plan"):
            load_shard_checkpoint(
                tmp_path / "ckpt", other_plan, 0, EngineSettings().fingerprint()
            )

    def test_previous_format_version_rejected(self, tmp_path):
        # v5 checkpoints carried a shard id no load ever checked.
        plan = ShardPlan.build(20, 6, 4)
        fingerprint = EngineSettings().fingerprint()
        path = save_shard_checkpoint(
            tmp_path, plan, 0, np.zeros(plan.shard(0).n_pairs), fingerprint
        )
        restamp_format_version(path, 5)
        with pytest.raises(CheckpointError, match="format version 5, expected 6"):
            load_shard_checkpoint(tmp_path, plan, 0, fingerprint)

    def test_checkpoint_copied_to_another_shard_rejected(self, tmp_path):
        # Shards 1-3 own 45 pairs each, so only the shard-id stamp tells
        # shard 1's values from shard 2's.
        plan = ShardPlan.build(40, 6, 4)
        assert plan.shard(1).n_pairs == plan.shard(2).n_pairs
        path = save_shard_checkpoint(
            tmp_path, plan, 1, np.arange(plan.shard(1).n_pairs, dtype=float), "fp"
        )
        checkpoint_path(tmp_path, 2).write_bytes(path.read_bytes())
        with pytest.raises(CheckpointError, match="expected shard id 2, found 1"):
            load_shard_checkpoint(tmp_path, plan, 2, "fp")

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        signatures, plan, orchestrator = self.make(tmp_path)
        orchestrator.run(signatures)
        path = tmp_path / "ckpt" / "shard_00001.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_shard_checkpoint(
                tmp_path / "ckpt", plan, 1, EngineSettings().fingerprint()
            )

    def test_missing_checkpoint_reads_as_none(self, tmp_path):
        plan = ShardPlan.build(20, 6, 4)
        assert (
            load_shard_checkpoint(tmp_path, plan, 0, EngineSettings().fingerprint())
            is None
        )

    def test_save_validates_value_length(self, tmp_path):
        plan = ShardPlan.build(20, 6, 4)
        with pytest.raises(ValidationError):
            save_shard_checkpoint(tmp_path, plan, 0, np.zeros(3), "fp")

    def test_finished_shards_survive_a_later_failure(self, tmp_path, monkeypatch):
        # Checkpoints must be written as each shard finishes, not after
        # the whole run: a failure (or kill) in shard k leaves shards
        # 0 … k−1 on disk for the next run to resume.
        signatures, plan, _ = self.make(tmp_path)
        real_compute = PairwiseEMDEngine.compute_pairs
        calls = {"n": 0}

        def failing_compute(self, pairs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise SolverError("synthetic failure in the third shard")
            return real_compute(self, pairs)

        monkeypatch.setattr(PairwiseEMDEngine, "compute_pairs", failing_compute)
        failing = serial_orchestrator(plan, checkpoint_dir=tmp_path / "ckpt", max_retries=0)
        with pytest.raises(OrchestratorError) as excinfo:
            failing.run(signatures)
        assert isinstance(excinfo.value.__cause__, SolverError)
        monkeypatch.undo()
        assert len(list((tmp_path / "ckpt").glob("shard_*.npz"))) == 2
        resumed = serial_orchestrator(plan, checkpoint_dir=tmp_path / "ckpt")
        merged = resumed.run(signatures)
        assert resumed.n_shards_resumed == 2
        reference = PairwiseEMDEngine().banded_matrix(signatures, plan.bandwidth)
        assert np.nanmax(np.abs(merged.band - reference.band)) <= MERGE_TOL

    def test_checkpoint_dir_alone_engages_checkpointing(self, step_change_bags, tmp_path):
        from repro import BagChangePointDetector
        from repro.core import DetectorConfig

        config = DetectorConfig(
            tau=4,
            tau_test=4,
            signature_method="exact",
            n_bootstrap=40,
            random_state=0,
            shard_checkpoint_dir=tmp_path / "ckpt",
        )
        BagChangePointDetector(config).detect(step_change_bags)
        assert len(list((tmp_path / "ckpt").glob("shard_*.npz"))) == 1


# ---------------------------------------------------------------------- #
# Failure context
# ---------------------------------------------------------------------- #
class TestSolverErrorContext:
    def test_shard_context_attached(self, monkeypatch, tmp_path):
        signatures = histogram_signatures(12, seed=1)
        plan = ShardPlan.build(len(signatures), 4, 2)

        # An unattributed failure (no pair_indices): with pair_indices the
        # orchestrator would bisect and rescue the shard instead.
        def boom(self, pairs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(PairwiseEMDEngine, "compute_pairs", boom)
        orchestrator = serial_orchestrator(plan, max_retries=0)
        with pytest.raises(OrchestratorError) as excinfo:
            orchestrator.run(signatures)
        cause = excinfo.value.__cause__
        assert isinstance(cause, SolverError)
        assert cause.shard_id == 0
        spec = plan.shard(0)
        assert cause.shard_rows == (spec.row_start, spec.row_stop)
        assert cause.pair_indices is None
        assert "shard 0" in str(cause)


# ---------------------------------------------------------------------- #
# Detector integration
# ---------------------------------------------------------------------- #
class TestDetectorIntegration:
    def test_sharded_detect_matches_plain(self, step_change_bags):
        kwargs = dict(
            tau=4,
            tau_test=4,
            signature_method="exact",
            n_bootstrap=40,
            random_state=0,
        )
        plain = BagChangePointDetector(DetectorConfig(**kwargs)).detect(step_change_bags)
        sharded = BagChangePointDetector(
            DetectorConfig(n_shards=3, **kwargs)
        ).detect(step_change_bags)
        for a, b in zip(plain.points, sharded.points):
            assert a.score == b.score
            assert a.alert == b.alert

    @pytest.mark.parametrize("ground_distance", DISTINCT_GROUND_DISTANCES)
    def test_sharded_declared_grid_matches_plain(self, ground_distance):
        # Histograms on one declared grid share most of their bins, so the
        # metric ground distances match that mass in place before the LP.
        rng = np.random.default_rng(5)
        bags = [rng.normal(0.0 if t < 12 else 2.0, 1.0, size=(40, 2)) for t in range(24)]
        kwargs = dict(
            tau=4,
            tau_test=4,
            signature_method="histogram",
            bins=4,
            histogram_range=[(-3.0, 5.0), (-3.0, 5.0)],
            ground_distance=ground_distance,
            n_bootstrap=40,
            random_state=0,
        )
        plain = BagChangePointDetector(DetectorConfig(**kwargs)).detect(
            bags, return_distance_matrix=True
        )
        sharded = BagChangePointDetector(DetectorConfig(n_shards=3, **kwargs)).detect(
            bags, return_distance_matrix=True
        )
        assert np.max(np.abs(sharded.emd_matrix - plain.emd_matrix)) <= MERGE_TOL
        assert [p.time for p in plain.points] == [p.time for p in sharded.points]
        for a, b in zip(plain.points, sharded.points):
            assert abs(a.score - b.score) <= MERGE_TOL
            assert abs(a.interval.lower - b.interval.lower) <= MERGE_TOL
            assert abs(a.interval.upper - b.interval.upper) <= MERGE_TOL
            assert a.alert == b.alert

    def test_detect_writes_and_resumes_checkpoints(self, step_change_bags, tmp_path):
        config = DetectorConfig(
            tau=4,
            tau_test=4,
            signature_method="exact",
            n_bootstrap=40,
            random_state=0,
            n_shards=3,
            shard_checkpoint_dir=tmp_path / "ckpt",
        )
        first = BagChangePointDetector(config).detect(step_change_bags)
        assert len(list((tmp_path / "ckpt").glob("shard_*.npz"))) == 3
        second = BagChangePointDetector(config).detect(step_change_bags)
        for a, b in zip(first.points, second.points):
            assert a.score == b.score


# ---------------------------------------------------------------------- #
# Crash-resume property (PR 7): a build killed at a random seeded point
# and resumed must merge to the identical band.
# ---------------------------------------------------------------------- #
@pytest.mark.faults
class TestCrashResumeProperty:
    @pytest.mark.parametrize("ground_distance", DISTINCT_GROUND_DISTANCES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_killed_build_resumes_to_parity(self, tmp_path, ground_distance, seed):
        from repro.testing import inject_worker_crash

        signatures = histogram_signatures(20, seed=13)
        bandwidth = 6
        plan = ShardPlan.build(len(signatures), bandwidth, 4)
        reference = PairwiseEMDEngine(ground_distance=ground_distance).banded_matrix(
            signatures, bandwidth
        )
        settings = EngineSettings(ground_distance=ground_distance)
        # Kill the build at a seeded-random pair with no retry budget;
        # shards finished before it leave their checkpoints behind.
        kill_at = int(np.random.default_rng(seed).integers(plan.n_pairs))
        killed = serial_orchestrator(
            plan, settings, checkpoint_dir=tmp_path / "ckpt", max_retries=0
        )
        with inject_worker_crash(at_pair=kill_at, times=1):
            with pytest.raises(OrchestratorError, match="crashed"):
                killed.run(signatures)
        n_saved = len(list((tmp_path / "ckpt").glob("shard_*.npz")))
        assert n_saved < plan.n_shards
        # The resumed build picks up the survivors and matches exactly.
        resumed = serial_orchestrator(plan, settings, checkpoint_dir=tmp_path / "ckpt")
        merged = resumed.run(signatures)
        assert resumed.n_shards_resumed == n_saved
        assert np.nanmax(np.abs(merged.band - reference.band)) <= MERGE_TOL

    def test_killed_process_build_resumes_to_parity(self, tmp_path):
        # A worker process dies with no retry budget: the shards that
        # finished before it are checkpointed, and a resumed process-mode
        # build computes only the rest.
        from repro.testing import inject_worker_crash

        signatures = histogram_signatures(16, seed=7)
        # Only the last shard owns more than 12 pairs (12, 12, 30), so the
        # crash hits it after the first two finished.
        plan = ShardPlan(len(signatures), 5, (0, 3, 6, 16))
        reference = PairwiseEMDEngine().banded_matrix(signatures, 5)
        ckpt = tmp_path / "ckpt"
        killed = ShardOrchestrator(
            plan,
            policy=RetryPolicy(max_retries=0),
            mode="process",
            n_workers=1,
            checkpoint_dir=ckpt,
        )
        with inject_worker_crash(at_pair=12, hard=True, sentinel=tmp_path / "die"):
            with pytest.raises(OrchestratorError, match="shard 2"):
                killed.run(signatures)
        assert len(list(ckpt.glob("shard_*.npz"))) == 2
        resumed = ShardOrchestrator(plan, mode="process", n_workers=2, checkpoint_dir=ckpt)
        merged = resumed.run(signatures)
        assert (resumed.n_shards_resumed, resumed.n_shards_computed) == (2, 1)
        assert np.nanmax(np.abs(merged.band - reference.band)) <= MERGE_TOL

    @pytest.mark.parametrize("seed", [3, 4])
    def test_orchestrator_retries_instead_of_dying(self, tmp_path, seed):
        # Same fault, orchestrated build: no manual resume needed — the
        # crash is absorbed by the retry queue within one run.
        from repro.emd.orchestrator import ShardOrchestrator
        from repro.testing import FakeClock, inject_worker_crash

        signatures = histogram_signatures(20, seed=13)
        plan = ShardPlan.build(len(signatures), 6, 4)
        reference = PairwiseEMDEngine().banded_matrix(signatures, 6)
        kill_at = int(np.random.default_rng(seed).integers(plan.n_pairs))
        clock = FakeClock()
        orchestrator = ShardOrchestrator(
            plan,
            EngineSettings(),
            mode="serial",
            n_workers=4,
            checkpoint_dir=tmp_path / "ckpt",
            clock=clock,
            sleep=clock.sleep,
        )
        with inject_worker_crash(at_pair=kill_at, times=1):
            merged = orchestrator.run(signatures)
        assert orchestrator.n_retries == 1
        assert np.nanmax(np.abs(merged.band - reference.band)) <= MERGE_TOL


# ---------------------------------------------------------------------- #
# Shared-memory hygiene (PR 7 bugfix): no segment may outlive the run,
# not even when construction fails halfway or a worker dies mid-shard.
# ---------------------------------------------------------------------- #
@pytest.mark.faults
class TestSharedMemoryCleanup:
    @staticmethod
    def shm_segments():
        import os

        try:
            return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
        except FileNotFoundError:  # non-Linux: nothing observable
            return set()

    def test_partial_store_construction_leaks_nothing(self, monkeypatch):
        from multiprocessing import shared_memory

        from repro.emd.sharding import _SharedSignatureStore

        before = self.shm_segments()
        real = shared_memory.SharedMemory
        calls = {"n": 0}

        def failing(*args, **kwargs):
            if kwargs.get("create") or (args and args[0] is None):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise OSError("synthetic /dev/shm exhaustion on block 3")
            return real(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", failing)
        with pytest.raises(OSError, match="block 3"):
            _SharedSignatureStore(histogram_signatures(8))
        monkeypatch.undo()
        assert self.shm_segments() == before

    def test_orchestrator_worker_death_leaks_nothing(self, tmp_path):
        from repro.emd.orchestrator import ShardOrchestrator
        from repro.testing import inject_worker_crash

        signatures = histogram_signatures(16, seed=7)
        plan = ShardPlan.build(len(signatures), 5, 3)
        reference = PairwiseEMDEngine().banded_matrix(signatures, 5)
        before = self.shm_segments()
        orchestrator = ShardOrchestrator(
            plan, EngineSettings(), mode="process", n_workers=2
        )
        with inject_worker_crash(at_pair=0, hard=True, sentinel=tmp_path / "die"):
            merged = orchestrator.run(signatures)
        assert orchestrator.n_retries >= 1
        assert self.shm_segments() == before
        assert np.nanmax(np.abs(merged.band - reference.band)) <= MERGE_TOL


# ---------------------------------------------------------------------- #
# Checkpoint diagnostics (PR 7 bugfix): stale/corrupt rejections name
# the expected AND the found value, so the operator can tell a renamed
# directory from a genuinely different configuration.
# ---------------------------------------------------------------------- #
class TestCheckpointDiagnostics:
    def write_one(self, tmp_path, plan, fingerprint="fp"):
        values = np.linspace(0.0, 1.0, plan.shard(0).n_pairs)
        save_shard_checkpoint(tmp_path, plan, 0, values, fingerprint)
        return values

    def test_plan_mismatch_reports_both_hashes(self, tmp_path):
        plan = ShardPlan.build(20, 6, 4)
        other = ShardPlan.build(20, 6, 5)
        self.write_one(tmp_path, plan)
        with pytest.raises(CheckpointError) as excinfo:
            load_shard_checkpoint(tmp_path, other, 0, "fp")
        message = str(excinfo.value)
        assert f"expected plan hash {other.plan_hash()}" in message
        assert f"found {plan.plan_hash()}" in message

    def test_fingerprint_mismatch_reports_both(self, tmp_path):
        plan = ShardPlan.build(20, 6, 4)
        self.write_one(tmp_path, plan, fingerprint="written-under-this")
        with pytest.raises(CheckpointError) as excinfo:
            load_shard_checkpoint(tmp_path, plan, 0, "expected-this")
        message = str(excinfo.value)
        assert "expected fingerprint expected-this" in message
        assert "found written-under-this" in message

    def test_tampered_payload_reports_both_checksums(self, tmp_path):
        from repro._artifacts import payload_checksum
        from repro.testing import tamper_payload

        def _values_checksum(values):
            return payload_checksum({"values": values})

        plan = ShardPlan.build(20, 6, 4)
        values = self.write_one(tmp_path, plan)
        tamper_payload(checkpoint_path(tmp_path, 0), key="values", delta=0.25)
        with pytest.raises(CheckpointError) as excinfo:
            load_shard_checkpoint(tmp_path, plan, 0, "fp")
        message = str(excinfo.value)
        assert f"expected payload checksum {_values_checksum(values)}" in message
        tampered = values.copy()
        tampered[0] += 0.25
        assert f"found {_values_checksum(tampered)}" in message

"""Tests for the banded EMD engine and offline/online detector parity.

The parity tests follow the skchange change-detector test idiom: one
parametrized test per invariant, run across the detector family
(score x weighting variants), asserting that the banded/incremental
machinery is observationally identical to the reference computation.
"""

import numpy as np
import pytest

from repro.core import (
    BagChangePointDetector,
    DetectorConfig,
    OnlineBagDetector,
    WindowDistances,
    compute_score,
    score_likelihood_ratio,
)
from repro.emd import (
    BandedDistanceMatrix,
    PairwiseEMDEngine,
    emd,
    emd_matrix,
)
from repro.emd.one_dimensional import wasserstein_1d
from repro.exceptions import ConfigurationError, ValidationError
from repro.signatures import Signature

detector_variants = [
    {"score": "kl", "weighting": "uniform"},
    {"score": "kl", "weighting": "discounted"},
    {"score": "lr", "weighting": "uniform"},
    {"score": "lr", "weighting": "discounted"},
]


def make_signatures(rng, n=12, size=8, dim=2, offset_after=None):
    sigs = []
    for i in range(n):
        offset = 3.0 if offset_after is not None and i >= offset_after else 0.0
        sigs.append(
            Signature(rng.normal(offset, 1.0, size=(size, dim)), np.ones(size), label=i)
        )
    return sigs


class TestBandedDistanceMatrix:
    def test_set_get_roundtrip_symmetric(self):
        banded = BandedDistanceMatrix(6, 3)
        banded[1, 2] = 4.5
        assert banded[1, 2] == 4.5
        assert banded[2, 1] == 4.5

    def test_diagonal_is_zero(self):
        banded = BandedDistanceMatrix(4, 2)
        assert banded[2, 2] == 0.0

    def test_diagonal_write_rejected(self):
        banded = BandedDistanceMatrix(4, 2)
        with pytest.raises(ValidationError):
            banded[1, 1] = 1.0

    def test_out_of_band_access_rejected(self):
        banded = BandedDistanceMatrix(6, 3)
        with pytest.raises(ValidationError):
            banded[0, 3]
        with pytest.raises(ValidationError):
            banded[0, 3] = 1.0

    def test_out_of_range_rejected(self):
        banded = BandedDistanceMatrix(4, 2)
        with pytest.raises(ValidationError):
            banded[0, 4]

    def test_block_outside_band_rejected(self):
        banded = BandedDistanceMatrix(10, 3)
        with pytest.raises(ValidationError):
            banded.block([0, 1], [4, 5])

    def test_storage_is_linear_in_n(self):
        banded = BandedDistanceMatrix(1000, 11)
        assert banded.band.shape == (1000, 10)
        dense_bytes = 1000 * 1000 * 8
        assert banded.nbytes < dense_bytes / 10

    def test_from_dense_to_dense_roundtrip(self, rng):
        sym = rng.uniform(1, 2, size=(7, 7))
        sym = (sym + sym.T) / 2.0
        np.fill_diagonal(sym, 0.0)
        banded = BandedDistanceMatrix.from_dense(sym, 3)
        dense = banded.to_dense()
        for i in range(7):
            for j in range(7):
                expected = sym[i, j] if abs(i - j) < 3 else 0.0
                assert dense[i, j] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n,bandwidth", [(1, 2), (5, 2), (8, 3), (6, 10), (10, 10)])
    def test_pair_indices_match_reference_loop(self, n, bandwidth):
        banded = BandedDistanceMatrix(n, bandwidth)
        i, j = banded.pair_indices()
        expected = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, min(n, a + bandwidth))
        ]
        assert list(zip(i.tolist(), j.tolist())) == expected

    def test_pair_indices_are_all_in_band(self):
        banded = BandedDistanceMatrix(9, 4)
        i, j = banded.pair_indices()
        assert np.all(j > i)
        assert np.all(j - i < banded.bandwidth)
        # Count matches the closed form summed per row.
        assert i.size == sum(min(9, a + 4) - (a + 1) for a in range(9))

    def test_window_matches_dense_blocks(self, rng):
        sigs = make_signatures(rng, n=10)
        dense = emd_matrix(sigs)
        banded = BandedDistanceMatrix.from_dense(dense, 6)
        ref, test, cross = banded.window(2, 3, 3)
        ref_idx, test_idx = np.arange(2, 5), np.arange(5, 8)
        assert np.allclose(ref, dense[np.ix_(ref_idx, ref_idx)], atol=1e-12)
        assert np.allclose(test, dense[np.ix_(test_idx, test_idx)], atol=1e-12)
        assert np.allclose(cross, dense[np.ix_(ref_idx, test_idx)], atol=1e-12)


class TestPairwiseEMDEngine:
    def test_matches_scalar_emd_general_path(self, rng):
        sigs = make_signatures(rng, n=6)
        engine = PairwiseEMDEngine()
        pairs = [(sigs[i], sigs[j]) for i in range(6) for j in range(i + 1, 6)]
        values = engine.compute_pairs(pairs)
        expected = [emd(a, b) for a, b in pairs]
        assert np.allclose(values, expected, atol=1e-10)
        assert engine.n_evaluations == len(pairs)
        assert engine.n_fast_path == 0  # 2-D signatures take the LP path

    def test_vectorised_1d_fast_path_matches_oracle(self, rng):
        sigs = [
            Signature(rng.normal(size=(k, 1)), rng.uniform(0.5, 2.0, k)).normalized()
            for k in (5, 8, 6, 7, 9)
        ]
        engine = PairwiseEMDEngine()
        pairs = [(sigs[i], sigs[j]) for i in range(5) for j in range(i + 1, 5)]
        values = engine.compute_pairs(pairs)
        expected = [
            wasserstein_1d(a.positions[:, 0], a.weights, b.positions[:, 0], b.weights)
            for a, b in pairs
        ]
        assert np.allclose(values, expected, atol=1e-10)
        assert engine.n_fast_path == len(pairs)

    def test_fast_path_disabled_for_explicit_backend(self, rng):
        sigs = [
            Signature(rng.normal(size=(5, 1)), np.ones(5)) for _ in range(3)
        ]
        engine = PairwiseEMDEngine(backend="linprog")
        engine.compute_pairs([(sigs[0], sigs[1]), (sigs[1], sigs[2])])
        assert engine.n_fast_path == 0

    @pytest.mark.parametrize("parallel_backend", ["thread", "process"])
    def test_parallel_backends_match_serial(self, rng, parallel_backend):
        # The pool serves only the per-pair backends.
        sigs = make_signatures(rng, n=8)
        serial = PairwiseEMDEngine(backend="linprog").banded_matrix(sigs, 4)
        with PairwiseEMDEngine(
            backend="linprog", parallel_backend=parallel_backend, n_workers=2
        ) as engine:
            parallel = engine.banded_matrix(sigs, 4)
        assert np.allclose(serial.to_dense(), parallel.to_dense(), atol=1e-10)

    def test_invalid_parallel_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            PairwiseEMDEngine(parallel_backend="gpu")

    def test_empty_pair_batch(self):
        assert PairwiseEMDEngine().compute_pairs([]).size == 0


class TestEngineLifecycle:
    def test_pool_persists_across_batches(self, rng):
        sigs = make_signatures(rng, n=6)
        pairs = [(sigs[i], sigs[i + 1]) for i in range(5)]
        engine = PairwiseEMDEngine(backend="linprog", parallel_backend="thread", n_workers=2)
        engine.compute_pairs(pairs)
        first_pool = engine._pool
        assert first_pool is not None
        engine.compute_pairs(pairs)
        assert engine._pool is first_pool
        engine.close()

    def test_close_shuts_down_pool_and_blocks_reuse(self, rng):
        sigs = make_signatures(rng, n=4)
        engine = PairwiseEMDEngine(backend="linprog", parallel_backend="thread", n_workers=2)
        engine.compute_pairs([(sigs[0], sigs[1]), (sigs[1], sigs[2])])
        engine.close()
        assert engine.closed
        with pytest.raises(ConfigurationError):
            engine.compute_pairs([(sigs[0], sigs[1])])
        with pytest.raises(ConfigurationError):
            engine.compute(sigs[0], sigs[1])
        engine.close()  # idempotent

    def test_serial_engine_close_blocks_reuse(self, rng):
        sigs = make_signatures(rng, n=3)
        engine = PairwiseEMDEngine()
        engine.close()
        with pytest.raises(ConfigurationError):
            engine.compute_pairs([(sigs[0], sigs[1])])

    def test_context_manager_closes_on_exit(self, rng):
        sigs = make_signatures(rng, n=4)
        with PairwiseEMDEngine(backend="linprog", parallel_backend="thread", n_workers=2) as engine:
            values = engine.compute_pairs([(sigs[0], sigs[1]), (sigs[2], sigs[3])])
            assert values.shape == (2,)
        assert engine.closed
        with pytest.raises(ConfigurationError):
            engine.compute_pairs([(sigs[0], sigs[1])])

    def test_entering_closed_engine_rejected(self):
        engine = PairwiseEMDEngine()
        engine.close()
        with pytest.raises(ConfigurationError):
            engine.__enter__()

    def test_computation_errors_propagate_and_leave_pool_alive(self, rng, monkeypatch):
        from repro.emd import batch as batch_mod
        from repro.exceptions import SolverError

        sigs = make_signatures(rng, n=4)
        pairs = [(sigs[0], sigs[1]), (sigs[1], sigs[2])]
        engine = PairwiseEMDEngine(backend="linprog", parallel_backend="thread", n_workers=2)
        engine.compute_pairs(pairs)
        pool = engine._pool

        def failing_pair(args):
            raise SolverError("LP failed")

        monkeypatch.setattr(batch_mod, "_emd_pair", failing_pair)
        with pytest.raises(SolverError):
            engine.compute_pairs(pairs)
        # A solver failure is not a pool failure: parallelism stays on.
        assert engine._pool is pool
        assert not engine._pool_failed

        def type_error_pair(args):
            raise TypeError("bad callable ground distance")

        monkeypatch.setattr(batch_mod, "_emd_pair", type_error_pair)
        # Thread pools never pickle, so a TypeError is a computation error
        # there too and must not retire the pool.
        with pytest.raises(TypeError):
            engine.compute_pairs(pairs)
        assert engine._pool is pool
        assert not engine._pool_failed
        monkeypatch.undo()
        assert engine.compute_pairs(pairs).shape == (2,)
        engine.close()

    def test_thread_spawn_failure_falls_back_to_serial(self, rng, monkeypatch):
        sigs = make_signatures(rng, n=4)
        pairs = [(sigs[0], sigs[1]), (sigs[1], sigs[2])]
        engine = PairwiseEMDEngine(backend="linprog", parallel_backend="thread", n_workers=2)
        engine.compute_pairs(pairs)  # create the pool
        # Executors spawn workers lazily at submit; emulate a thread-capped
        # environment where map itself fails.
        def failing_map(*args, **kwargs):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(engine._pool, "map", failing_map)
        values = engine.compute_pairs(pairs)
        assert values.shape == (2,)
        assert engine._pool_failed and engine._pool is None
        # Later batches keep working serially.
        assert engine.compute_pairs(pairs).shape == (2,)
        engine.close()

    def test_detectors_close_their_engine(self, rng):
        bags = [rng.normal(0, 1, size=(10, 2)) for _ in range(8)]
        kwargs = dict(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=20, random_state=0
        )
        with BagChangePointDetector(**kwargs) as detector:
            detector.detect(bags)
        with pytest.raises(ConfigurationError):
            detector.detect(bags)
        detector.close()  # idempotent

        online = OnlineBagDetector(**kwargs)
        online.push(bags[0])
        online.close()
        with pytest.raises(ConfigurationError):
            online.push(bags[1])

    def test_failed_online_push_is_retryable(self, rng, monkeypatch):
        from repro.exceptions import SolverError

        bags = [rng.normal(0, 1, size=(12, 2)) for _ in range(10)]
        kwargs = dict(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=20, random_state=0
        )
        clean = OnlineBagDetector(**kwargs)
        for bag in bags:
            clean.push(bag)

        detector = OnlineBagDetector(**kwargs)
        for bag in bags[:5]:
            detector.push(bag)
        seen_before = detector.n_seen
        matrix_before = detector._window_matrix.copy()

        def failing_pairs(pairs):
            raise SolverError("LP failed")

        monkeypatch.setattr(detector._engine, "compute_pairs", failing_pairs)
        with pytest.raises(SolverError):
            detector.push(bags[5])
        monkeypatch.undo()
        # The failed push mutated nothing: the detector is retryable and
        # the resumed stream matches an uninterrupted run bit-for-bit.
        assert detector.n_seen == seen_before
        np.testing.assert_array_equal(detector._window_matrix, matrix_before)
        for bag in bags[5:]:
            detector.push(bag)
        assert len(detector.history.points) == len(clean.history.points)
        for a, b in zip(detector.history.points, clean.history.points):
            assert a.time == b.time
            assert a.score == b.score
            assert a.interval.lower == b.interval.lower


class TestGroundDistanceCache:
    def make_common_support_signatures(self, rng, n=6, k=5, dim=2):
        support = rng.normal(size=(k, dim))
        return [
            Signature(support, rng.uniform(0.5, 2.0, size=k), label=i) for i in range(n)
        ]

    def test_common_support_pairs_hit_cache(self, rng):
        sigs = self.make_common_support_signatures(rng)
        pairs = [(sigs[i], sigs[j]) for i in range(6) for j in range(i + 1, 6)]
        engine = PairwiseEMDEngine(backend="linprog")
        values = engine.compute_pairs(pairs)
        # One build for the shared support, every other pair reuses it.
        assert engine.n_cost_cache_hits == len(pairs) - 1
        expected = [emd(a, b) for a, b in pairs]
        assert np.allclose(values, expected, atol=1e-12)

    def test_distinct_supports_do_not_hit_cache(self, rng):
        sigs = make_signatures(rng, n=5)  # independent supports per bag
        engine = PairwiseEMDEngine(backend="linprog")
        engine.compute_pairs([(sigs[i], sigs[i + 1]) for i in range(4)])
        assert engine.n_cost_cache_hits == 0

    def test_cache_engages_for_in_process_process_backend(self, rng):
        # parallel_backend="process" with one worker never spawns a pool,
        # so execution is in-process and the cache should still be shared.
        sigs = self.make_common_support_signatures(rng, n=4)
        engine = PairwiseEMDEngine(backend="linprog", parallel_backend="process", n_workers=1)
        pairs = [(sigs[i], sigs[j]) for i in range(4) for j in range(i + 1, 4)]
        values = engine.compute_pairs(pairs)
        assert engine.n_cost_cache_hits == len(pairs) - 1
        assert np.allclose(values, [emd(a, b) for a, b in pairs], atol=1e-12)
        engine.close()

    def test_process_pool_worker_cache_matches_serial(self, rng):
        # Process jobs ship no cost matrix; each worker builds the shared
        # common-support matrix once (module-level per-worker cache) and
        # must produce the same distances as the serial cached path.
        sigs = self.make_common_support_signatures(rng, n=6)
        pairs = [(sigs[i], sigs[j]) for i in range(6) for j in range(i + 1, 6)]
        serial = PairwiseEMDEngine(backend="linprog").compute_pairs(pairs)
        with PairwiseEMDEngine(backend="linprog", parallel_backend="process", n_workers=2) as engine:
            parallel = engine.compute_pairs(pairs)
        assert np.allclose(serial, parallel, atol=1e-10)

    def test_worker_cache_builds_cost_once_in_process(self, rng):
        # Exercise the worker-side branch of _emd_pair directly (it runs
        # in this process, so the module-level cache is observable).
        from repro.emd import batch as batch_mod

        sigs = self.make_common_support_signatures(rng, n=3)
        batch_mod._worker_cost_cache.clear()
        jobs = [
            (a, b, "euclidean", "linprog", None, True)
            for a, b in [(sigs[0], sigs[1]), (sigs[1], sigs[2])]
        ]
        values = [batch_mod._emd_pair(job) for job in jobs]
        assert len(batch_mod._worker_cost_cache) == 1
        expected = [emd(sigs[0], sigs[1]), emd(sigs[1], sigs[2])]
        assert np.allclose(values, expected, atol=1e-12)
        batch_mod._worker_cost_cache.clear()

    def test_cache_persists_across_batches(self, rng):
        sigs = self.make_common_support_signatures(rng, n=4)
        engine = PairwiseEMDEngine(backend="linprog")
        engine.compute_pairs([(sigs[0], sigs[1])])
        assert engine.n_cost_cache_hits == 0
        engine.compute_pairs([(sigs[2], sigs[3])])
        assert engine.n_cost_cache_hits == 1

    def test_cache_with_simplex_backend_matches(self, rng):
        sigs = self.make_common_support_signatures(rng, n=3)
        engine = PairwiseEMDEngine(backend="simplex")
        values = engine.compute_pairs([(sigs[0], sigs[1]), (sigs[1], sigs[2])])
        expected = [emd(a, b, backend="simplex") for a, b in
                    [(sigs[0], sigs[1]), (sigs[1], sigs[2])]]
        assert np.allclose(values, expected, atol=1e-12)
        assert engine.n_cost_cache_hits == 1

    def test_invalid_backend_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            PairwiseEMDEngine(backend="Simplex")  # typo: case-sensitive
        with pytest.raises(ConfigurationError):
            PairwiseEMDEngine(backend="sinkhorn")  # not a backend name
        with pytest.raises(ConfigurationError):
            PairwiseEMDEngine(backend="sinkhorn_batch")  # removed backend

    def test_histogram_detector_uses_cache(self, rng):
        # Histogram signatures over a fixed range share one bin-centre grid
        # whenever all bins are occupied, which is the workload the cache
        # is for; verify end-to-end through the banded matrix build.
        sigs = self.make_common_support_signatures(rng, n=8, k=4, dim=1)
        engine = PairwiseEMDEngine(backend="linprog")  # force the LP path in 1-D
        engine.banded_matrix(sigs, 4)
        assert engine.n_cost_cache_hits > 0


class TestFromDenseVectorised:
    def test_matches_per_pair_extraction(self, rng):
        sym = rng.uniform(1, 2, size=(9, 9))
        sym = (sym + sym.T) / 2.0
        np.fill_diagonal(sym, 0.0)
        for bandwidth in (2, 4, 9, 15):  # including bandwidth > n
            banded = BandedDistanceMatrix.from_dense(sym, bandwidth)
            reference = BandedDistanceMatrix(9, bandwidth)
            for i, j in zip(*reference.pair_indices()):
                reference[i, j] = sym[i, j]
            np.testing.assert_array_equal(
                banded.band, reference.band
            )

    def test_roundtrip_with_bandwidth_wider_than_matrix(self, rng):
        sym = rng.uniform(1, 2, size=(5, 5))
        sym = (sym + sym.T) / 2.0
        np.fill_diagonal(sym, 0.0)
        dense = BandedDistanceMatrix.from_dense(sym, 12).to_dense()
        np.testing.assert_allclose(dense, sym, atol=1e-12)


class TestBandedVsDense:
    @pytest.mark.parametrize("bandwidth", [3, 5, 11])
    def test_band_agrees_with_dense_matrix(self, rng, bandwidth):
        sigs = make_signatures(rng, n=11, offset_after=6)
        dense = emd_matrix(sigs)
        banded = PairwiseEMDEngine().banded_matrix(sigs, bandwidth)
        exported = banded.to_dense()
        n = len(sigs)
        for i in range(n):
            for j in range(n):
                if abs(i - j) < bandwidth:
                    assert exported[i, j] == pytest.approx(dense[i, j], abs=1e-10)
                else:
                    assert exported[i, j] == 0.0

    def test_band_computes_only_band_pairs(self, rng):
        sigs = make_signatures(rng, n=20)
        engine = PairwiseEMDEngine()
        engine.banded_matrix(sigs, 5)
        expected = sum(min(20, i + 5) - (i + 1) for i in range(20))
        assert engine.n_evaluations == expected

    def test_detect_returns_symmetric_dense_export(self, rng):
        bags = [rng.normal(size=(20, 2)) for _ in range(10)]
        config = DetectorConfig(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=20, random_state=0
        )
        result = BagChangePointDetector(config).detect(bags, return_distance_matrix=True)
        assert result.emd_matrix.shape == (10, 10)
        assert np.allclose(result.emd_matrix, result.emd_matrix.T)


class TestOfflineOnlineParity:
    @pytest.mark.parametrize("variant", detector_variants)
    def test_identical_score_point_sequences(self, rng, variant):
        """Same bags => identical ScorePoint sequences, field by field."""
        bags = [rng.normal(0, 1, size=(15, 2)) for _ in range(7)]
        bags += [rng.normal(3, 1, size=(15, 2)) for _ in range(7)]
        cfg = dict(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=30,
            random_state=7, **variant,
        )
        offline = BagChangePointDetector(DetectorConfig(**cfg)).detect(bags)
        online_points = OnlineBagDetector(DetectorConfig(**cfg)).push_many(bags)
        assert len(online_points) == len(offline.points)
        for off, on in zip(offline.points, online_points):
            assert off.time == on.time
            assert off.score == pytest.approx(on.score, abs=1e-10)
            assert off.interval.lower == pytest.approx(on.interval.lower, abs=1e-10)
            assert off.interval.upper == pytest.approx(on.interval.upper, abs=1e-10)
            if np.isnan(off.gamma):
                assert np.isnan(on.gamma)
            else:
                assert off.gamma == pytest.approx(on.gamma, abs=1e-10)
            assert off.alert == on.alert

    def test_parity_with_1d_fast_path(self, rng):
        bags = [rng.normal(0, 1, size=(12, 1)) for _ in range(6)]
        bags += [rng.normal(4, 1, size=(12, 1)) for _ in range(6)]
        cfg = dict(
            tau=3, tau_test=3, signature_method="histogram", bins=16,
            histogram_range=(-6.0, 10.0), n_bootstrap=20, random_state=1,
        )
        offline = BagChangePointDetector(DetectorConfig(**cfg)).detect(bags)
        online_points = OnlineBagDetector(DetectorConfig(**cfg)).push_many(bags)
        for off, on in zip(offline.points, online_points):
            assert off.score == pytest.approx(on.score, abs=1e-10)

    def test_online_push_cost_is_exactly_span_minus_one(self, rng):
        """After warm-up each push performs exactly tau + tau' - 1 EMDs."""
        config = DetectorConfig(
            tau=3, tau_test=4, signature_method="exact", n_bootstrap=20, random_state=0
        )
        detector = OnlineBagDetector(config)
        span = config.window_span
        previous = 0
        for k in range(3 * span):
            detector.push(rng.normal(size=(10, 2)))
            delta = detector.n_distance_evaluations - previous
            previous = detector.n_distance_evaluations
            assert delta == min(k, span - 1)


class TestInspectionIndexPlumbing:
    def _window(self, rng):
        ref = [Signature(rng.normal(0, 1, size=(8, 2)), np.ones(8)) for _ in range(3)]
        test = [Signature(rng.normal(2, 1, size=(8, 2)), np.ones(8)) for _ in range(3)]
        from repro.emd import cross_emd_matrix

        return WindowDistances(
            ref_pairwise=emd_matrix(ref),
            test_pairwise=emd_matrix(test),
            cross=cross_emd_matrix(ref, test),
        )

    def test_compute_score_forwards_inspection_index(self, rng):
        window = self._window(rng)
        weights = np.full(3, 1.0 / 3.0)
        for k in range(3):
            via_dispatch = compute_score(
                "lr", window, weights, weights, inspection_index=k
            )
            direct = score_likelihood_ratio(
                window, weights, weights, inspection_index=k
            )
            assert via_dispatch == pytest.approx(direct, abs=1e-12)

    def test_detector_uses_configured_index(self, rng):
        bags = [rng.normal(0, 1, size=(15, 2)) for _ in range(6)]
        bags += [rng.normal(3, 1, size=(15, 2)) for _ in range(6)]
        base = dict(
            tau=3, tau_test=3, score="lr", signature_method="exact",
            n_bootstrap=20, random_state=0,
        )
        default = BagChangePointDetector(DetectorConfig(**base)).detect(bags)
        shifted = BagChangePointDetector(
            DetectorConfig(lr_inspection_index=2, **base)
        ).detect(bags)
        assert not np.allclose(default.scores, shifted.scores)

    def test_invalid_index_rejected(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(tau_test=3, lr_inspection_index=3)
        with pytest.raises(ConfigurationError):
            DetectorConfig(lr_inspection_index=-1)


class TestEngineConfigValidation:
    def test_invalid_parallel_backend_in_config(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(parallel_backend="gpu")

    def test_invalid_worker_count_in_config(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(n_workers=0)

    def test_threaded_detector_matches_serial(self, rng):
        bags = [rng.normal(0, 1, size=(12, 2)) for _ in range(10)]
        base = dict(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=20, random_state=4
        )
        serial = BagChangePointDetector(DetectorConfig(**base)).detect(bags)
        threaded = BagChangePointDetector(
            DetectorConfig(parallel_backend="thread", n_workers=2, **base)
        ).detect(bags)
        assert np.allclose(serial.scores, threaded.scores, atol=1e-10)

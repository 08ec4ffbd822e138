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
from repro.exceptions import ConfigurationError, SolverError, ValidationError
from repro.signatures import Signature

detector_variants = [
    {"score": "kl", "weighting": "uniform"},
    {"score": "kl", "weighting": "discounted"},
    {"score": "lr", "weighting": "uniform"},
    {"score": "lr", "weighting": "discounted"},
]


def _square(x):
    """Module-level pool job: process pools pickle it by name."""
    return x * x


def _fail_solver(x):
    raise SolverError(f"LP failed on job {x}")


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

    def test_process_backend_matches_serial(self, rng):
        # Mixed support sizes give several stacked chunks, so the band
        # really reaches the pool.
        sigs = [
            Signature(rng.normal(size=(k, 2)), np.ones(k), label=i)
            for i, k in enumerate([3, 4, 5, 3, 4, 5, 3, 4])
        ]
        serial = PairwiseEMDEngine().banded_matrix(sigs, 4)
        with PairwiseEMDEngine(parallel_backend="process", n_workers=2) as engine:
            parallel = engine.banded_matrix(sigs, 4)
            assert engine._pool is not None
        assert np.allclose(serial.to_dense(), parallel.to_dense(), atol=1e-10)

    @pytest.mark.parametrize("parallel_backend", ["gpu", "thread"])
    def test_invalid_parallel_backend_rejected(self, parallel_backend):
        with pytest.raises(ConfigurationError):
            PairwiseEMDEngine(parallel_backend=parallel_backend)

    @pytest.mark.parametrize("backend", ["auto", "linprog", "Simplex"])
    def test_backend_is_not_an_engine_parameter(self, backend):
        # The engine has one route; per-pair solvers are emd(backend=...).
        with pytest.raises(TypeError):
            PairwiseEMDEngine(backend=backend)

    def test_empty_pair_batch(self):
        assert PairwiseEMDEngine().compute_pairs([]).size == 0


class TestEngineLifecycle:
    def test_pool_persists_across_batches(self):
        engine = PairwiseEMDEngine(parallel_backend="process", n_workers=2)
        assert engine.map(_square, [1, 2, 3]) == [1, 4, 9]
        first_pool = engine._pool
        assert first_pool is not None
        assert engine.map(_square, [4, 5]) == [16, 25]
        assert engine._pool is first_pool
        engine.close()

    def test_close_shuts_down_pool_and_blocks_reuse(self, rng):
        sigs = make_signatures(rng, n=4)
        engine = PairwiseEMDEngine(parallel_backend="process", n_workers=2)
        engine.map(_square, [1, 2])
        assert engine._pool is not None
        engine.close()
        assert engine.closed and engine._pool is None
        with pytest.raises(ConfigurationError):
            engine.compute_pairs([(sigs[0], sigs[1])])
        with pytest.raises(ConfigurationError):
            engine.compute(sigs[0], sigs[1])
        with pytest.raises(ConfigurationError):
            engine.map(_square, [1, 2])
        engine.close()  # idempotent

    def test_serial_engine_close_blocks_reuse(self, rng):
        sigs = make_signatures(rng, n=3)
        engine = PairwiseEMDEngine()
        engine.close()
        with pytest.raises(ConfigurationError):
            engine.compute_pairs([(sigs[0], sigs[1])])

    def test_context_manager_closes_on_exit(self, rng):
        sigs = make_signatures(rng, n=4)
        with PairwiseEMDEngine(parallel_backend="process", n_workers=2) as engine:
            assert engine.map(_square, [2, 3]) == [4, 9]
            assert engine._pool is not None
        assert engine.closed and engine._pool is None
        with pytest.raises(ConfigurationError):
            engine.compute_pairs([(sigs[0], sigs[1])])

    def test_entering_closed_engine_rejected(self):
        engine = PairwiseEMDEngine()
        engine.close()
        with pytest.raises(ConfigurationError):
            engine.__enter__()

    def test_computation_errors_propagate_and_leave_pool_alive(self):
        engine = PairwiseEMDEngine(parallel_backend="process", n_workers=2)
        engine.map(_square, [1, 2])
        pool = engine._pool
        with pytest.raises(SolverError, match="LP failed"):
            engine.map(_fail_solver, [1, 2])
        # A solver failure is not a pool failure: parallelism stays on.
        assert engine._pool is pool
        assert not engine._pool_failed
        assert engine.map(_square, [3, 4]) == [9, 16]
        engine.close()

    def test_unpicklable_jobs_run_serially_and_keep_the_pool(self, rng):
        # A process pool cannot pickle a lambda ground distance; that batch
        # runs in-process and the pool stays up for picklable work.
        from repro.emd import cross_distance_matrix

        sigs = [
            Signature(rng.normal(size=(k, 2)), np.ones(k), label=i)
            for i, k in enumerate([3, 4, 5, 3, 4, 5])
        ]
        reference = PairwiseEMDEngine(ground_distance="cityblock").banded_matrix(sigs, 3)
        lambda_distance = lambda a, b: cross_distance_matrix(a, b, "cityblock")
        with PairwiseEMDEngine(
            ground_distance=lambda_distance, parallel_backend="process", n_workers=2
        ) as engine:
            band = engine.banded_matrix(sigs, 3)
            assert engine._pool is not None and not engine._pool_failed
            assert engine.map(_square, [2, 3]) == [4, 9]
        np.testing.assert_allclose(band.band, reference.band, rtol=0, atol=1e-12)

    def test_broken_map_falls_back_to_serial(self, monkeypatch):
        engine = PairwiseEMDEngine(parallel_backend="process", n_workers=2)
        engine.map(_square, [1, 2])  # create the pool
        # Executors spawn workers lazily at submit; emulate an environment
        # where map itself fails.
        def failing_map(*args, **kwargs):
            raise RuntimeError("can't start a new worker process")

        monkeypatch.setattr(engine._pool, "map", failing_map)
        assert engine.map(_square, [1, 2]) == [1, 4]
        assert engine._pool_failed and engine._pool is None
        # Later batches keep working serially.
        assert engine.map(_square, [3]) == [9]
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

    @pytest.mark.parametrize(
        "ground_distance", ["euclidean", "sqeuclidean", "cityblock", "chebyshev"]
    )
    def test_parity_on_a_declared_grid(self, rng, ground_distance):
        # 2-D histograms on one declared grid take the stacked route, where
        # the metrics match coincident mass in place before the LP.
        bags = [rng.normal(0, 1, size=(30, 2)) for _ in range(7)]
        bags += [rng.normal(2, 1, size=(30, 2)) for _ in range(7)]
        cfg = DetectorConfig(
            tau=3, tau_test=3, signature_method="histogram", bins=4,
            histogram_range=[(-3.0, 5.0), (-3.0, 5.0)], ground_distance=ground_distance,
            n_bootstrap=30, random_state=3,
        )
        offline = BagChangePointDetector(cfg).detect(bags)
        online_points = OnlineBagDetector(cfg).push_many(bags)
        assert len(online_points) == len(offline.points)
        for off, on in zip(offline.points, online_points):
            assert off.time == on.time
            assert off.score == pytest.approx(on.score, abs=1e-12)
            assert off.interval.lower == pytest.approx(on.interval.lower, abs=1e-12)
            assert off.interval.upper == pytest.approx(on.interval.upper, abs=1e-12)
            assert off.alert == on.alert

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
    @pytest.mark.parametrize("parallel_backend", ["gpu", "thread"])
    def test_invalid_parallel_backend_in_config(self, parallel_backend):
        with pytest.raises(ConfigurationError):
            DetectorConfig(parallel_backend=parallel_backend)

    def test_invalid_worker_count_in_config(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(n_workers=0)

    def test_process_detector_matches_serial(self, rng):
        bags = [rng.normal(0, 1, size=(12, 2)) for _ in range(10)]
        base = dict(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=20, random_state=4
        )
        serial = BagChangePointDetector(DetectorConfig(**base)).detect(bags)
        with BagChangePointDetector(
            DetectorConfig(parallel_backend="process", n_workers=2, **base)
        ) as detector:
            pooled = detector.detect(bags)
        assert np.allclose(serial.scores, pooled.scores, atol=1e-10)

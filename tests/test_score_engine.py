"""Tests for the batched bootstrap scoring engine.

Property-style equivalence tests assert that the batched estimators and
scores are element-wise interchangeable with their scalar counterparts
across score x weighting x window-size combinations, and a seeded
end-to-end test pins ``detect()`` output to a from-scratch scalar
reimplementation of the seed pipeline.
"""

import numpy as np
import pytest

from repro.bootstrap import BayesianBootstrap, percentile_interval
from repro.core import (
    BagChangePointDetector,
    DetectorConfig,
    LogWindowDistances,
    OnlineBagDetector,
    ScoreEngine,
    WindowDistances,
    compute_score,
    score_batch,
)
from repro.core.thresholding import AdaptiveThreshold
from repro.emd import PairwiseEMDEngine
from repro.exceptions import ConfigurationError, ValidationError
from repro.information import (
    EstimatorConfig,
    auto_entropy,
    auto_entropy_batch,
    cross_entropy,
    cross_entropy_batch,
    information_content,
    information_content_batch,
    log_distances,
    resolve_weights,
)

ATOL = 1e-12

score_weighting_windows = [
    (score, weighting, tau, tau_test)
    for score in ("kl", "lr")
    for weighting in ("uniform", "discounted")
    for tau, tau_test in ((3, 3), (5, 4), (4, 7))
]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def symmetric_distances(rng, n):
    m = rng.uniform(0.05, 3.0, size=(n, n))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    return m


def random_window(rng, tau, tau_test):
    return WindowDistances(
        ref_pairwise=symmetric_distances(rng, tau),
        test_pairwise=symmetric_distances(rng, tau_test),
        cross=rng.uniform(0.05, 3.0, size=(tau, tau_test)),
    )


class TestBatchedEstimators:
    @pytest.mark.parametrize("config", [EstimatorConfig(), EstimatorConfig(constant=2.5, dimension=3.0, min_distance=1e-6)])
    def test_information_content_matches_scalar(self, rng, config):
        dist = rng.uniform(0.0, 2.0, size=7)  # includes values below min_distance
        weights = rng.dirichlet(np.ones(7), size=30)
        batch = information_content_batch(dist, weights, config=config)
        scalar = np.array([information_content(dist, w, config=config) for w in weights])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("config", [EstimatorConfig(), EstimatorConfig(constant=-1.0, dimension=0.5)])
    def test_auto_entropy_matches_scalar(self, rng, config):
        dist = symmetric_distances(rng, 6)
        weights = rng.dirichlet(np.ones(6), size=30)
        batch = auto_entropy_batch(dist, weights, config=config)
        scalar = np.array([auto_entropy(dist, w, config=config) for w in weights])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("config", [EstimatorConfig(), EstimatorConfig(dimension=2.0)])
    def test_cross_entropy_matches_scalar(self, rng, config):
        dist = rng.uniform(0.05, 2.0, size=(5, 8))
        wa = rng.dirichlet(np.ones(5), size=30)
        wb = rng.dirichlet(np.ones(8), size=30)
        batch = cross_entropy_batch(dist, wa, wb, config=config)
        scalar = np.array(
            [cross_entropy(dist, a, b, config=config) for a, b in zip(wa, wb)]
        )
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=ATOL)

    def test_single_vector_promoted_to_batch(self, rng):
        dist = rng.uniform(0.05, 2.0, size=5)
        w = rng.dirichlet(np.ones(5))
        batch = information_content_batch(dist, w)
        assert batch.shape == (1,)
        assert batch[0] == pytest.approx(information_content(dist, w), abs=ATOL)

    def test_precomputed_log_reused(self, rng):
        config = EstimatorConfig(min_distance=1e-6)
        dist = rng.uniform(0.0, 2.0, size=(4, 4))
        dist = 0.5 * (dist + dist.T)
        np.fill_diagonal(dist, 0.0)
        weights = rng.dirichlet(np.ones(4), size=10)
        precomputed = log_distances(dist, config)
        via_log = auto_entropy_batch(None, weights, config=config, precomputed_log=precomputed)
        via_dist = auto_entropy_batch(dist, weights, config=config)
        np.testing.assert_array_equal(via_log, via_dist)

    def test_missing_distances_and_log_rejected(self, rng):
        with pytest.raises(ValidationError):
            information_content_batch(None, rng.dirichlet(np.ones(3), size=2))

    def test_negative_weights_rejected(self, rng):
        dist = rng.uniform(0.05, 2.0, size=4)
        bad = np.array([[0.5, 0.5, 0.5, -0.5]])
        with pytest.raises(ValidationError):
            information_content_batch(dist, bad)

    def test_zero_mass_row_rejected(self, rng):
        dist = rng.uniform(0.05, 2.0, size=3)
        with pytest.raises(ValidationError):
            information_content_batch(dist, np.zeros((2, 3)))

    def test_shape_mismatch_rejected(self, rng):
        dist = rng.uniform(0.05, 2.0, size=(4, 5))
        wa = rng.dirichlet(np.ones(4), size=3)
        wb = rng.dirichlet(np.ones(5), size=7)  # batch sizes differ
        with pytest.raises(ValidationError):
            cross_entropy_batch(dist, wa, wb)
        with pytest.raises(ValidationError):
            cross_entropy_batch(dist, wa[:, :3], wb[:3])

    #: numpy's path search contracts ``(0, 2)`` first at n = 1 and ``(0, 1)``
    #: otherwise, so this grid exercises both cached contraction paths.
    @pytest.mark.parametrize("n_rows", [1, 2, 50, 201, 600])
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 11])
    def test_auto_entropy_batch_equals_searched_einsum(self, n_rows, n):
        rng = np.random.default_rng(1000 * n_rows + n)
        dist = symmetric_distances(rng, n)
        weights = rng.dirichlet(np.ones(n), size=n_rows)
        w = weights / weights.sum(axis=1, keepdims=True)
        denom = np.where(1.0 - w <= 0, np.inf, 1.0 - w)
        off_diag_log = log_distances(dist)
        np.fill_diagonal(off_diag_log, 0.0)
        expected = np.einsum("bi,ij,bj->b", w / denom, off_diag_log, w, optimize=True)
        assert np.array_equal(auto_entropy_batch(dist, weights), expected)
        # A second call reuses the cached path and still agrees.
        assert np.array_equal(auto_entropy_batch(dist, weights), expected)


class TestLogWindowDistances:
    def test_from_window_clips_and_logs_once(self, rng):
        config = EstimatorConfig(min_distance=1e-3)
        window = random_window(rng, 4, 3)
        log_window = LogWindowDistances.from_window(window, config)
        np.testing.assert_array_equal(
            log_window.ref_log, np.log(np.maximum(window.ref_pairwise, 1e-3))
        )
        np.testing.assert_array_equal(
            log_window.cross_log, np.log(np.maximum(window.cross, 1e-3))
        )
        assert log_window.n_reference == 4
        assert log_window.n_test == 3

    def test_shape_validation(self, rng):
        with pytest.raises(ValidationError):
            LogWindowDistances(
                ref_log=np.zeros((3, 2)), test_log=np.zeros((2, 2)), cross_log=np.zeros((3, 2))
            )
        with pytest.raises(ValidationError):
            LogWindowDistances(
                ref_log=np.zeros((3, 3)), test_log=np.zeros((2, 2)), cross_log=np.zeros((2, 3))
            )


class TestScoreBatchEquivalence:
    @pytest.mark.parametrize("score,weighting,tau,tau_test", score_weighting_windows)
    def test_batch_matches_scalar_elementwise(self, rng, score, weighting, tau, tau_test):
        window = random_window(rng, tau, tau_test)
        log_window = LogWindowDistances.from_window(window)
        ref_base = resolve_weights(weighting, tau, is_test=False)
        test_base = resolve_weights(weighting, tau_test, is_test=True)
        bootstrap = BayesianBootstrap(64, rng=rng)
        ref_w = bootstrap.resample_weights(tau, ref_base)
        test_w = bootstrap.resample_weights(tau_test, test_base)

        batch = score_batch(score, log_window, ref_w, test_w)
        scalar = np.array(
            [compute_score(score, window, a, b) for a, b in zip(ref_w, test_w)]
        )
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("inspection_index", [0, 1, 3])
    def test_lr_inspection_index_forwarded(self, rng, inspection_index):
        window = random_window(rng, 4, 4)
        log_window = LogWindowDistances.from_window(window)
        ref_w = rng.dirichlet(np.ones(4), size=20)
        test_w = rng.dirichlet(np.ones(4), size=20)
        batch = score_batch(
            "lr", log_window, ref_w, test_w, inspection_index=inspection_index
        )
        scalar = np.array(
            [
                compute_score("lr", window, a, b, inspection_index=inspection_index)
                for a, b in zip(ref_w, test_w)
            ]
        )
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=ATOL)

    def test_nondefault_estimator_config(self, rng):
        config = EstimatorConfig(constant=1.0, dimension=2.0, min_distance=1e-6)
        window = random_window(rng, 3, 3)
        log_window = LogWindowDistances.from_window(window, config)
        ref_w = rng.dirichlet(np.ones(3), size=10)
        test_w = rng.dirichlet(np.ones(3), size=10)
        batch = score_batch("kl", log_window, ref_w, test_w)
        scalar = np.array(
            [compute_score("kl", window, a, b, config=config) for a, b in zip(ref_w, test_w)]
        )
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=ATOL)

    def test_unknown_kind_rejected(self, rng):
        log_window = LogWindowDistances.from_window(random_window(rng, 3, 3))
        w = np.full((2, 3), 1 / 3)
        with pytest.raises(ConfigurationError):
            score_batch("wasserstein", log_window, w, w)

    def test_bad_inspection_index_rejected(self, rng):
        log_window = LogWindowDistances.from_window(random_window(rng, 3, 3))
        w = np.full((2, 3), 1 / 3)
        with pytest.raises(ConfigurationError):
            score_batch("lr", log_window, w, w, inspection_index=3)

    def test_mismatched_batch_sizes_rejected(self, rng):
        log_window = LogWindowDistances.from_window(random_window(rng, 3, 3))
        with pytest.raises(ValidationError):
            score_batch("kl", log_window, np.full((2, 3), 1 / 3), np.full((4, 3), 1 / 3))


class TestScoreEngine:
    @pytest.mark.parametrize("score,weighting,tau,tau_test", score_weighting_windows)
    def test_point_and_interval_match_scalar_loop(self, score, weighting, tau, tau_test):
        window_rng = np.random.default_rng(7)
        window = random_window(window_rng, tau, tau_test)
        config = DetectorConfig(
            tau=tau, tau_test=tau_test, score=score, weighting=weighting,
            n_bootstrap=50, random_state=123,
        )
        engine = ScoreEngine(config, rng=np.random.default_rng(123))
        point, interval = engine.point_and_interval(window)

        # Scalar reference: the seed implementation's per-replicate loop.
        ref_base = resolve_weights(weighting, tau, is_test=False)
        test_base = resolve_weights(weighting, tau_test, is_test=True)
        bootstrap = BayesianBootstrap(50, alpha=config.alpha, rng=np.random.default_rng(123))
        expected_point = compute_score(score, window, ref_base, test_base)
        ref_w = bootstrap.resample_weights(tau, ref_base)
        test_w = bootstrap.resample_weights(tau_test, test_base)
        replicated = np.array(
            [compute_score(score, window, a, b) for a, b in zip(ref_w, test_w)]
        )
        expected = percentile_interval(replicated, config.alpha, point=expected_point)

        assert point == pytest.approx(expected_point, abs=1e-11)
        assert interval.lower == pytest.approx(expected.lower, abs=1e-11)
        assert interval.upper == pytest.approx(expected.upper, abs=1e-11)

    def test_accepts_prebuilt_log_window(self, rng):
        config = DetectorConfig(tau=3, tau_test=3, n_bootstrap=20)
        window = random_window(rng, 3, 3)
        log_window = LogWindowDistances.from_window(window, config.estimator)
        point_a, interval_a = ScoreEngine(config, rng=np.random.default_rng(0)).point_and_interval(window)
        point_b, interval_b = ScoreEngine(config, rng=np.random.default_rng(0)).point_and_interval(log_window)
        assert point_a == point_b
        assert interval_a.lower == interval_b.lower
        assert interval_a.upper == interval_b.upper

    def test_mismatched_log_window_config_rejected(self, rng):
        config = DetectorConfig(
            tau=3, tau_test=3, n_bootstrap=20,
            estimator=EstimatorConfig(min_distance=1e-6),
        )
        engine = ScoreEngine(config, rng=np.random.default_rng(0))
        window = random_window(rng, 3, 3)
        stale = LogWindowDistances.from_window(window)  # default constants
        with pytest.raises(ConfigurationError):
            engine.point_and_interval(stale)

    @pytest.mark.parametrize("score,weighting,tau,tau_test", score_weighting_windows)
    def test_engine_scores_equal_score_batch_bit_for_bit(self, score, weighting, tau, tau_test):
        # The engine skips score_batch's checks on weight rows it drew
        # itself; the arithmetic must stay exactly score_batch's.
        window = random_window(np.random.default_rng(11), tau, tau_test)
        config = DetectorConfig(
            tau=tau, tau_test=tau_test, score=score, weighting=weighting,
            n_bootstrap=50, lr_inspection_index=tau_test - 1,
        )
        engine = ScoreEngine(config, rng=np.random.default_rng(5))
        got = engine.replicate_scores(window, include_point=True)

        bootstrap = BayesianBootstrap(50, rng=np.random.default_rng(5))
        ref_w = np.vstack([engine.ref_weights, bootstrap.resample_weights(tau, engine.ref_weights)])
        test_w = np.vstack(
            [engine.test_weights, bootstrap.resample_weights(tau_test, engine.test_weights)]
        )
        expected = score_batch(
            score,
            LogWindowDistances.from_window(window, config.estimator),
            ref_w,
            test_w,
            inspection_index=config.lr_inspection_index,
        )
        assert np.array_equal(got, expected)
        point = score_batch(
            score,
            LogWindowDistances.from_window(window, config.estimator),
            engine.ref_weights,
            engine.test_weights,
            inspection_index=config.lr_inspection_index,
        )
        assert engine.point_score(window) == point[0]

    def test_window_of_other_size_rejected(self, rng):
        engine = ScoreEngine(DetectorConfig(tau=3, tau_test=3, n_bootstrap=20), rng=0)
        with pytest.raises(ValidationError, match="tau=3"):
            engine.point_and_interval(random_window(rng, 4, 3))
        log_window = LogWindowDistances.from_window(random_window(rng, 3, 2))
        with pytest.raises(ValidationError, match="tau_test=3"):
            engine.point_and_interval(log_window)

    def test_replicate_scores_shape(self, rng):
        config = DetectorConfig(tau=3, tau_test=3, n_bootstrap=25, random_state=1)
        engine = ScoreEngine(config)
        window = random_window(rng, 3, 3)
        assert engine.replicate_scores(window).shape == (25,)
        assert engine.replicate_scores(window, include_point=True).shape == (26,)


def make_bags(rng, n=16, change_at=8, size=25):
    bags = []
    for i in range(n):
        mean = 0.0 if i < change_at else 3.0
        bags.append(rng.normal(mean, 1.0, size=(size, 2)))
    return bags


class TestEndToEndParity:
    """A seeded detect() run is unchanged by the batched-scoring rewire."""

    @pytest.mark.parametrize("score", ["kl", "lr"])
    def test_detect_matches_scalar_pipeline(self, score):
        bags = make_bags(np.random.default_rng(5))
        kwargs = dict(
            tau=4, tau_test=4, score=score, signature_method="exact",
            n_bootstrap=60, random_state=0,
        )
        result = BagChangePointDetector(**kwargs).detect(bags)

        # From-scratch scalar pipeline, mirroring the seed implementation
        # (the "exact" builder draws nothing from the rng, so the bootstrap
        # stream of a fresh default_rng(0) matches the detector's).
        cfg = DetectorConfig(**kwargs)
        signatures = BagChangePointDetector(DetectorConfig(**kwargs)).build_signatures(bags)
        banded = PairwiseEMDEngine().banded_matrix(signatures, cfg.window_span)
        ref_base = resolve_weights(cfg.weighting, cfg.tau, is_test=False)
        test_base = resolve_weights(cfg.weighting, cfg.tau_test, is_test=True)
        bootstrap = BayesianBootstrap(cfg.n_bootstrap, alpha=cfg.alpha, rng=np.random.default_rng(0))
        threshold = AdaptiveThreshold(cfg.tau_test)

        n = len(signatures)
        assert len(result.points) == n - cfg.window_span + 1
        for point in result.points:
            t = point.time
            ref_pw, test_pw, cross = banded.window(t - cfg.tau, cfg.tau, cfg.tau_test)
            window = WindowDistances(ref_pairwise=ref_pw, test_pairwise=test_pw, cross=cross)
            expected_score = compute_score(
                cfg.score, window, ref_base, test_base,
                config=cfg.estimator, inspection_index=cfg.lr_inspection_index,
            )
            ref_w = bootstrap.resample_weights(cfg.tau, ref_base)
            test_w = bootstrap.resample_weights(cfg.tau_test, test_base)
            replicated = np.array(
                [
                    compute_score(
                        cfg.score, window, a, b,
                        config=cfg.estimator, inspection_index=cfg.lr_inspection_index,
                    )
                    for a, b in zip(ref_w, test_w)
                ]
            )
            expected_interval = percentile_interval(
                replicated, cfg.alpha, point=expected_score
            )
            expected_gamma, expected_alert = threshold.update(t, expected_interval)

            assert point.score == pytest.approx(expected_score, abs=1e-10)
            assert point.interval.lower == pytest.approx(expected_interval.lower, abs=1e-10)
            assert point.interval.upper == pytest.approx(expected_interval.upper, abs=1e-10)
            assert point.gamma == pytest.approx(expected_gamma, abs=1e-10, nan_ok=True)
            assert point.alert == expected_alert

    def test_online_rolling_log_matrix_consistent(self):
        rng = np.random.default_rng(11)
        config = DetectorConfig(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=20, random_state=0
        )
        detector = OnlineBagDetector(config)
        for bag in make_bags(rng, n=12, change_at=6, size=15):
            detector.push(bag)
        np.testing.assert_array_equal(
            detector._log_matrix,
            np.log(np.maximum(detector._window_matrix, config.estimator.min_distance)),
        )

    def test_online_matches_offline_after_rewire(self):
        bags = make_bags(np.random.default_rng(3), n=14, change_at=7, size=20)
        kwargs = dict(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=40, random_state=0
        )
        offline = BagChangePointDetector(**kwargs).detect(bags)
        online = OnlineBagDetector(**kwargs)
        for bag in bags:
            online.push(bag)
        assert len(online.history.points) == len(offline.points)
        for o, f in zip(online.history.points, offline.points):
            assert o.time == f.time
            assert o.score == pytest.approx(f.score, abs=1e-10)
            assert o.interval.lower == pytest.approx(f.interval.lower, abs=1e-10)
            assert o.interval.upper == pytest.approx(f.interval.upper, abs=1e-10)
            assert o.alert == f.alert

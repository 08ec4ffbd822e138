"""Tests for the offline detector, its configuration and result containers."""

import numpy as np
import pytest

from repro.core import (
    BagChangePointDetector,
    BagSequence,
    DetectionResult,
    DetectorConfig,
    ScorePoint,
)
from repro.bootstrap import ConfidenceInterval
from repro.exceptions import ConfigurationError, ValidationError
from repro.signatures import Signature


class TestDetectorConfig:
    def test_defaults_valid(self):
        config = DetectorConfig()
        assert config.tau == 5
        assert config.window_span == 10

    def test_invalid_tau(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(tau=1)

    def test_invalid_tau_test(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(tau_test=0)

    def test_invalid_score(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(score="mmd")

    def test_invalid_signature_method(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(signature_method="dbscan")

    def test_invalid_weighting(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(weighting="exponential")

    def test_invalid_bootstrap_count(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(n_bootstrap=1)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(alpha=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shard_retries", 1.5),
            ("shard_retries", True),
            ("shard_retries", -1),
            ("n_workers", 1.5),
            ("n_workers", True),
            ("n_workers", 0),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        # A fractional retry budget used to be truncated silently by
        # RetryPolicy.from_config, and a fractional pool size accepted.
        with pytest.raises(ConfigurationError, match=field):
            DetectorConfig(**{field: value})

    def test_integer_counts_accepted(self):
        config = DetectorConfig(shard_retries=np.int64(0), n_workers=np.int64(2))
        assert (config.shard_retries, config.n_workers) == (0, 2)


class TestDetectionResultContainer:
    def _points(self):
        return [
            ScorePoint(
                time=t,
                score=float(t),
                interval=ConfidenceInterval(float(t) - 0.5, float(t) + 0.5, 0.95, float(t)),
                gamma=float(t) - 5.0,
                alert=t == 8,
            )
            for t in range(5, 10)
        ]

    def test_array_views(self):
        result = DetectionResult(points=self._points())
        assert result.times.tolist() == [5, 6, 7, 8, 9]
        assert result.scores.tolist() == [5.0, 6.0, 7.0, 8.0, 9.0]
        assert result.alerts.sum() == 1
        assert result.alarm_times.tolist() == [8]

    def test_to_dict_round_trip(self):
        result = DetectionResult(points=self._points())
        data = result.to_dict()
        assert data["time"] == [5, 6, 7, 8, 9]
        assert data["alert"][3] is True

    def test_summary_mentions_alerts(self):
        result = DetectionResult(points=self._points())
        assert "1 alert" in result.summary()

    def test_empty_summary(self):
        assert "empty" in DetectionResult().summary()

    def test_len_and_iter(self):
        result = DetectionResult(points=self._points())
        assert len(result) == 5
        assert sum(1 for _ in result) == 5


class TestBagChangePointDetector:
    def test_detects_clear_mean_shift(self, step_change_bags, fast_config):
        detector = BagChangePointDetector(fast_config)
        result = detector.detect(step_change_bags)
        assert result.alerts.any()
        # The change happens at bag index 8; the alert should land near it.
        assert any(7 <= t <= 10 for t in result.alarm_times)

    def test_no_alert_on_stationary_stream(self, stationary_bags, fast_config):
        detector = BagChangePointDetector(fast_config)
        result = detector.detect(stationary_bags)
        assert int(result.alerts.sum()) <= 1  # occasional false alarm tolerated

    def test_score_peaks_near_change(self, step_change_bags, fast_config):
        result = BagChangePointDetector(fast_config).detect(step_change_bags)
        peak_time = result.times[int(np.argmax(result.scores))]
        assert 6 <= peak_time <= 10

    def test_inspection_points_range(self, step_change_bags, fast_config):
        result = BagChangePointDetector(fast_config).detect(step_change_bags)
        assert result.times[0] == fast_config.tau
        assert result.times[-1] == len(step_change_bags) - fast_config.tau_test

    def test_confidence_bounds_bracket_point_score(self, step_change_bags, fast_config):
        result = BagChangePointDetector(fast_config).detect(step_change_bags)
        # The point estimate uses the nominal uniform weights, which is the
        # Dirichlet mean, so it should lie inside (or very near) the CI.
        inside = np.mean(
            (result.scores >= result.lower - 1e-6) & (result.scores <= result.upper + 1e-6)
        )
        assert inside > 0.8

    def test_accepts_bag_sequence(self, step_change_bags, fast_config):
        sequence = BagSequence(step_change_bags)
        result = BagChangePointDetector(fast_config).detect(sequence)
        assert len(result) > 0

    def test_accepts_prebuilt_signatures(self, rng, fast_config):
        signatures = [
            Signature(rng.normal(0, 1, size=(20, 2)), np.ones(20), label=i) for i in range(8)
        ]
        signatures += [
            Signature(rng.normal(5, 1, size=(20, 2)), np.ones(20), label=8 + i)
            for i in range(8)
        ]
        result = BagChangePointDetector(fast_config).detect(signatures)
        assert result.alerts.any()

    def test_kwargs_constructor(self, step_change_bags):
        detector = BagChangePointDetector(
            tau=4, tau_test=4, n_bootstrap=50, signature_method="exact", random_state=0
        )
        assert detector.config.tau == 4
        assert len(detector.detect(step_change_bags)) > 0

    def test_config_and_kwargs_mutually_exclusive(self, fast_config):
        with pytest.raises(ValidationError):
            BagChangePointDetector(fast_config, tau=3)

    def test_too_few_bags_rejected(self, rng, fast_config):
        bags = [rng.normal(size=(10, 2)) for _ in range(5)]
        with pytest.raises(ValidationError):
            BagChangePointDetector(fast_config).detect(bags)

    def test_distance_matrix_attached_on_request(self, step_change_bags, fast_config):
        result = BagChangePointDetector(fast_config).detect(
            step_change_bags, return_distance_matrix=True
        )
        n = len(step_change_bags)
        assert result.emd_matrix.shape == (n, n)
        assert np.allclose(result.emd_matrix, result.emd_matrix.T)

    def test_reproducible_with_seed(self, step_change_bags):
        config = dict(tau=4, tau_test=4, n_bootstrap=50, signature_method="exact")
        r1 = BagChangePointDetector(random_state=11, **config).detect(step_change_bags)
        r2 = BagChangePointDetector(random_state=11, **config).detect(step_change_bags)
        assert np.allclose(r1.scores, r2.scores)
        assert np.allclose(r1.lower, r2.lower)

    def test_lr_score_variant_runs(self, step_change_bags):
        detector = BagChangePointDetector(
            tau=4, tau_test=4, score="lr", n_bootstrap=50,
            signature_method="exact", random_state=0,
        )
        result = detector.detect(step_change_bags)
        peak_time = result.times[int(np.argmax(result.scores))]
        assert 6 <= peak_time <= 10

    def test_discounted_weighting_runs(self, step_change_bags):
        detector = BagChangePointDetector(
            tau=4, tau_test=4, weighting="discounted", n_bootstrap=50,
            signature_method="exact", random_state=0,
        )
        assert len(detector.detect(step_change_bags)) > 0

    def test_kmeans_signatures_detect_variance_change(self, rng):
        # A change in spread (not mean) is invisible to mean-based summaries
        # but visible to the bag-of-data detector.
        bags = [rng.normal(0, 1, size=(80, 2)) for _ in range(8)]
        bags += [rng.normal(0, 4, size=(80, 2)) for _ in range(8)]
        detector = BagChangePointDetector(
            tau=4, tau_test=4, signature_method="kmeans", n_clusters=6,
            n_bootstrap=60, random_state=0,
        )
        result = detector.detect(bags)
        peak_time = result.times[int(np.argmax(result.scores))]
        assert 6 <= peak_time <= 10

    def test_metadata_recorded(self, step_change_bags, fast_config):
        result = BagChangePointDetector(fast_config).detect(step_change_bags)
        assert result.metadata["tau"] == fast_config.tau
        assert result.metadata["n_bags"] == len(step_change_bags)

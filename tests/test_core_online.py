"""Tests for the streaming detector."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core import BagChangePointDetector, DetectorConfig, OnlineBagDetector
from repro.exceptions import (
    ConfigurationError,
    DetectorClosedError,
    SolverError,
    ValidationError,
)
from repro.testing.faults import inject_transient_solver_error


class TestOnlineBagDetector:
    def test_no_output_until_window_full(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        outputs = [detector.push(rng.normal(size=(20, 2))) for _ in range(fast_config.window_span - 1)]
        assert all(o is None for o in outputs)

    def test_emits_one_point_per_push_after_warmup(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        emitted = detector.push_many([rng.normal(size=(20, 2)) for _ in range(12)])
        assert len(emitted) == 12 - fast_config.window_span + 1

    def test_inspection_times_lag_by_tau_test(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        emitted = detector.push_many([rng.normal(size=(20, 2)) for _ in range(12)])
        # After pushing bag s (0-based), the emitted inspection time is
        # s - tau_test + 1.
        assert emitted[0].time == fast_config.tau
        assert emitted[-1].time == 12 - fast_config.tau_test

    def test_detects_mean_shift(self, step_change_bags, fast_config):
        detector = OnlineBagDetector(fast_config)
        emitted = detector.push_many(step_change_bags)
        alarm_times = [p.time for p in emitted if p.alert]
        assert any(7 <= t <= 10 for t in alarm_times)

    def test_history_property(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        detector.push_many([rng.normal(size=(20, 2)) for _ in range(10)])
        history = detector.history
        assert len(history) == 10 - fast_config.window_span + 1

    def test_n_seen_counter(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        detector.push_many([rng.normal(size=(10, 2)) for _ in range(6)])
        assert detector.n_seen == 6

    def test_matches_offline_scores(self, rng):
        # With identical seeds for signature construction ("exact" makes it
        # deterministic) the point scores must coincide with the offline
        # detector; the bootstrap intervals use different random draws and
        # are not compared.
        bags = [rng.normal(0, 1, size=(15, 2)) for _ in range(6)]
        bags += [rng.normal(4, 1, size=(15, 2)) for _ in range(6)]
        config = DetectorConfig(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=20, random_state=0
        )
        offline = BagChangePointDetector(config).detect(bags)
        online = OnlineBagDetector(config)
        emitted = online.push_many(bags)
        offline_scores = {p.time: p.score for p in offline.points}
        for point in emitted:
            assert point.score == pytest.approx(offline_scores[point.time], rel=1e-9)

    def test_histogram_without_range_warns_once(self, rng):
        # Each bag binned on its own min/max: the stream has no shared grid.
        config = DetectorConfig(
            tau=3, tau_test=3, signature_method="histogram", bins=4, n_bootstrap=20
        )
        with pytest.warns(UserWarning, match="histogram_range"):
            detector = OnlineBagDetector(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detector.push_many([rng.normal(size=(15, 2)) for _ in range(8)])
            OnlineBagDetector(
                dataclasses.replace(config, histogram_range=(-4.0, 4.0))
            ).push_many([rng.normal(size=(15, 2)) for _ in range(8)])

    def test_memory_stays_bounded(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        detector.push_many([rng.normal(size=(10, 2)) for _ in range(30)])
        # The rolling distance matrix is the only distance storage and its
        # size is fixed by the window span, regardless of stream length.
        span = fast_config.window_span
        assert detector._window_matrix.shape == (span, span)
        assert len(detector._signatures) == span

    def test_config_and_kwargs_mutually_exclusive(self, fast_config):
        with pytest.raises(ValidationError):
            OnlineBagDetector(fast_config, tau=3)

    def test_kwargs_constructor(self, rng):
        detector = OnlineBagDetector(tau=3, tau_test=3, n_bootstrap=20,
                                     signature_method="exact", random_state=0)
        emitted = detector.push_many([rng.normal(size=(10, 2)) for _ in range(7)])
        assert len(emitted) == 2


class TestHistoryBounding:
    def test_history_limit_bounds_retention(self, rng):
        config = DetectorConfig(
            tau=3, tau_test=3, signature_method="exact", n_bootstrap=20,
            history_limit=4, random_state=0,
        )
        detector = OnlineBagDetector(config)
        emitted = detector.push_many([rng.normal(size=(10, 2)) for _ in range(16)])
        assert len(emitted) == 11
        history = detector.history
        assert len(history) == 4
        # The retained points are the most recent ones.
        assert [p.time for p in history.points] == [p.time for p in emitted[-4:]]

    def test_history_unbounded_by_default(self, rng, fast_config):
        assert fast_config.history_limit is None
        detector = OnlineBagDetector(fast_config)
        detector.push_many([rng.normal(size=(10, 2)) for _ in range(14)])
        assert len(detector.history) == 14 - fast_config.window_span + 1

    def test_history_result_is_cached_between_pushes(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        detector.push_many([rng.normal(size=(10, 2)) for _ in range(10)])
        first = detector.history
        assert detector.history is first  # no re-copy per access
        detector.push(rng.normal(size=(10, 2)))
        second = detector.history
        assert second is not first
        assert len(second) == len(first) + 1

    def test_history_limit_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(history_limit=0)


class TestLifecycle:
    def test_push_after_close_raises_clear_error(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        detector.push(rng.normal(size=(10, 2)))
        detector.close()
        with pytest.raises(DetectorClosedError, match="closed"):
            detector.push(rng.normal(size=(10, 2)))
        with pytest.raises(DetectorClosedError):
            detector.push_masked(rng.normal(size=(10, 2)))

    def test_close_is_idempotent(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        detector.push(rng.normal(size=(10, 2)))
        detector.close()
        detector.close()
        assert detector.closed

    def test_context_manager_closes(self, rng, fast_config):
        with OnlineBagDetector(fast_config) as detector:
            detector.push(rng.normal(size=(10, 2)))
        assert detector.closed

    def test_history_readable_after_close(self, rng, fast_config):
        detector = OnlineBagDetector(fast_config)
        detector.push_many([rng.normal(size=(10, 2)) for _ in range(10)])
        detector.close()
        assert len(detector.history) == 10 - fast_config.window_span + 1


@pytest.mark.faults
class TestPushRetryability:
    def _config(self, method="exact"):
        return DetectorConfig(
            tau=3, tau_test=3, signature_method=method, n_clusters=4,
            n_bootstrap=20, random_state=0,
        )

    @pytest.mark.parametrize("method", ["exact", "kmeans"])
    def test_failed_push_mutates_nothing(self, rng, method):
        detector = OnlineBagDetector(self._config(method))
        bags = [rng.normal(size=(12, 2)) for _ in range(12)]
        for bag in bags[:8]:
            detector.push(bag)
        n_seen = detector.n_seen
        signatures = list(detector._signatures)
        window = detector._window_matrix.copy()
        logged = detector._log_matrix.copy()
        rng_state = repr(detector._rng.bit_generator.state)
        history_len = len(detector.history)
        with inject_transient_solver_error(times=1):
            with pytest.raises(SolverError):
                detector.push(bags[8])
        assert detector.n_seen == n_seen
        assert list(detector._signatures) == signatures
        assert np.array_equal(detector._window_matrix, window)
        assert np.array_equal(detector._log_matrix, logged)
        # The generator is rewound past the signature-construction draws
        # (kmeans consumes them before the solve), so a retry replays
        # the identical stochastic choices.
        assert repr(detector._rng.bit_generator.state) == rng_state
        assert len(detector.history) == history_len

    @pytest.mark.parametrize("method", ["exact", "kmeans"])
    def test_retried_push_converges_with_unfaulted_run(self, rng, method):
        bags = [rng.normal(size=(12, 2)) for _ in range(14)]
        reference = OnlineBagDetector(self._config(method))
        for bag in bags:
            reference.push(bag)
        faulted = OnlineBagDetector(self._config(method))
        for bag in bags[:9]:
            faulted.push(bag)
        with inject_transient_solver_error(times=1):
            with pytest.raises(SolverError):
                faulted.push(bags[9])
        for bag in bags[9:]:  # retry the failed bag, then the rest
            faulted.push(bag)
        ref_points = reference.history.points
        retry_points = faulted.history.points
        assert [p.time for p in ref_points] == [p.time for p in retry_points]
        for p, q in zip(ref_points, retry_points):
            assert abs(p.score - q.score) <= 1e-12
            assert abs(p.interval.lower - q.interval.lower) <= 1e-12
            assert abs(p.interval.upper - q.interval.upper) <= 1e-12
            assert p.alert == q.alert

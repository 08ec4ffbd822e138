"""Tests for the high-level EMD API, ground distances, 1-D fast path and matrices."""

import numpy as np
import pytest

from repro.emd import (
    EMDCache,
    PairwiseEMDEngine,
    cross_distance_matrix,
    cross_emd_matrix,
    emd,
    emd_1d_histograms,
    emd_matrix,
    emd_with_flow,
    resolve_ground_distance,
    wasserstein_1d,
)
from repro.emd.ground_distance import GROUND_DISTANCES, paired_cross_distances
from repro.exceptions import ConfigurationError, ValidationError
from repro.signatures import Signature
from scipy.spatial.distance import cdist


def sig(points, weights, label=None):
    return Signature(np.asarray(points, float), np.asarray(weights, float), label=label)


class TestGroundDistances:
    def test_euclidean_matches_manual(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 3.0]])
        dist = cross_distance_matrix(a, b, "euclidean")
        assert dist[0, 0] == pytest.approx(3.0)
        assert dist[1, 0] == pytest.approx(np.sqrt(10.0))

    def test_sqeuclidean(self):
        a = np.array([[0.0]])
        b = np.array([[3.0]])
        assert cross_distance_matrix(a, b, "sqeuclidean")[0, 0] == pytest.approx(9.0)

    def test_manhattan(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 2.0]])
        assert cross_distance_matrix(a, b, "cityblock")[0, 0] == pytest.approx(3.0)

    def test_chebyshev(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 2.0]])
        assert cross_distance_matrix(a, b, "chebyshev")[0, 0] == pytest.approx(2.0)

    def test_callable_metric(self):
        metric = lambda a, b: np.ones((a.shape[0], b.shape[0]))
        dist = cross_distance_matrix(np.zeros((2, 1)), np.zeros((3, 1)), metric)
        assert dist.shape == (2, 3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_ground_distance("hyperbolic")

    def test_callable_with_wrong_shape_rejected(self):
        bad = lambda a, b: np.ones((1, 1))
        with pytest.raises(ConfigurationError):
            cross_distance_matrix(np.zeros((2, 1)), np.zeros((3, 1)), bad)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cross_distance_matrix(np.zeros((2, 1)), np.zeros((3, 2)))


def _manhattan_callable(a, b):
    """A pairwise callable metric: every entry computed on its own."""
    return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)


class TestPairedCrossDistances:
    """A stacked chunk's costs equal its per-pair cost matrices, bit for bit."""

    @pytest.mark.parametrize("metric", [*GROUND_DISTANCES, _manhattan_callable])
    @pytest.mark.parametrize("dim", [1, 2, 10])
    @pytest.mark.parametrize("n_pairs,size_a,size_b", [(1, 1, 1), (7, 3, 5), (32, 8, 8), (9, 16, 11)])
    def test_equals_stacked_per_pair_matrices(self, metric, dim, n_pairs, size_a, size_b):
        rng = np.random.default_rng(1000 * dim + 10 * size_a + size_b)
        scale = rng.choice([1e-3, 1.0, 1e3], size=(n_pairs, 1, 1))
        positions_a = rng.normal(size=(n_pairs, size_a, dim)) * scale
        positions_b = rng.normal(size=(n_pairs, size_b, dim))
        expected = np.stack([
            cross_distance_matrix(a, b, metric) for a, b in zip(positions_a, positions_b)
        ])
        got = paired_cross_distances(positions_a, positions_b, metric)
        assert np.array_equal(got, expected)

    def test_many_tiny_pairs_are_split_into_bounded_calls(self):
        rng = np.random.default_rng(3)
        positions_a = rng.normal(size=(2_048, 1, 2))
        positions_b = rng.normal(size=(2_048, 1, 2))
        calls = []

        def recording(a, b):
            calls.append(a.shape[0] * b.shape[0])
            return cdist(a, b)

        got = paired_cross_distances(positions_a, positions_b, recording)
        expected = np.stack([
            cross_distance_matrix(a, b, "euclidean") for a, b in zip(positions_a, positions_b)
        ])
        assert np.array_equal(got, expected)
        # 256 pairs per call: 256² entries, never one 2,048² matrix.
        assert calls == [65_536] * 8

    def test_pair_larger_than_the_cap_gets_its_own_call(self):
        rng = np.random.default_rng(4)
        positions_a = rng.normal(size=(3, 300, 2))
        positions_b = rng.normal(size=(3, 300, 2))
        calls = []

        def recording(a, b):
            calls.append((a.shape[0], b.shape[0]))
            return cdist(a, b)

        paired_cross_distances(positions_a, positions_b, recording)
        assert calls == [(300, 300)] * 3

    def test_callable_with_wrong_shape_rejected(self):
        bad = lambda a, b: np.ones((1, 1))
        with pytest.raises(ConfigurationError):
            paired_cross_distances(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)), bad)

    def test_negative_distances_rejected(self):
        negative = lambda a, b: -np.ones((a.shape[0], b.shape[0]))
        with pytest.raises(ConfigurationError):
            paired_cross_distances(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)), negative)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_callable_non_finite_distances_rejected(self, bad_value):
        def poisoned(a, b):
            out = cdist(a, b)
            out[0, 0] = bad_value
            return out

        with pytest.raises(ConfigurationError, match="non-finite"):
            paired_cross_distances(np.zeros((2, 2, 1)), np.ones((2, 3, 1)), poisoned)
        # The stacked route builds its costs here, so a NaN cost is still
        # an error there, not an LP input.
        pair = (sig([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0]), sig([[0.0, 2.0]], [2.0]))
        with pytest.raises(ConfigurationError, match="non-finite"):
            PairwiseEMDEngine(ground_distance=poisoned).compute_pairs([pair])


class TestWasserstein1D:
    def test_point_masses(self):
        assert wasserstein_1d([0.0], [1.0], [3.0], [1.0]) == pytest.approx(3.0)

    def test_identical_distributions(self):
        x = np.array([0.0, 1.0, 2.0])
        w = np.array([1.0, 2.0, 1.0])
        assert wasserstein_1d(x, w, x, w) == pytest.approx(0.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        w = rng.uniform(0.5, 2.0, size=20)
        shift = 4.2
        assert wasserstein_1d(x, w, x + shift, w) == pytest.approx(shift, rel=1e-9)

    def test_weights_normalised(self):
        # Scaling all weights by a constant must not change the distance.
        d1 = wasserstein_1d([0.0, 1.0], [1.0, 1.0], [2.0], [1.0])
        d2 = wasserstein_1d([0.0, 1.0], [10.0, 10.0], [2.0], [5.0])
        assert d1 == pytest.approx(d2)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        xa, xb = rng.normal(size=10), rng.normal(size=15)
        wa, wb = np.ones(10), np.ones(15)
        assert wasserstein_1d(xa, wa, xb, wb) == pytest.approx(
            wasserstein_1d(xb, wb, xa, wa)
        )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d([0.0, 1.0], [1.0], [2.0], [1.0])


class TestEmd1dHistograms:
    def test_identical_histograms(self):
        counts = np.array([1.0, 2.0, 3.0])
        assert emd_1d_histograms(counts, counts) == pytest.approx(0.0)

    def test_one_bin_shift(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert emd_1d_histograms(a, b, bin_width=2.0) == pytest.approx(2.0)

    def test_mismatched_bins_rejected(self):
        with pytest.raises(ValueError):
            emd_1d_histograms(np.ones(3), np.ones(4))

    def test_nonpositive_bin_width_rejected(self):
        with pytest.raises(ValueError):
            emd_1d_histograms(np.ones(3), np.ones(3), bin_width=0.0)


class TestEmd:
    def test_identical_signatures_zero(self, small_signature):
        assert emd(small_signature, small_signature) == pytest.approx(0.0, abs=1e-9)

    def test_point_mass_distance(self):
        a = sig([[0.0, 0.0]], [1.0])
        b = sig([[3.0, 4.0]], [1.0])
        assert emd(a, b) == pytest.approx(5.0)

    def test_translation_distance(self, small_signature, shifted_signature):
        # Both signatures share the same internal shape, translated by (5, 5).
        assert emd(small_signature, shifted_signature) == pytest.approx(
            np.sqrt(50.0), rel=1e-6
        )

    def test_symmetry(self, rng):
        a = sig(rng.normal(size=(4, 2)), rng.uniform(1, 3, 4))
        b = sig(rng.normal(size=(6, 2)), rng.uniform(1, 3, 6))
        assert emd(a, b) == pytest.approx(emd(b, a), rel=1e-8)

    def test_triangle_inequality_on_normalised_signatures(self, rng):
        sigs = [
            sig(rng.normal(size=(4, 2)), np.ones(4)).normalized() for _ in range(3)
        ]
        d01 = emd(sigs[0], sigs[1])
        d12 = emd(sigs[1], sigs[2])
        d02 = emd(sigs[0], sigs[2])
        assert d02 <= d01 + d12 + 1e-8

    def test_backends_agree(self, rng):
        a = sig(rng.normal(size=(5, 3)), rng.uniform(1, 4, 5))
        b = sig(rng.normal(size=(4, 3)), rng.uniform(1, 4, 4))
        assert emd(a, b, backend="linprog") == pytest.approx(
            emd(a, b, backend="simplex"), rel=1e-5
        )

    def test_1d_fast_path_matches_lp(self, rng):
        xa = rng.normal(size=(6, 1))
        xb = rng.normal(size=(6, 1))
        a = sig(xa, np.ones(6))
        b = sig(xb, np.ones(6))
        assert emd(a, b, backend="auto") == pytest.approx(
            emd(a, b, backend="linprog"), rel=1e-8
        )

    @pytest.mark.parametrize("total_b", [1.0, 3.7, 1e-3, 1e-13, 250.0])
    def test_1d_eligibility_matches_np_isclose_on_totals(self, total_b):
        from repro.emd.distance import _equal_masses

        # Offsets straddling atol + rtol * |b| on both sides of total_b.
        bound = 1e-12 + 1e-9 * total_b
        b = sig([[0.0]], [total_b])
        for factor in (0.0, 0.5, 0.999, 1.001, 2.0, -0.5, -0.999, -1.001):
            total_a = total_b + factor * bound
            if total_a <= 0:  # signatures need positive mass
                continue
            a = sig([[1.0]], [total_a])
            expected = bool(np.isclose(total_a, total_b, rtol=1e-9, atol=1e-12))
            assert _equal_masses(a, b) is expected

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            emd(sig([[0.0]], [1.0]), sig([[0.0, 0.0]], [1.0]))

    def test_unknown_backend_rejected(self, small_signature):
        with pytest.raises(ConfigurationError):
            emd(small_signature, small_signature, backend="quantum")

    def test_partial_matching_uses_smaller_mass(self):
        # One unit of mass at 0 vs ten units spread over {0, 100}: the
        # cheapest unit is matched, so the distance is 0.
        a = sig([[0.0]], [1.0])
        b = sig([[0.0], [100.0]], [5.0, 5.0])
        assert emd(a, b) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("backend", ["linprog", "simplex"])
    def test_emd_with_flow_returns_flow_matrix(self, backend, rng):
        a = sig(rng.normal(size=(3, 2)), np.ones(3))
        b = sig(rng.normal(size=(4, 2)), np.ones(4))
        result = emd_with_flow(a, b, backend=backend)
        assert result.flow.shape == (3, 4)
        assert result.total_flow == pytest.approx(3.0)
        assert result.distance == pytest.approx(result.cost / result.total_flow)
        # Unequal masses: the flow is a feasible partial matching that
        # moves the smaller total and whose cost is the objective.
        a = sig(rng.normal(size=(4, 2)), rng.uniform(1, 3, 4))
        b = sig(rng.normal(size=(6, 2)), rng.uniform(1, 3, 6))
        result = emd_with_flow(a, b, backend=backend)
        flow = result.flow
        assert flow.shape == (4, 6)
        assert flow.min() >= -1e-9
        assert np.all(flow.sum(axis=1) <= a.weights + 1e-9)
        assert np.all(flow.sum(axis=0) <= b.weights + 1e-9)
        assert result.total_flow == pytest.approx(min(a.total_weight, b.total_weight))
        assert flow.sum() == pytest.approx(result.total_flow)
        cost = cross_distance_matrix(a.positions, b.positions)
        assert result.cost == pytest.approx(float((flow * cost).sum()), rel=1e-7)
        assert result.distance == pytest.approx(result.cost / result.total_flow)

    def test_scale_invariance_of_weights(self, rng):
        # EMD (Eq. 12) is invariant to multiplying both weight vectors by
        # the same constant.
        a = sig(rng.normal(size=(4, 2)), rng.uniform(1, 2, 4))
        b = sig(rng.normal(size=(5, 2)), rng.uniform(1, 2, 5))
        assert emd(a.scaled(3.0), b.scaled(3.0)) == pytest.approx(emd(a, b), rel=1e-7)


#: Cost of moving unit mass along a displacement ``delta`` under each
#: built-in ground distance.  Each is a convex function of ``delta``.
GROUND_COSTS = {
    "euclidean": lambda delta: float(np.linalg.norm(delta)),
    "cityblock": lambda delta: float(np.abs(delta).sum()),
    "chebyshev": lambda delta: float(np.abs(delta).max()),
    "sqeuclidean": lambda delta: float(delta @ delta),
}


@pytest.mark.parametrize("backend", ["linprog", "simplex"])
class TestPartialMatchingProperties:
    """Properties of the exact partial-matching EMD (paper Eqs. 11-12).

    ``"auto"`` is left out: on these 2-D and 3-D inputs it takes the same
    route as ``"linprog"``.
    """

    def test_bounded_by_the_ground_cost_range(self, backend, rng):
        a = sig(rng.normal(size=(5, 3)), rng.uniform(1, 3, 5))
        b = sig(rng.normal(2.0, 1.0, size=(3, 3)), rng.uniform(1, 3, 3))
        cost = cross_distance_matrix(a.positions, b.positions)
        distance = emd(a, b, backend=backend)
        assert cost.min() - 1e-9 <= distance <= cost.max() + 1e-9

    def test_point_mass_receiving_all_flow(self, backend, rng):
        # A single atom heavier than the whole of ``b`` absorbs all of
        # b's mass, so the EMD is b's mean distance to that atom.
        b = sig(rng.normal(size=(5, 2)), rng.uniform(1, 3, 5))
        x = rng.normal(size=2)
        a = sig([x], [b.total_weight + 2.0])
        expected = float(b.weights @ np.linalg.norm(b.positions - x, axis=1))
        assert emd(a, b, backend=backend) == pytest.approx(
            expected / b.total_weight, rel=1e-7
        )

    def test_far_excess_mass_is_left_unmatched(self, backend, rng):
        # ``b`` already carries more mass than ``a``; an extra atom farther
        # from every atom of ``a`` than any atom of ``b`` is never used.
        a = sig(rng.normal(size=(4, 2)), rng.uniform(1, 2, 4))
        b = sig(rng.normal(size=(5, 2)), rng.uniform(2, 3, 5))
        padded = sig(
            np.vstack([b.positions, [[50.0, -50.0]]]),
            np.append(b.weights, 4.0),
        )
        assert emd(a, padded, backend=backend) == pytest.approx(
            emd(a, b, backend=backend), rel=1e-7
        )

    @pytest.mark.parametrize("ground_distance", sorted(GROUND_COSTS))
    def test_centroid_lower_bound(self, backend, ground_distance, rng):
        # For equal masses, Jensen's inequality on the convex ground cost
        # gives EMD(a, b) >= cost(mean(a) - mean(b)).
        a = sig(rng.normal(size=(5, 2)), rng.uniform(1, 3, 5)).normalized()
        b = sig(rng.normal(1.0, 2.0, size=(4, 2)), rng.uniform(1, 3, 4)).normalized()
        bound = GROUND_COSTS[ground_distance](a.mean() - b.mean())
        distance = emd(a, b, ground_distance=ground_distance, backend=backend)
        assert bound > 0.1
        assert distance >= bound - 1e-9


class TestEmdMatrices:
    def test_matrix_symmetric_zero_diagonal(self, rng):
        sigs = [sig(rng.normal(size=(4, 2)), np.ones(4), label=i) for i in range(4)]
        matrix = emd_matrix(sigs)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_cross_matrix_shape(self, rng):
        sa = [sig(rng.normal(size=(3, 2)), np.ones(3)) for _ in range(2)]
        sb = [sig(rng.normal(size=(3, 2)), np.ones(3)) for _ in range(3)]
        assert cross_emd_matrix(sa, sb).shape == (2, 3)

    def test_cache_hits_on_repeated_queries(self, rng):
        sigs = [sig(rng.normal(size=(4, 2)), np.ones(4), label=i) for i in range(3)]
        cache = EMDCache()
        cache.matrix(sigs)
        misses_after_first = cache.misses
        cache.matrix(sigs)
        assert cache.misses == misses_after_first
        assert cache.hits > 0

    def test_cache_symmetric_key(self, rng):
        a = sig(rng.normal(size=(3, 2)), np.ones(3), label="a")
        b = sig(rng.normal(size=(3, 2)), np.ones(3), label="b")
        cache = EMDCache()
        d1 = cache.distance(a, b)
        d2 = cache.distance(b, a)
        assert d1 == d2
        assert len(cache) == 1

    def test_cache_clear(self, rng):
        a = sig(rng.normal(size=(3, 2)), np.ones(3), label="a")
        b = sig(rng.normal(size=(3, 2)), np.ones(3), label="b")
        cache = EMDCache()
        cache.distance(a, b)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_cache_matches_direct_emd(self, rng):
        a = sig(rng.normal(size=(4, 2)), np.ones(4), label="a")
        b = sig(rng.normal(size=(4, 2)), np.ones(4), label="b")
        assert EMDCache().distance(a, b) == pytest.approx(emd(a, b))

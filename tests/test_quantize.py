"""Tests for the vector quantisers (k-means, k-medoids, histogram, LVQ)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NotFittedError, ValidationError
from repro.quantize import (
    HistogramQuantizer,
    KMeans,
    KMedoids,
    LearningVectorQuantizer,
    QuantizationResult,
    counts_from_labels,
    drop_empty_clusters,
    kmeans_plusplus_init,
    pairwise_distances,
)
from repro.quantize.kmeans import refine


def three_blobs(rng, n_per_blob=40):
    """Three well-separated Gaussian blobs in 2-D."""
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    return np.vstack(
        [rng.normal(c, 0.5, size=(n_per_blob, 2)) for c in centers]
    ), centers


class TestQuantizationResult:
    def test_counts_sum_to_n_points(self):
        result = QuantizationResult(
            centers=np.zeros((2, 1)), counts=np.array([3.0, 4.0]), labels=np.zeros(7, int)
        )
        assert result.n_points == 7
        assert result.n_clusters == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            QuantizationResult(
                centers=np.zeros((2, 1)), counts=np.array([3.0]), labels=np.zeros(3, int)
            )


class TestHelpers:
    def test_counts_from_labels(self):
        counts = counts_from_labels(np.array([0, 0, 2, 1, 2, 2]), 4)
        assert counts.tolist() == [2.0, 1.0, 3.0, 0.0]

    def test_drop_empty_clusters_reindexes(self):
        centers = np.array([[0.0], [1.0], [2.0]])
        counts = np.array([2.0, 0.0, 1.0])
        labels = np.array([0, 0, 2])
        result = drop_empty_clusters(centers, counts, labels)
        assert result.centers.shape == (2, 1)
        assert result.labels.tolist() == [0, 0, 1]

    def test_drop_empty_clusters_noop_when_full(self):
        centers = np.array([[0.0], [1.0]])
        counts = np.array([1.0, 2.0])
        labels = np.array([0, 1, 1])
        result = drop_empty_clusters(centers, counts, labels)
        assert np.array_equal(result.centers, centers)


class TestKMeansPlusPlus:
    def test_selects_requested_number(self, rng):
        data, _ = three_blobs(rng)
        centers = kmeans_plusplus_init(data, 3, rng)
        assert centers.shape == (3, 2)

    def test_centers_are_data_points(self, rng):
        data, _ = three_blobs(rng)
        centers = kmeans_plusplus_init(data, 3, rng)
        for c in centers:
            assert np.any(np.all(np.isclose(data, c), axis=1))

    def test_handles_identical_points(self, rng):
        data = np.ones((10, 2))
        centers = kmeans_plusplus_init(data, 3, rng)
        assert centers.shape == (3, 2)


class TestKMeans:
    def test_recovers_three_blobs(self, rng):
        data, true_centers = three_blobs(rng)
        result = KMeans(3, random_state=0).fit(data)
        assert result.n_clusters == 3
        # every true centre is close to some estimated centre
        for c in true_centers:
            distances = np.linalg.norm(result.centers - c, axis=1)
            assert distances.min() < 1.0

    def test_counts_sum_to_bag_size(self, rng):
        data, _ = three_blobs(rng)
        result = KMeans(3, random_state=0).fit(data)
        assert result.counts.sum() == len(data)

    def test_labels_match_counts(self, rng):
        data, _ = three_blobs(rng)
        result = KMeans(3, random_state=0).fit(data)
        recount = np.bincount(result.labels, minlength=result.n_clusters)
        assert np.array_equal(recount.astype(float), result.counts)

    def test_reduces_k_for_few_unique_points(self):
        data = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        result = KMeans(5, random_state=0).fit(data)
        assert result.n_clusters <= 2

    def test_reproducible_with_seed(self, rng):
        data, _ = three_blobs(rng)
        r1 = KMeans(3, random_state=42).fit(data)
        r2 = KMeans(3, random_state=42).fit(data)
        assert np.allclose(np.sort(r1.centers, axis=0), np.sort(r2.centers, axis=0))

    def test_inertia_decreases_with_more_clusters(self, rng):
        data, _ = three_blobs(rng)
        inertia_2 = KMeans(2, random_state=0).fit(data).inertia
        inertia_6 = KMeans(6, random_state=0).fit(data).inertia
        assert inertia_6 <= inertia_2

    def test_fit_predict_returns_labels(self, rng):
        data, _ = three_blobs(rng)
        labels = KMeans(3, random_state=0).fit_predict(data)
        assert labels.shape == (len(data),)

    def test_result_property_requires_fit(self):
        with pytest.raises(NotFittedError):
            _ = KMeans(3).result_

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            KMeans(0)
        with pytest.raises(ValidationError):
            KMeans(3, tol=-1.0)

    def test_one_dimensional_input_promoted(self, rng):
        data = rng.normal(size=50)
        result = KMeans(4, random_state=0).fit(data)
        assert result.centers.shape[1] == 1


# ---------------------------------------------------------------------- #
# Reference k-means: the per-cluster Lloyd loop the vectorised kernel
# replaced, kept as an independent oracle for labels, centres and the
# generator's draws.
# ---------------------------------------------------------------------- #
def reference_assign(data, centers):
    sq = (
        np.sum(data**2, axis=1)[:, None]
        - 2.0 * data @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    return np.argmin(sq, axis=1)


def reference_lloyd_step(data, centers):
    labels = reference_assign(data, centers)
    new_centers = centers.copy()
    for k in range(centers.shape[0]):
        members = data[labels == k]
        if len(members) > 0:
            new_centers[k] = members.mean(axis=0)
        else:
            distances = np.sum((data - centers[labels]) ** 2, axis=1)
            new_centers[k] = data[int(np.argmax(distances))]
    labels = reference_assign(data, new_centers)
    inertia = float(np.sum((data - new_centers[labels]) ** 2))
    return new_centers, labels, inertia


def reference_lloyd(data, centers, max_iter=100, tol=1e-7):
    prev_inertia = np.inf
    for _ in range(max_iter):
        centers, labels, inertia = reference_lloyd_step(data, centers)
        if prev_inertia - inertia <= tol:
            break
        prev_inertia = inertia
    return centers, labels, inertia


def reference_fit(data, n_clusters, rng, n_init=4):
    """(centres, counts, labels) of the best of ``n_init`` k-means++ restarts."""
    k = min(n_clusters, np.unique(data, axis=0).shape[0])
    best = None
    for _ in range(n_init):
        centers, labels, inertia = reference_lloyd(data, kmeans_plusplus_init(data, k, rng))
        result = drop_empty_clusters(centers, counts_from_labels(labels, k), labels)
        if best is None or inertia < best[0]:
            best = (inertia, result)
    return best[1]


@st.composite
def kmeans_bags(draw):
    """A bag with duplicate rows and, sometimes, fewer distinct rows than K."""
    n_clusters = draw(st.integers(1, 8))
    n = draw(st.integers(n_clusters + 1, 300))
    d = draw(st.integers(1, 10))
    distinct = draw(st.one_of(st.integers(1, max(n_clusters - 1, 1)), st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Integer grid: member sums are exact in any order, so ties
        # between equidistant centres break the same way in both kernels.
        rows = rng.integers(-3, 4, size=(distinct, d)).astype(float)
    else:
        rows = rng.normal(0.0, 5.0, size=(distinct, d))
    data = rows[rng.integers(distinct, size=n)]
    return data, n_clusters, draw(st.integers(0, 2**32 - 1))


class TestKMeansAgainstReference:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kmeans_bags())
    def test_fit_matches_reference_loop(self, case):
        data, n_clusters, seed = case
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = KMeans(n_clusters, random_state=rng).fit(data)
        reference = reference_fit(data, n_clusters, reference_rng)
        np.testing.assert_array_equal(result.counts, reference.counts)
        np.testing.assert_array_equal(result.labels, reference.labels)
        np.testing.assert_allclose(result.centers, reference.centers, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_empty_cluster_is_reseeded_with_the_farthest_point(self):
        data = np.array([[0.0], [1.0], [10.0], [11.0]])
        # The centre at 100 starts empty and takes 11, the point farthest
        # from its centre; a step later the centre at 1 empties and takes 1.
        inits = np.array([[[0.0], [1.0], [100.0]]])
        result = refine(data, inits, max_iter=100, tol=1e-7)
        centers, labels, inertia = reference_lloyd(data, inits[0])
        np.testing.assert_array_equal(result.centers, [[0.0], [1.0], [10.5]])
        np.testing.assert_array_equal(result.counts, [1.0, 1.0, 2.0])
        np.testing.assert_allclose(result.centers, centers, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(result.labels, labels)
        assert result.inertia == inertia

    def test_refine_needs_a_start(self, rng):
        with pytest.raises(ValidationError):
            refine(rng.normal(size=(10, 2)), np.empty((0, 3, 2)), max_iter=100, tol=1e-7)


class TestKMedoids:
    def test_recovers_three_blobs(self, rng):
        data, true_centers = three_blobs(rng)
        result = KMedoids(3, random_state=0).fit(data)
        assert result.n_clusters == 3
        for c in true_centers:
            assert np.linalg.norm(result.centers - c, axis=1).min() < 1.0

    def test_medoids_are_data_points(self, rng):
        data, _ = three_blobs(rng)
        result = KMedoids(3, random_state=0).fit(data)
        for center in result.centers:
            assert np.any(np.all(np.isclose(data, center), axis=1))

    def test_counts_sum_to_bag_size(self, rng):
        data, _ = three_blobs(rng, n_per_blob=20)
        result = KMedoids(3, random_state=0).fit(data)
        assert result.counts.sum() == len(data)

    def test_custom_metric(self, rng):
        data, _ = three_blobs(rng, n_per_blob=10)
        manhattan = lambda a, b: float(np.abs(a - b).sum())
        result = KMedoids(3, metric=manhattan, random_state=0).fit(data)
        assert result.n_clusters == 3

    def test_k_larger_than_n(self):
        data = np.array([[0.0], [5.0]])
        result = KMedoids(5).fit(data)
        assert result.n_clusters <= 2

    def test_pairwise_distances_euclidean_symmetric(self, rng):
        data = rng.normal(size=(10, 3))
        dist = pairwise_distances(data)
        assert np.allclose(dist, dist.T)
        assert np.allclose(np.diag(dist), 0.0)


class TestHistogramQuantizer:
    def test_1d_counts_preserved(self, rng):
        data = rng.normal(size=200)
        result = HistogramQuantizer(bins=10).fit(data)
        assert result.counts.sum() == 200

    def test_centers_inside_range(self):
        data = np.linspace(0.0, 1.0, 50)
        result = HistogramQuantizer(bins=5, range=(0.0, 1.0)).fit(data)
        assert np.all(result.centers >= 0.0) and np.all(result.centers <= 1.0)

    def test_fixed_range_grid_alignment(self):
        quantizer = HistogramQuantizer(bins=4, range=(0.0, 4.0))
        r1 = quantizer.fit(np.array([0.5, 1.5]))
        r2 = quantizer.fit(np.array([2.5, 3.5]))
        together = np.concatenate([r1.centers.ravel(), r2.centers.ravel()])
        assert np.allclose(sorted(together), [0.5, 1.5, 2.5, 3.5])

    def test_2d_binning(self, rng):
        data = rng.uniform(0, 1, size=(100, 2))
        result = HistogramQuantizer(bins=3).fit(data)
        assert result.centers.shape[1] == 2
        assert result.counts.sum() == 100

    def test_per_dimension_bins(self, rng):
        data = rng.uniform(0, 1, size=(100, 2))
        result = HistogramQuantizer(bins=[2, 5]).fit(data)
        assert result.centers.shape[0] <= 10

    def test_bins_dimension_mismatch_rejected(self, rng):
        data = rng.uniform(0, 1, size=(10, 2))
        with pytest.raises(ValidationError):
            HistogramQuantizer(bins=[2, 3, 4]).fit(data)

    def test_out_of_range_values_clipped_to_edge_bins(self):
        result = HistogramQuantizer(bins=4, range=(0.0, 1.0)).fit(np.array([-5.0, 5.0]))
        assert result.counts.sum() == 2

    def test_degenerate_range_handled(self):
        result = HistogramQuantizer(bins=3).fit(np.array([2.0, 2.0, 2.0]))
        assert result.counts.sum() == 3

    def test_invalid_range_shape_rejected(self, rng):
        data = rng.uniform(size=(10, 2))
        with pytest.raises(ValidationError):
            HistogramQuantizer(bins=3, range=[0.0, 1.0, 2.0]).fit(data)

    @staticmethod
    def _reference_fit(data, bins, value_range):
        """Per-dimension digitise, then ``np.unique`` over the flat bin index."""
        data = np.asarray(data, dtype=float).reshape(len(data), -1)
        d = data.shape[1]
        bins = [bins] * d if np.isscalar(bins) else list(bins)
        if value_range is None:
            ranges = [(data[:, j].min(), data[:, j].max()) for j in range(d)]
            ranges = [(low, high if high > low else low + 1.0) for low, high in ranges]
        else:
            spec = np.asarray(value_range, dtype=float).reshape(-1, 2)
            ranges = [tuple(spec[0])] * d if spec.shape[0] == 1 else [tuple(r) for r in spec]
        edges = [np.linspace(low, high, nb + 1) for (low, high), nb in zip(ranges, bins)]
        indices = np.column_stack([
            np.clip(np.digitize(data[:, j], edges[j][1:-1]), 0, bins[j] - 1) for j in range(d)
        ])
        flat = np.ravel_multi_index(indices.T, bins)
        unique_flat, labels, counts = np.unique(flat, return_inverse=True, return_counts=True)
        multi = np.array(np.unravel_index(unique_flat, bins)).T
        centers = np.column_stack([
            (0.5 * (edges[j][:-1] + edges[j][1:]))[multi[:, j]] for j in range(d)
        ])
        inertia = float(np.sum((data - centers[labels]) ** 2))
        return centers, counts.astype(float), labels, inertia

    @pytest.mark.parametrize(
        "bins, value_range, dim",
        [
            (4, (-3.0, 6.0), 2),          # the shared-grid fleet setting
            ([3, 5], ((0.0, 1.0), (-2.0, 2.0)), 2),
            (10, (0.0, 1.0), 1),
            (10, (-1.0, 1.0), 4),         # 10,000 bins: the np.unique branch
        ],
    )
    def test_fit_matches_unique_reference(self, rng, bins, value_range, dim):
        quantizer = HistogramQuantizer(bins=bins, range=value_range)
        spec = np.asarray(value_range, dtype=float).reshape(-1, 2)
        inner_edges = np.linspace(spec[0, 0], spec[0, 1], (bins if np.isscalar(bins) else bins[0]) + 1)
        bags = [
            rng.normal(1.0, 2.0, size=(100, dim)),     # some points outside the range
            np.tile(inner_edges[1:-1], dim)[: 3 * dim].reshape(-1, dim),  # on inner edges
            np.full((5, dim), spec[0, 0] + 1e-9),      # a one-bin bag
            np.array([[spec[0, 0] - 10.0] * dim, [spec[0, 1] + 10.0] * dim]),  # outside only
        ]
        for bag in bags:
            result = quantizer.fit(bag)  # one quantiser: the cached grid is reused
            centers, counts, labels, inertia = self._reference_fit(bag, bins, value_range)
            assert np.array_equal(result.centers, centers)
            assert np.array_equal(result.counts, counts)
            assert np.array_equal(result.labels, labels)
            assert result.inertia == inertia

    def test_fit_without_range_matches_unique_reference(self, rng):
        quantizer = HistogramQuantizer(bins=4)
        for bag in (rng.normal(size=(100, 2)), rng.normal(size=(7, 3)), np.ones((3, 2))):
            result = quantizer.fit(bag)
            centers, counts, labels, inertia = self._reference_fit(bag, 4, None)
            assert np.array_equal(result.centers, centers)
            assert np.array_equal(result.counts, counts)
            assert np.array_equal(result.labels, labels)
            assert result.inertia == inertia

    def test_reassigned_range_is_not_served_from_the_cache(self):
        quantizer = HistogramQuantizer(bins=2, range=(0.0, 2.0))
        assert np.array_equal(quantizer.fit(np.array([0.5])).centers, [[0.5]])
        quantizer.range = (0.0, 4.0)
        assert np.array_equal(quantizer.fit(np.array([0.5])).centers, [[1.0]])


class TestLearningVectorQuantizer:
    def test_recovers_three_blobs(self, rng):
        data, true_centers = three_blobs(rng)
        result = LearningVectorQuantizer(3, random_state=0, n_epochs=20).fit(data)
        for c in true_centers:
            assert np.linalg.norm(result.centers - c, axis=1).min() < 2.0

    def test_counts_sum_to_bag_size(self, rng):
        data, _ = three_blobs(rng)
        result = LearningVectorQuantizer(3, random_state=0).fit(data)
        assert result.counts.sum() == len(data)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValidationError):
            LearningVectorQuantizer(3, learning_rate=0.0)
        with pytest.raises(ValidationError):
            LearningVectorQuantizer(3, learning_rate=1.5)

    def test_reproducible_with_seed(self, rng):
        data, _ = three_blobs(rng, n_per_blob=15)
        r1 = LearningVectorQuantizer(3, random_state=1).fit(data)
        r2 = LearningVectorQuantizer(3, random_state=1).fit(data)
        assert np.allclose(r1.centers, r2.centers)

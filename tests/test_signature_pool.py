"""k-means signatures built on the detector's worker pool.

``BagChangePointDetector.build_signatures`` seeds every bag serially and
runs the Lloyd refinement through the EMD engine's pool.  These tests pin
that the pooled build equals a bag-by-bag build (atoms, centres and the
generator's final state), that the pool keeps its lazy start, serial
fallback and clean shutdown, and that only centres and counts travel
back from the workers.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import BagChangePointDetector, DetectorConfig
from repro.signatures import SignatureBuilder
from repro.signatures import builders as builders_module

PARITY_TOL = 1e-12
_REFINE_ATOMS = builders_module._refine_atoms


def make_bags(seed: int = 0, n_bags: int = 16):
    """3-D bags of varying size, two of them smaller than K (exact signatures)."""
    rng = np.random.default_rng(seed)
    bags = [
        rng.normal(0.0 if t < n_bags // 2 else 3.0, 1.0, size=(int(rng.integers(40, 90)), 3))
        for t in range(n_bags)
    ]
    bags[1] = bags[1][:5]
    bags[-2] = bags[-2][:8]
    return bags


def bag_by_bag(bags, seed: int):
    """Signatures and generator of the plain per-bag build."""
    rng = np.random.default_rng(seed)
    builder = SignatureBuilder("kmeans", n_clusters=8, random_state=rng)
    return [builder.build(bag, label=i) for i, bag in enumerate(bags)], rng


def assert_same_signatures(signatures, reference):
    assert len(signatures) == len(reference)
    for sig, ref in zip(signatures, reference):
        assert sig.label == ref.label
        np.testing.assert_array_equal(sig.weights, ref.weights)
        np.testing.assert_allclose(sig.positions, ref.positions, rtol=0, atol=PARITY_TOL)


def pooled_detector(backend: str, rng: np.random.Generator) -> BagChangePointDetector:
    return BagChangePointDetector(
        DetectorConfig(parallel_backend=backend, n_workers=2, random_state=rng)
    )


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_pooled_build_equals_bag_by_bag(backend):
    bags = make_bags()
    reference, reference_rng = bag_by_bag(bags, seed=3)
    rng = np.random.default_rng(3)
    with pooled_detector(backend, rng) as detector:
        signatures = detector.build_signatures(bags)
        if backend != "serial":
            assert detector._engine._pool is not None
    assert_same_signatures(signatures, reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_process_pool_starts_lazily_and_stops_at_close():
    bags = make_bags(n_bags=12)
    config = DetectorConfig(
        tau=3, tau_test=3, n_bootstrap=20, parallel_backend="process", n_workers=2, random_state=0
    )
    detector = BagChangePointDetector(config)
    assert detector._engine._pool is None
    detector.detect(bags)
    assert detector._engine._pool is not None
    assert multiprocessing.active_children() != []
    detector.close()
    assert multiprocessing.active_children() == []


def _refine_or_die_in_worker(job):
    """Kill the worker process that runs it; in the parent, refine normally."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _REFINE_ATOMS(job)


def test_broken_pool_falls_back_to_serial(monkeypatch):
    bags = make_bags()
    reference, reference_rng = bag_by_bag(bags, seed=4)
    monkeypatch.setattr(builders_module, "_refine_atoms", _refine_or_die_in_worker)
    rng = np.random.default_rng(4)
    with pooled_detector("process", rng) as detector:
        signatures = detector.build_signatures(bags)
        assert detector._engine._pool_failed and detector._engine._pool is None
    assert_same_signatures(signatures, reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert multiprocessing.active_children() == []


def test_refinement_returns_only_centres_and_counts():
    bags = make_bags()
    returned = []

    def recording_mapper(fn, jobs):
        results = [fn(job) for job in jobs]
        returned.extend(results)
        return results

    builder = SignatureBuilder("kmeans", n_clusters=8, random_state=0)
    signatures = builder.build_sequence(bags, mapper=recording_mapper)
    # Bags with no more than K points are represented exactly, unseeded.
    assert len(returned) == sum(len(bag) > 8 for bag in bags)
    for item in returned:
        centers, counts = item
        assert centers.ndim == 2 and counts.shape == (centers.shape[0],)
    reference = [builder.build(bag, label=i) for i, bag in enumerate(bags)]
    assert_same_signatures(signatures, reference)


@pytest.mark.parametrize("method", ["kmedoids", "lvq", "histogram", "exact"])
def test_other_quantisers_ignore_the_mapper(method):
    bags = make_bags(n_bags=6)

    def refusing_mapper(fn, jobs):
        raise AssertionError("only k-means refinement is mapped")

    pooled = SignatureBuilder(method, n_clusters=4, bins=3, random_state=1)
    plain = SignatureBuilder(method, n_clusters=4, bins=3, random_state=1)
    assert_same_signatures(
        pooled.build_sequence(bags, mapper=refusing_mapper), plain.build_sequence(bags)
    )

"""Tests of the benchmark's own machinery: percentiles, span reduction, oracle."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.oracle import partial_matching_emd, sample_band_pairs
from perfbench.stats import highest_percentile, tail_count
from perfbench.tracing import Span, Tracer, layer_metrics, self_times


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected
    if expected is not None:
        assert tail_count(n, expected) >= 10


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "detect", 0.0, 10.0),
        Span(1, "emd", 1.0, 4.0, parent=0),
        Span(2, "scoring", 3.0, 6.0, parent=0),  # overlaps its sibling
        Span(3, "signatures", 2.0, 3.0, parent=1),
        Span(4, "threshold", 9.5, 11.0, parent=0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx({0: 4.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})


def test_layer_metrics_derive_routes_from_engine_counts():
    spans = [
        Span(0, "detect", 0.0, 5.0),
        Span(1, "emd", 1.0, 3.0, parent=0,
             counts={"n_evaluations": 10, "n_fast_path": 2, "n_linprog_batched": 6,
                     "n_sinkhorn_batched": 0, "n_cost_cache_hits": 1}),
        Span(2, "signatures", 0.0, 0.5, parent=0),
        Span(3, "signatures", 0.5, 1.0, parent=0),
    ]
    metrics = layer_metrics(spans)
    assert metrics["emd.pairs"] == 10
    assert metrics["emd.pairs_per_pair_lp"] == 2
    assert metrics["emd.batched_share"] == pytest.approx(6 / 8)
    assert metrics["emd.ms_per_pair"] == pytest.approx(200.0)
    assert metrics["signatures.bags"] == 2
    assert metrics["signatures.ms_per_bag"] == pytest.approx(500.0)


def test_oracle_matches_the_1d_closed_form_on_equal_masses():
    from repro.emd import wasserstein_1d

    rng = np.random.default_rng(7)
    for _ in range(5):
        pos_a, pos_b = rng.normal(size=6), rng.normal(1.0, 2.0, size=4)
        w_a = rng.uniform(0.5, 2.0, size=6)
        w_b = rng.uniform(0.5, 2.0, size=4)
        w_b *= w_a.sum() / w_b.sum()
        expected = wasserstein_1d(pos_a, w_a, pos_b, w_b)
        assert partial_matching_emd(pos_a, w_a, pos_b, w_b) == pytest.approx(expected, abs=1e-9)


def test_oracle_on_a_hand_solved_partial_matching():
    # Mass 1 at 0 and at 2 against mass 1 at 1 and 3 at 5: two units move,
    # 0 -> 1 (cost 1) and 2 -> 5 (cost 3), so the EMD is 4 / 2.
    got = partial_matching_emd([0.0, 2.0], [1.0, 1.0], [1.0, 5.0], [1.0, 3.0])
    assert got == pytest.approx(2.0, abs=1e-12)


def test_sampled_band_pairs_are_distinct_and_in_band():
    pairs = sample_band_pairs(30, 10, 40, np.random.default_rng(0))
    assert len(set(pairs)) == 40
    assert all(0 < j - i < 10 and j < 30 for i, j in pairs)


def test_tracer_restores_the_library_and_leaves_results_unchanged():
    from repro import OnlineBagDetector
    from repro.emd import PairwiseEMDEngine

    rng = np.random.default_rng(3)
    bags = [rng.normal(0.0 if t < 8 else 3.0, 1.0, size=(20, 1)) for t in range(14)]
    config = dict(tau=3, tau_test=3, signature_method="exact", n_bootstrap=20, random_state=0)
    original = PairwiseEMDEngine.compute_pairs

    plain = OnlineBagDetector(**config).push_many(bags)
    with Tracer() as tracer:
        traced = OnlineBagDetector(**config).push_many(bags)
    assert PairwiseEMDEngine.compute_pairs is original
    assert [p.score for p in traced] == [p.score for p in plain]
    metrics = layer_metrics(tracer.spans)
    assert metrics["signatures.bags"] == 14
    assert metrics["scoring.windows"] == len(plain)
    assert metrics["emd.pairs"] == sum(min(t, 5) for t in range(14))

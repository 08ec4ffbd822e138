"""The stacked exact route of :class:`~repro.emd.PairwiseEMDEngine`.

Every pair that misses the LP-free 1-D solvers (a 1-D pair under a
metric other than ``sqeuclidean`` or a callable) is grouped by
``(dimension, K_a, K_b)`` and solved in block-diagonal HiGHS LPs.  These
tests pin both routes to:

* an LP-free oracle — for signatures with integer counts, the EMD equals
  an assignment problem over unit masses, which
  :func:`scipy.optimize.linear_sum_assignment` solves exactly;
* the routing itself: which pairs take the 1-D solvers and which the LP;
* a band of per-pair :func:`~repro.emd.emd` oracle values, over every
  signature builder and every ground distance;
* the per-pair LP :func:`~repro.emd.solve_emd_linprog`, with unequal
  masses and zero-weight atoms;
* itself under re-batching (full, split, one pair at a time);
* failure attribution per shape group, with and without a worker pool;
* the worker pool: pooled chunks equal the serial band, and no worker
  process survives ``close()``.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core import BagChangePointDetector, DetectorConfig
from repro.emd import (
    PairwiseEMDEngine,
    emd,
    solve_emd_linprog,
    solve_emd_linprog_batch,
    wasserstein_1d,
)
from repro.emd.ground_distance import GROUND_DISTANCES, cross_distance_matrix
from repro.exceptions import SolverError
from repro.signatures import Signature, SignatureBuilder
from repro.signatures.builders import SIGNATURE_METHODS

ORACLE_TOL = 1e-9
PARITY_TOL = 1e-12


def assignment_emd(sig_a, sig_b, ground_distance="euclidean"):
    """Exact EMD of two integer-count signatures, without an LP.

    Each atom of weight ``c`` becomes ``c`` unit-mass copies; the
    transportation polytope with integer margins has integral vertices,
    so the optimal flow is an optimal assignment between the copies.
    With unequal masses the rectangular assignment matches every copy of
    the lighter side, i.e. moves ``min(A, B)`` units (Eq. 11).
    """
    counts_a = sig_a.weights.astype(int)
    counts_b = sig_b.weights.astype(int)
    assert np.array_equal(counts_a, sig_a.weights)
    assert np.array_equal(counts_b, sig_b.weights)
    points_a = np.repeat(sig_a.positions, counts_a, axis=0)
    points_b = np.repeat(sig_b.positions, counts_b, axis=0)
    cost = cross_distance_matrix(points_a, points_b, ground_distance)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / min(counts_a.sum(), counts_b.sum()))


def integer_signature(rng, size, dimension, total):
    """``size`` atoms carrying ``total`` unit counts, every atom at least one."""
    counts = np.ones(size, dtype=int)
    np.add.at(counts, rng.integers(0, size, total - size), 1)
    positions = rng.integers(-4, 5, size=(size, dimension)) + rng.uniform(
        -0.5, 0.5, size=(size, dimension)
    )
    return Signature(positions, counts.astype(float))


@st.composite
def equal_mass_batches(draw):
    """A batch of equal-mass integer-count pairs with mixed shapes."""
    seed = draw(st.integers(0, 2**32 - 1))
    dimension = draw(st.sampled_from([1, 2, 3]))
    shapes = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=8
        )
    )
    rng = np.random.default_rng(seed)
    pairs = []
    for size_a, size_b in shapes:
        total = max(size_a, size_b) + int(rng.integers(0, 8))
        pairs.append(
            (
                integer_signature(rng, size_a, dimension, total),
                integer_signature(rng, size_b, dimension, total),
            )
        )
    return pairs


def random_pairs(rng, n_pairs, dimension=2):
    """Real-valued pairs with unequal masses and a handful of shapes."""
    pairs = []
    for _ in range(n_pairs):
        size_a, size_b = rng.integers(1, 7, size=2)
        pairs.append(
            (
                Signature(
                    rng.normal(size=(size_a, dimension)), rng.uniform(0.1, 3.0, size_a)
                ),
                Signature(
                    rng.normal(size=(size_b, dimension)), rng.uniform(0.1, 3.0, size_b)
                ),
            )
        )
    return pairs


# ---------------------------------------------------------------------- #
# Independent oracle
# ---------------------------------------------------------------------- #
class TestAssignmentOracle:
    def test_oracle_matches_hand_solved_pair(self):
        sig_a = Signature(np.array([[0.0], [1.0]]), np.array([2.0, 1.0]))
        sig_b = Signature(np.array([[0.0], [3.0]]), np.array([1.0, 2.0]))
        # One unit stays at 0; one unit moves 0 -> 3 and one 1 -> 3.
        assert assignment_emd(sig_a, sig_b) == pytest.approx(5.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("ground_distance", ["euclidean", "cityblock", "sqeuclidean"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pairs=equal_mass_batches())
    def test_engine_matches_oracle(self, ground_distance, pairs):
        engine = PairwiseEMDEngine(ground_distance=ground_distance)
        values = engine.compute_pairs(pairs)
        expected = [assignment_emd(a, b, ground_distance) for a, b in pairs]
        np.testing.assert_allclose(values, expected, rtol=0, atol=ORACLE_TOL)
        # Every pair took one of the two exact routes; none went per-pair.
        assert engine.n_fast_path + engine.n_linprog_batched == len(pairs)

    def test_mixed_shapes_share_one_batch(self):
        rng = np.random.default_rng(3)
        pairs = []
        for dimension in (1, 2, 3):
            for size_a, size_b in ((2, 5), (5, 2), (4, 4), (1, 6)):
                pairs.append(
                    (
                        integer_signature(rng, size_a, dimension, 9),
                        integer_signature(rng, size_b, dimension, 9),
                    )
                )
        engine = PairwiseEMDEngine(ground_distance="sqeuclidean")
        values = engine.compute_pairs(pairs)
        expected = [assignment_emd(a, b, "sqeuclidean") for a, b in pairs]
        np.testing.assert_allclose(values, expected, rtol=0, atol=ORACLE_TOL)
        # sqeuclidean has no closed form, so all twelve pairs were stacked.
        assert engine.n_linprog_batched == len(pairs)


# ---------------------------------------------------------------------- #
# The LP-free 1-D route
# ---------------------------------------------------------------------- #
@st.composite
def unequal_mass_1d_pairs(draw):
    """1-D integer-count pairs on a coarse grid: ties and unequal masses."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        size_a, size_b = (int(k) for k in rng.integers(1, 7, size=2))
        sig_a = integer_signature(rng, size_a, 1, size_a + int(rng.integers(0, 8)))
        sig_b = integer_signature(rng, size_b, 1, size_b + int(rng.integers(0, 8)))
        if draw(st.booleans()):  # integer positions: a- and b-atoms tie
            sig_a = Signature(np.round(sig_a.positions), sig_a.weights)
            sig_b = Signature(np.round(sig_b.positions), sig_b.weights)
        pairs.append((sig_a, sig_b))
    return pairs


class TestOneDimensionalRoute:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pairs=unequal_mass_1d_pairs())
    def test_unequal_masses_match_assignment_oracle(self, pairs):
        engine = PairwiseEMDEngine()
        values = engine.compute_pairs(pairs)
        expected = [assignment_emd(a, b) for a, b in pairs]
        np.testing.assert_allclose(values, expected, rtol=0, atol=PARITY_TOL)
        assert engine.n_fast_path == len(pairs)
        assert engine.n_linprog_batched == 0

    @pytest.mark.parametrize(
        "ground_distance", ["euclidean", "cityblock", "manhattan", "chebyshev"]
    )
    def test_lp_metrics_take_the_1d_route(self, ground_distance):
        pairs = random_pairs(np.random.default_rng(21), 30, dimension=1)
        engine = PairwiseEMDEngine(ground_distance=ground_distance)
        values = engine.compute_pairs(pairs)
        assert engine.n_fast_path == len(pairs)
        assert engine.n_linprog_batched == 0
        expected = [
            emd(a, b, ground_distance=ground_distance, backend="linprog") for a, b in pairs
        ]
        np.testing.assert_allclose(values, expected, rtol=0, atol=PARITY_TOL)

    @pytest.mark.parametrize(
        "ground_distance",
        ["sqeuclidean", lambda a, b: cross_distance_matrix(a, b, "euclidean")],
        ids=["sqeuclidean", "callable"],
    )
    def test_other_metrics_stay_on_the_lp(self, ground_distance):
        pairs = random_pairs(np.random.default_rng(22), 30, dimension=1)
        engine = PairwiseEMDEngine(ground_distance=ground_distance)
        values = engine.compute_pairs(pairs)
        assert engine.n_fast_path == 0
        assert engine.n_linprog_batched == len(pairs)
        expected = [
            emd(a, b, ground_distance=ground_distance, backend="linprog") for a, b in pairs
        ]
        np.testing.assert_allclose(values, expected, rtol=0, atol=PARITY_TOL)

    def test_swapped_pairs_are_bit_identical(self):
        pairs = random_pairs(np.random.default_rng(23), 200, dimension=1)
        forward = PairwiseEMDEngine().compute_pairs(pairs)
        swapped = PairwiseEMDEngine().compute_pairs([(b, a) for a, b in pairs])
        np.testing.assert_array_equal(swapped, forward)

    def test_masses_equal_within_tolerance_keep_the_closed_form(self, monkeypatch):
        from repro.emd import batch as batch_module

        rng = np.random.default_rng(24)
        pairs = []
        for size_a, size_b in ((3, 5), (8, 8), (1, 4), (6, 2)):
            weights_a = rng.uniform(0.5, 2.0, size_a)
            weights_b = rng.uniform(0.5, 2.0, size_b)
            # Off by half the 1e-9 relative tolerance: still "equal".
            weights_b *= weights_a.sum() / weights_b.sum() * (1.0 + 5e-10)
            pairs.append(
                (
                    Signature(rng.normal(size=(size_a, 1)), weights_a),
                    Signature(rng.normal(size=(size_b, 1)), weights_b),
                )
            )
        closed_form = batch_module._batched_wasserstein_1d(pairs)

        def no_slope_trick(*args):
            raise AssertionError("an equal-mass pair left the closed form")

        monkeypatch.setattr(batch_module, "_partial_emd_1d", no_slope_trick)
        engine = PairwiseEMDEngine()
        np.testing.assert_array_equal(engine.compute_pairs(pairs), closed_form)
        assert engine.n_fast_path == len(pairs)
        for sig_a, sig_b in pairs:
            assert emd(sig_a, sig_b) == wasserstein_1d(
                sig_a.positions[:, 0], sig_a.weights, sig_b.positions[:, 0], sig_b.weights
            )


# ---------------------------------------------------------------------- #
# Per-pair LP parity
# ---------------------------------------------------------------------- #
class TestOracleBandGrid:
    """The default engine's band against per-pair ``emd()`` oracles."""

    @pytest.fixture(scope="class")
    def signatures_by_method(self):
        rng = np.random.default_rng(2016)
        bags = [rng.normal(0.0 if t < 4 else 2.0, 1.0, size=(12, 2)) for t in range(8)]
        return {
            method: SignatureBuilder(
                method, n_clusters=3, bins=3, random_state=7
            ).build_sequence(bags)
            for method in SIGNATURE_METHODS
        }

    @pytest.mark.parametrize("oracle", ["linprog", "simplex"])
    @pytest.mark.parametrize("method", SIGNATURE_METHODS)
    @pytest.mark.parametrize("ground_distance", GROUND_DISTANCES)
    def test_band_matches_per_pair_oracle(
        self, signatures_by_method, oracle, method, ground_distance
    ):
        signatures = signatures_by_method[method]
        band = PairwiseEMDEngine(ground_distance=ground_distance).banded_matrix(
            signatures, 4
        )
        rows, cols = band.pair_indices()
        expected = [
            emd(signatures[i], signatures[j], ground_distance=ground_distance, backend=oracle)
            for i, j in zip(rows.tolist(), cols.tolist())
        ]
        values = [band[i, j] for i, j in zip(rows.tolist(), cols.tolist())]
        np.testing.assert_allclose(values, expected, rtol=0, atol=ORACLE_TOL)


class TestPerPairParity:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_unequal_masses_match_per_pair_lp(self, dimension):
        rng = np.random.default_rng(10 + dimension)
        pairs = random_pairs(rng, 40, dimension)
        engine = PairwiseEMDEngine()
        values = engine.compute_pairs(pairs)
        expected = [emd(a, b, backend="linprog") for a, b in pairs]
        np.testing.assert_allclose(values, expected, rtol=0, atol=PARITY_TOL)
        if dimension == 1:
            # Unequal masses miss the closed form, but 1-D pairs never
            # reach the LP: they take the slope-trick solver.
            assert engine.n_linprog_batched == 0
            assert engine.n_fast_path == len(pairs)
        else:
            assert engine.n_linprog_batched == len(pairs)

    def test_linprog_batch_is_stored_as_auto(self):
        assert DetectorConfig(emd_backend="linprog_batch").emd_backend == "auto"

    def test_zero_weight_atoms_match_per_pair_lp(self):
        rng = np.random.default_rng(4)
        pairs, expected = [], []
        for _ in range(20):
            positions_a = rng.normal(size=(5, 2))
            positions_b = rng.normal(size=(4, 2))
            weights_a = rng.uniform(0.5, 2.0, 5)
            weights_b = rng.uniform(0.5, 2.0, 4)
            weights_a[rng.integers(0, 5)] = 0.0
            weights_b[rng.integers(0, 4)] = 0.0
            cost = cross_distance_matrix(positions_a, positions_b, "euclidean")
            plan = solve_emd_linprog(cost, weights_a, weights_b)
            expected.append(plan.cost / plan.total_flow)
            pairs.append(
                (Signature(positions_a, weights_a), Signature(positions_b, weights_b))
            )
        values = PairwiseEMDEngine().compute_pairs(pairs)
        np.testing.assert_allclose(values, expected, rtol=0, atol=PARITY_TOL)

    def test_solver_zero_weight_rows_match_per_pair_lp(self):
        # The stacked solver itself, fed per-pair cost tensors whose
        # supply/demand rows carry zero-weight atoms.
        rng = np.random.default_rng(5)
        cost = rng.uniform(0.0, 3.0, size=(30, 4, 6))
        supply = rng.uniform(0.5, 2.0, size=(30, 4))
        demand = rng.uniform(0.5, 2.0, size=(30, 6))
        supply[rng.random(supply.shape) < 0.25] = 0.0
        demand[rng.random(demand.shape) < 0.25] = 0.0
        batch = solve_emd_linprog_batch(cost, supply, demand)
        for p in range(30):
            plan = solve_emd_linprog(cost[p], supply[p], demand[p])
            expected = plan.cost / plan.total_flow if plan.total_flow > 0 else 0.0
            assert batch.distances[p] == pytest.approx(expected, abs=PARITY_TOL)


# ---------------------------------------------------------------------- #
# Batch composition
# ---------------------------------------------------------------------- #
class TestBatchComposition:
    def test_full_split_and_single_batches_agree(self):
        rng = np.random.default_rng(6)
        pairs = random_pairs(rng, 60)
        full = PairwiseEMDEngine().compute_pairs(pairs)
        split_engine = PairwiseEMDEngine()
        split = np.concatenate(
            [split_engine.compute_pairs(pairs[:17]), split_engine.compute_pairs(pairs[17:])]
        )
        single_engine = PairwiseEMDEngine()
        single = np.array([single_engine.compute(a, b) for a, b in pairs])
        np.testing.assert_allclose(split, full, rtol=0, atol=PARITY_TOL)
        np.testing.assert_allclose(single, full, rtol=0, atol=PARITY_TOL)

    def test_chunks_beyond_the_variable_cap_agree(self, monkeypatch):
        # Force one pair per stacked LP: a chunk boundary must not move
        # any distance beyond the exact-backend contract.
        from repro.emd import linprog_batch

        rng = np.random.default_rng(7)
        pairs = random_pairs(rng, 30)
        full = PairwiseEMDEngine().compute_pairs(pairs)
        monkeypatch.setattr(linprog_batch, "_MAX_BATCH_VARIABLES", 1)
        chunked = PairwiseEMDEngine().compute_pairs(pairs)
        np.testing.assert_allclose(chunked, full, rtol=0, atol=PARITY_TOL)


# ---------------------------------------------------------------------- #
# Failure attribution
# ---------------------------------------------------------------------- #
class TestShapeGroupFailures:
    def make_two_group_batch(self):
        rng = np.random.default_rng(8)
        small = lambda: Signature(rng.normal(size=(3, 2)), rng.uniform(0.5, 2.0, 3))
        large_a = lambda: Signature(rng.normal(size=(4, 2)), rng.uniform(0.5, 2.0, 4))
        large_b = lambda: Signature(rng.normal(size=(5, 2)), rng.uniform(0.5, 2.0, 5))
        # Positions 0, 2, 4 form the (2, 3, 3) group; 1 and 3 form (2, 4, 5).
        return [
            (small(), small()),
            (large_a(), large_b()),
            (small(), small()),
            (large_a(), large_b()),
            (small(), small()),
        ]

    @pytest.mark.parametrize("parallel_backend", ["serial", "process"])
    @pytest.mark.parametrize(
        "reported, expected", [(None, (1, 3)), ([1], (3,)), ([0], (1,))]
    )
    def test_failure_reports_its_groups_positions(
        self, parallel_backend, reported, expected, monkeypatch
    ):
        from repro.emd import batch as batch_module

        real_solver = batch_module.solve_emd_linprog_batch

        def failing_for_large_group(cost, supply, demand, **kwargs):
            if supply.shape[1] == 4:
                raise SolverError("synthetic group failure", pair_indices=reported)
            return real_solver(cost, supply, demand, **kwargs)

        monkeypatch.setattr(batch_module, "solve_emd_linprog_batch", failing_for_large_group)
        with PairwiseEMDEngine(parallel_backend=parallel_backend, n_workers=2) as engine:
            with pytest.raises(SolverError) as excinfo:
                engine.compute_pairs(self.make_two_group_batch())
        assert excinfo.value.pair_indices == expected


# ---------------------------------------------------------------------- #
# Worker pool
# ---------------------------------------------------------------------- #
class TestWorkerPool:
    def test_process_pool_solves_the_chunks_like_serial(self):
        rng = np.random.default_rng(11)
        pairs = random_pairs(rng, 200)
        reference = PairwiseEMDEngine().compute_pairs(pairs)
        with PairwiseEMDEngine(parallel_backend="process", n_workers=2) as engine:
            values = engine.compute_pairs(pairs)
            assert engine._pool is not None
        np.testing.assert_array_equal(values, reference)
        assert engine.n_linprog_batched == len(pairs)

    def test_process_backend_matches_serial_and_leaves_no_children(self):
        rng = np.random.default_rng(9)
        bags = [rng.normal(0.0, 1.0, size=(40, 2)) for _ in range(10)]
        bags += [rng.normal(2.5, 1.0, size=(40, 2)) for _ in range(10)]
        kwargs = dict(
            tau=4, tau_test=4, signature_method="kmeans", n_bootstrap=20, random_state=0
        )
        with BagChangePointDetector(**kwargs) as serial:
            reference = serial.detect(bags, return_distance_matrix=True)
        detector = BagChangePointDetector(
            parallel_backend="process", n_workers=2, **kwargs
        )
        result = detector.detect(bags, return_distance_matrix=True)
        # The band's stacked chunks went to the pool's worker processes.
        assert multiprocessing.active_children() != []
        detector.close()
        np.testing.assert_allclose(
            result.emd_matrix, reference.emd_matrix, rtol=0, atol=PARITY_TOL
        )
        assert multiprocessing.active_children() == []

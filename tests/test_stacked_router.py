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
* the in-place matching of coincident mass under a metric ground
  distance: the assignment oracle on shared grids, a metamorphic
  relation (mass added at one shared position moves nothing), the
  ``sqeuclidean`` counterexample it must not touch, identical
  signatures with no LP at all, and the duplicate-position fallback;
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
from repro.emd.ground_distance import (
    GROUND_DISTANCES,
    METRIC_GROUND_DISTANCES,
    cross_distance_matrix,
)
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

    def test_closed_form_bits_do_not_depend_on_the_batch(self):
        # The closed form pads every support to the batch's largest; a
        # pair's distance must not move by a single bit when a 40-atom
        # pair joins its batch, nor when it is solved alone.
        rng = np.random.default_rng(25)
        pairs = []
        for _ in range(2000):
            size_a, size_b = (int(k) for k in rng.integers(1, 9, size=2))
            total = max(size_a, size_b) + int(rng.integers(0, 6))
            pairs.append(
                (
                    integer_signature(rng, size_a, 1, total),
                    integer_signature(rng, size_b, 1, total),
                )
            )
        wide = (integer_signature(rng, 40, 1, 60), integer_signature(rng, 3, 1, 60))
        engine = PairwiseEMDEngine()
        batched = engine.compute_pairs(pairs)
        with_wide = engine.compute_pairs(pairs + [wide])
        alone = np.array([engine.compute(a, b) for a, b in pairs])
        assert engine.n_fast_path == engine.n_evaluations
        np.testing.assert_array_equal(with_wide[:-1], batched)
        np.testing.assert_array_equal(alone, batched)


# ---------------------------------------------------------------------- #
# Coincident mass matched in place before the LP
# ---------------------------------------------------------------------- #
METRICS = ("euclidean", "cityblock", "chebyshev")


def grid_points(side, dimension):
    axes = np.meshgrid(*[np.arange(float(side))] * dimension)
    return np.column_stack([axis.ravel() for axis in axes])


def grid_signature(rng, grid, total):
    """Integer counts summing to ``total`` on a random subset of ``grid``."""
    size = int(rng.integers(1, min(total, grid.shape[0]) + 1))
    atoms = np.sort(rng.choice(grid.shape[0], size, replace=False))
    counts = np.ones(size, dtype=int)
    np.add.at(counts, rng.integers(0, size, total - size), 1)
    return Signature(grid[atoms], counts.astype(float))


@st.composite
def shared_grid_batches(draw):
    """Integer-count pairs on one grid, most sharing some positions."""
    seed = draw(st.integers(0, 2**32 - 1))
    equal = draw(st.booleans())
    rng = np.random.default_rng(seed)
    grid = grid_points(3, draw(st.sampled_from([2, 3])))
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        total_a = int(rng.integers(1, 12))
        total_b = total_a if equal else int(rng.integers(1, 12))
        pairs.append((grid_signature(rng, grid, total_a), grid_signature(rng, grid, total_b)))
    return pairs


class LPSpy:
    """Wraps the stacked solver and records the shape of every LP it ran."""

    def __init__(self, monkeypatch):
        from repro.emd import batch as batch_module

        self.real = batch_module._solve_batch_unchecked
        self.shapes = []
        monkeypatch.setattr(batch_module, "_solve_batch_unchecked", self)

    def __call__(self, cost, supply, demand, **kwargs):
        self.shapes.extend([(supply.shape[1], demand.shape[1])] * supply.shape[0])
        return self.real(cost, supply, demand, **kwargs)


class TestCoincidentMass:
    def test_metric_names_are_the_triangle_inequality_ones(self):
        assert set(METRIC_GROUND_DISTANCES) == set(GROUND_DISTANCES) - {"sqeuclidean"}

    @pytest.mark.parametrize("ground_distance", METRICS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pairs=shared_grid_batches())
    def test_shared_grid_pairs_match_assignment_oracle(self, ground_distance, pairs):
        engine = PairwiseEMDEngine(ground_distance=ground_distance)
        values = engine.compute_pairs(pairs)
        expected = [assignment_emd(a, b, ground_distance) for a, b in pairs]
        np.testing.assert_allclose(values, expected, rtol=0, atol=ORACLE_TOL)
        # Vanished pairs (no LP) still count as stacked.
        assert engine.n_linprog_batched == engine.n_evaluations == len(pairs)
        assert engine.n_fast_path == 0

    @pytest.mark.parametrize("equal_masses", [True, False])
    @pytest.mark.parametrize("ground_distance", METRICS)
    def test_mass_added_at_a_shared_position_moves_nothing(
        self, ground_distance, equal_masses
    ):
        # Metamorphic: m more units at one position of both signatures is
        # matched in place, so the transport cost (EMD x total flow) stays.
        rng = np.random.default_rng(METRICS.index(ground_distance) + 10 * equal_masses)
        grid = grid_points(4, 2)
        base, grown = [], []
        for _ in range(30):
            pair = []
            for _side in range(2):
                atoms = np.sort(rng.choice(grid.shape[0], 6, replace=False))
                atoms[0] = 0  # grid[0] is in both supports
                pair.append([grid[atoms], rng.uniform(0.2, 2.0, 6)])
            if equal_masses:
                pair[1][1] *= pair[0][1].sum() / pair[1][1].sum()
            base.append(tuple(Signature(p, w) for p, w in pair))
            mass = rng.uniform(0.1, 3.0)
            bumped = []
            for positions, weights in pair:
                weights = weights.copy()
                weights[0] += mass
                bumped.append(Signature(positions, weights))
            grown.append(tuple(bumped))

        def transport_costs(pairs):
            values = PairwiseEMDEngine(ground_distance=ground_distance).compute_pairs(pairs)
            flows = [min(a.total_weight, b.total_weight) for a, b in pairs]
            return values * np.array(flows)

        np.testing.assert_allclose(
            transport_costs(grown), transport_costs(base), rtol=0, atol=PARITY_TOL
        )

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_sqeuclidean_keeps_its_pairs_whole(self, dimension, monkeypatch):
        # Under a non-metric the coincident unit at 1 must move: matching
        # it in place would leave 0 -> 2 at cost 4, i.e. an EMD of 2.0.
        def at(*xs):
            return np.array([[x] + [0.0] * (dimension - 1) for x in xs])

        pair = (Signature(at(0.0, 1.0), np.ones(2)), Signature(at(1.0, 2.0), np.ones(2)))
        spy = LPSpy(monkeypatch)
        engine = PairwiseEMDEngine(ground_distance="sqeuclidean")
        assert engine.compute_pairs([pair])[0] == pytest.approx(1.0, abs=PARITY_TOL)
        assert spy.shapes == [(2, 2)]
        assert emd(*pair, ground_distance="sqeuclidean", backend="linprog") == pytest.approx(
            1.0, abs=PARITY_TOL
        )

    @pytest.mark.parametrize("ground_distance", METRICS)
    def test_identical_signatures_need_no_lp(self, ground_distance, monkeypatch):
        rng = np.random.default_rng(12)
        signature = Signature(grid_points(3, 2), rng.uniform(0.5, 2.0, 9))
        spy = LPSpy(monkeypatch)
        engine = PairwiseEMDEngine(ground_distance=ground_distance)
        assert engine.compute_pairs([(signature, signature)])[0] == 0.0
        assert spy.shapes == []
        assert engine.n_linprog_batched == engine.n_evaluations == 1

    def test_lighter_side_matched_in_full_needs_no_lp(self, monkeypatch):
        grid = grid_points(3, 2)
        light = Signature(grid[:3], np.array([1.0, 2.0, 0.5]))
        heavy = Signature(grid, np.full(9, 2.0))
        spy = LPSpy(monkeypatch)
        values = PairwiseEMDEngine().compute_pairs([(light, heavy), (heavy, light)])
        np.testing.assert_array_equal(values, [0.0, 0.0])
        assert spy.shapes == []
        assert emd(light, heavy, backend="linprog") == pytest.approx(0.0, abs=PARITY_TOL)

    def test_only_the_moving_mass_reaches_the_lp(self, monkeypatch):
        # a = {x: 2, y: 1}, b = {x: 1, z: 1}: one unit stays at x, and the
        # LP sees a's {x: 1, y: 1} against b's {z: 1}.
        x, y, z = [0.0, 0.0], [1.0, 0.0], [0.0, 2.0]
        sig_a = Signature(np.array([x, y]), np.array([2.0, 1.0]))
        sig_b = Signature(np.array([x, z]), np.array([1.0, 1.0]))
        spy = LPSpy(monkeypatch)
        value = PairwiseEMDEngine().compute(sig_a, sig_b)
        assert spy.shapes == [(2, 1)]
        # 1 unit in place, 1 unit x -> z at cost 2 (or y -> z at sqrt 5).
        assert value == pytest.approx(1.0, abs=PARITY_TOL)
        assert value == pytest.approx(emd(sig_a, sig_b, backend="linprog"), abs=PARITY_TOL)

    @pytest.mark.parametrize("ground_distance", METRICS)
    def test_duplicate_positions_fall_back_to_the_whole_pair(
        self, ground_distance, monkeypatch
    ):
        rng = np.random.default_rng(13)
        grid = grid_points(3, 2)
        pairs = []
        for _ in range(10):
            # Atom 0 and atom 3 of a sit at the same point, which b has too.
            positions_a = grid[[0, 1, 2, 0]]
            pairs.append(
                (
                    Signature(positions_a, rng.uniform(0.5, 2.0, 4)),
                    Signature(grid[[0, 4, 8]], rng.uniform(0.5, 2.0, 3)),
                )
            )
        spy = LPSpy(monkeypatch)
        values = PairwiseEMDEngine(ground_distance=ground_distance).compute_pairs(pairs)
        assert spy.shapes == [(4, 3)] * len(pairs)
        expected = [
            emd(a, b, ground_distance=ground_distance, backend="linprog") for a, b in pairs
        ]
        np.testing.assert_allclose(values, expected, rtol=0, atol=PARITY_TOL)

    def test_duplicates_elsewhere_do_not_block_the_match(self, monkeypatch):
        # a repeats a point b lacks; the shared point is still matched,
        # and a's atom there, used up, leaves the LP.
        positions_a = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        sig_a = Signature(positions_a, np.array([1.0, 1.0, 1.0]))
        sig_b = Signature(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([2.0, 1.0]))
        spy = LPSpy(monkeypatch)
        value = PairwiseEMDEngine().compute(sig_a, sig_b)
        assert spy.shapes == [(2, 2)]
        assert value == pytest.approx(emd(sig_a, sig_b, backend="linprog"), abs=PARITY_TOL)

    def test_failing_residual_chunk_reports_compute_pairs_positions(self, monkeypatch):
        from repro.emd import batch as batch_module

        x, y, z = [0.0, 0.0], [1.0, 0.0], [0.0, 2.0]
        same = Signature(np.array([x, y]), np.array([1.0, 1.0]))
        reduced = (
            Signature(np.array([x, y]), np.array([2.0, 1.0])),
            Signature(np.array([x, z]), np.array([1.0, 1.0])),
        )
        # Positions 0 and 2 vanish; 1 and 3 share one (2, 1) residual LP.
        pairs = [(same, same), reduced, (same, same), reduced]

        def failing_solver(cost, supply, demand, **kwargs):
            assert supply.shape == (2, 2) and demand.shape == (2, 1)
            raise SolverError("synthetic residual failure", pair_indices=[1])

        monkeypatch.setattr(batch_module, "_solve_batch_unchecked", failing_solver)
        with pytest.raises(SolverError) as excinfo:
            PairwiseEMDEngine().compute_pairs(pairs)
        assert excinfo.value.pair_indices == (3,)

    def test_coincidence_blocks_stay_under_the_cost_cap(self, monkeypatch):
        # 300 pairs of 16 x 16 atoms in 2-D: the test compares at most
        # 65,536 coordinates at once (three blocks), and the blocks agree
        # with one pair at a time.
        from repro.emd import batch as batch_module

        rng = np.random.default_rng(14)
        grid = grid_points(4, 2)
        pairs = [
            (
                Signature(grid, rng.integers(1, 5, 16).astype(float)),
                Signature(grid, rng.integers(1, 5, 16).astype(float)),
            )
            for _ in range(300)
        ]
        real_match = batch_module._match_in_place
        blocks = []

        def recording_match(sigs_a, sigs_b, keep_a, keep_b, w_a, w_b):
            blocks.append(keep_a.shape[1] * keep_b.shape[1] * 2 * len(sigs_a))
            return real_match(sigs_a, sigs_b, keep_a, keep_b, w_a, w_b)

        monkeypatch.setattr(batch_module, "_match_in_place", recording_match)
        engine = PairwiseEMDEngine()
        values = engine.compute_pairs(pairs)
        assert len(blocks) == 3 and max(blocks) <= 65_536
        single = np.array([engine.compute(a, b) for a, b in pairs])
        np.testing.assert_allclose(single, values, rtol=0, atol=PARITY_TOL)
        expected = [assignment_emd(a, b) for a, b in pairs[:20]]
        np.testing.assert_allclose(values[:20], expected, rtol=0, atol=ORACLE_TOL)


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

        real_solver = batch_module._solve_batch_unchecked

        def failing_for_large_group(cost, supply, demand, **kwargs):
            if supply.shape[1] == 4:
                raise SolverError("synthetic group failure", pair_indices=reported)
            return real_solver(cost, supply, demand, **kwargs)

        monkeypatch.setattr(batch_module, "_solve_batch_unchecked", failing_for_large_group)
        with PairwiseEMDEngine(parallel_backend=parallel_backend, n_workers=2) as engine:
            with pytest.raises(SolverError) as excinfo:
                engine.compute_pairs(self.make_two_group_batch())
        assert excinfo.value.pair_indices == expected


# ---------------------------------------------------------------------- #
# Worker pool
# ---------------------------------------------------------------------- #
class TestWorkerPool:
    @pytest.mark.parametrize("shared_grid", [False, True], ids=["irregular", "shared-grid"])
    def test_process_pool_solves_the_chunks_like_serial(self, shared_grid):
        rng = np.random.default_rng(11)
        if shared_grid:  # residual chunks, after in-place matching
            grid = grid_points(3, 2)
            pairs = [
                (grid_signature(rng, grid, 12), grid_signature(rng, grid, 9))
                for _ in range(200)
            ]
        else:
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

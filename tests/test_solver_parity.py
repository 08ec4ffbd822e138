"""Cross-solver parity harness and EMD metric-invariant property tests.

The solver matrix has five entries, all exact — the closed-form 1-D
path, the 1-D slope-trick sweep, the transportation simplex, the
per-pair HiGHS LP and the block-diagonal batched LP.  The band engine
routes pairs between the two 1-D paths and the batched LP; the per-pair
solvers are :func:`repro.emd.emd` oracles.  This module pins down what "the same distance" means across
that matrix:

* every path must agree with the per-pair LP reference to within
  ``1e-9`` on one shared fixture corpus covering common-support
  histograms, unequal total masses, zero-weight atoms, single-atom
  signatures and 1-/2-/3-dimensional supports;
* the engine and both per-pair solvers must satisfy the EMD's metric
  invariants (non-negativity, symmetry, identity of indiscernibles,
  triangle inequality) on seeded random normalised signatures;
* a :class:`~repro.exceptions.SolverError` escaping a *batched* group
  solve must identify the pairs that were stacked into the failing
  solve.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import BagChangePointDetector, DetectorConfig
from repro.emd import (
    PairwiseEMDEngine,
    emd,
    solve_emd_linprog,
    solve_emd_linprog_batch,
    solve_unbalanced_transportation,
)
from repro.emd.ground_distance import cross_distance_matrix
from repro.exceptions import ConfigurationError, SolverError, ValidationError
from repro.signatures import Signature

#: Maximum disagreement tolerated between any two exact solve paths.
PARITY_TOL = 1e-9

#: The constraint tolerance ``scipy.optimize.linprog`` accepts a HiGHS
#: solution within: ``sqrt(tol) * 10`` at its default ``tol=1e-9``.
LINPROG_ACCEPT_TOL = np.sqrt(1e-9) * 10


def _grid(side, dim):
    axes = np.meshgrid(*[np.arange(float(side))] * dim)
    return np.column_stack([axis.ravel() for axis in axes])


def _build_corpus():
    """The shared fixture corpus: one deterministic pair per scenario."""
    rng = np.random.default_rng(20160501)
    grid2 = _grid(3, 2)
    n_bins = grid2.shape[0]
    corpus = {}
    # Common-support histograms: both signatures over one full 2-D grid.
    for i in range(3):
        corpus[f"common-support-{i}"] = (
            Signature(grid2, rng.uniform(0.5, 3.0, n_bins)),
            Signature(grid2, rng.uniform(0.5, 3.0, n_bins)),
        )
    # Unequal total masses: the partial-matching functional moves only
    # min(total_a, total_b) units (paper Eq. 11).
    corpus["unequal-mass"] = (
        Signature(grid2, rng.uniform(0.5, 3.0, n_bins)),
        Signature(grid2, rng.uniform(3.0, 8.0, n_bins)),
    )
    # Zero-weight atoms: sparse occupancy patterns over the shared grid
    # (Signature drops the zero atoms, leaving genuinely distinct
    # sub-supports of one grid — the union-embedding scenario).
    weights_a = rng.uniform(0.5, 3.0, n_bins)
    weights_a[rng.random(n_bins) < 0.4] = 0.0
    weights_a[0] = max(weights_a[0], 1.0)
    weights_b = rng.uniform(0.5, 3.0, n_bins)
    weights_b[rng.random(n_bins) < 0.4] = 0.0
    weights_b[-1] = max(weights_b[-1], 1.0)
    corpus["zero-weight-atoms"] = (
        Signature(grid2[weights_a > 0], weights_a[weights_a > 0]),
        Signature(grid2[weights_b > 0], weights_b[weights_b > 0]),
    )
    # Single-atom signature against a full histogram.
    corpus["single-atom"] = (
        Signature(np.array([[0.5, 1.0]]), np.array([2.0])),
        Signature(grid2, rng.uniform(0.5, 2.0, n_bins)),
    )
    # 1-D supports, equal and unequal masses (inside the engine the
    # first takes the closed form, the second the slope-trick sweep).
    x1 = np.sort(rng.normal(size=(5, 1)), axis=0)
    corpus["one-dim-equal-mass"] = (
        Signature(x1, np.full(5, 0.2)),
        Signature(x1 + 0.7, np.full(5, 0.2)),
    )
    corpus["one-dim-unequal-mass"] = (
        Signature(x1, rng.uniform(0.5, 2.0, 5)),
        Signature(x1 * 2.0, rng.uniform(1.5, 3.0, 5)),
    )
    # 3-D supports.
    grid3 = _grid(2, 3)
    corpus["three-dim"] = (
        Signature(grid3, rng.uniform(0.5, 2.0, 8)),
        Signature(grid3 + 0.5, rng.uniform(0.5, 2.0, 8)),
    )
    return corpus


CORPUS = _build_corpus()
CASE_NAMES = sorted(CORPUS)


@pytest.fixture(scope="module")
def reference():
    """Per-pair HiGHS LP distances, the parity reference."""
    return {
        name: emd(sig_a, sig_b, backend="linprog")
        for name, (sig_a, sig_b) in CORPUS.items()
    }


# ---------------------------------------------------------------------- #
# Cross-solver parity on the shared corpus
# ---------------------------------------------------------------------- #
class TestExactSolverParity:
    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_engine_matches_reference(self, name, reference):
        sig_a, sig_b = CORPUS[name]
        with PairwiseEMDEngine() as engine:
            assert engine.compute(sig_a, sig_b) == pytest.approx(
                reference[name], abs=PARITY_TOL
            )

    @pytest.mark.parametrize("parallel_backend", ["serial", "process"])
    def test_engine_matches_reference_in_one_batch(self, parallel_backend, reference):
        # The whole corpus in a single compute_pairs call exercises the
        # stacked route's (d, K_a, K_b) grouping across mixed shapes and
        # dimensionalities, with its chunks solved in-process or on the
        # worker pool.
        pairs = [CORPUS[name] for name in CASE_NAMES]
        with PairwiseEMDEngine(parallel_backend=parallel_backend, n_workers=2) as engine:
            distances = engine.compute_pairs(pairs)
        expected = np.array([reference[name] for name in CASE_NAMES])
        np.testing.assert_allclose(distances, expected, atol=PARITY_TOL, rtol=0)

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_transportation_simplex_matches_reference(self, name, reference):
        sig_a, sig_b = CORPUS[name]
        cost = cross_distance_matrix(sig_a.positions, sig_b.positions, "euclidean")
        plan = solve_unbalanced_transportation(cost, sig_a.weights, sig_b.weights)
        assert plan.cost / plan.total_flow == pytest.approx(
            reference[name], abs=PARITY_TOL
        )

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_block_diagonal_lp_matches_reference(self, name, reference):
        sig_a, sig_b = CORPUS[name]
        cost = cross_distance_matrix(sig_a.positions, sig_b.positions, "euclidean")
        result = solve_emd_linprog_batch(
            cost, sig_a.weights[None, :], sig_b.weights[None, :]
        )
        assert result.distances[0] == pytest.approx(reference[name], abs=PARITY_TOL)

    def test_block_diagonal_multi_pair_matches_per_pair(self):
        # Many pairs over one shared support in a single stacked solve,
        # including zero-weight atoms, unequal masses and rows whose mass
        # concentrates on a single atom.
        rng = np.random.default_rng(7)
        grid = _grid(3, 2)
        n_bins = grid.shape[0]
        cost = cross_distance_matrix(grid, grid, "euclidean")
        supply = rng.uniform(0.5, 3.0, size=(12, n_bins))
        demand = rng.uniform(0.5, 3.0, size=(12, n_bins))
        supply[3, rng.random(n_bins) < 0.5] = 0.0
        demand[4, rng.random(n_bins) < 0.5] = 0.0
        supply[5] *= 4.0  # unequal totals
        supply[6] = 0.0
        supply[6, 2] = 2.5  # single effective atom
        # Chunking must not change anything: force several chunks.
        batch = solve_emd_linprog_batch(
            cost, supply, demand, max_batch_variables=3 * n_bins * n_bins
        )
        for p in range(12):
            plan = solve_emd_linprog(cost, supply[p], demand[p])
            expected = plan.cost / plan.total_flow if plan.total_flow > 0 else 0.0
            assert batch.distances[p] == pytest.approx(expected, abs=PARITY_TOL)

    def test_block_diagonal_flows_are_feasible_optimal_plans(self):
        rng = np.random.default_rng(11)
        grid = _grid(3, 1)
        cost = cross_distance_matrix(grid, grid, "euclidean")
        supply = rng.uniform(0.5, 2.0, size=(4, 3))
        demand = rng.uniform(0.5, 2.0, size=(4, 3))
        result = solve_emd_linprog_batch(cost, supply, demand, return_flows=True)
        for p in range(4):
            plan = result.plan(p)
            assert np.all(plan.flow >= 0)
            assert np.all(plan.flow.sum(axis=1) <= supply[p] + 1e-9)
            assert np.all(plan.flow.sum(axis=0) <= demand[p] + 1e-9)
            assert plan.total_flow == pytest.approx(
                min(supply[p].sum(), demand[p].sum()), abs=1e-9
            )


# ---------------------------------------------------------------------- #
# Metric invariants per exact solver (seeded property tests)
# ---------------------------------------------------------------------- #
def _random_normalised_signature(rng, dim, max_size=6):
    size = int(rng.integers(1, max_size + 1))
    positions = rng.normal(scale=3.0, size=(size, dim))
    weights = rng.uniform(0.2, 2.0, size)
    return Signature(positions, weights / weights.sum())


def _distances(solver, pairs):
    """The band engine's distances, or one ``emd()`` call per pair."""
    if solver == "engine":
        with PairwiseEMDEngine() as engine:
            return engine.compute_pairs(pairs)
    return [emd(a, b, backend=solver) for a, b in pairs]


@pytest.mark.parametrize("solver", ("engine", "linprog", "simplex"))
@pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
class TestMetricInvariants:
    """EMD on normalised signatures is a metric; each solver must honour it."""

    def test_non_negativity_and_symmetry(self, solver, seed):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(1, 4))
        sig_a = _random_normalised_signature(rng, dim)
        sig_b = _random_normalised_signature(rng, dim)
        forward, backward = _distances(solver, [(sig_a, sig_b), (sig_b, sig_a)])
        assert forward >= 0.0
        assert forward == pytest.approx(backward, abs=PARITY_TOL)

    def test_identity_of_indiscernibles(self, solver, seed):
        rng = np.random.default_rng(2000 + seed)
        dim = int(rng.integers(1, 4))
        sig_a = _random_normalised_signature(rng, dim)
        distinct = Signature(
            np.array(sig_a.positions) + 5.0, np.array(sig_a.weights)
        )
        self_distance, cross_distance = _distances(
            solver, [(sig_a, sig_a), (sig_a, distinct)]
        )
        assert self_distance == pytest.approx(0.0, abs=PARITY_TOL)
        assert cross_distance > 1.0  # translation by 5 moves every atom
        assert cross_distance == pytest.approx(5.0 * np.sqrt(dim), rel=1e-6)

    def test_triangle_inequality(self, solver, seed):
        rng = np.random.default_rng(3000 + seed)
        dim = int(rng.integers(1, 4))
        sig_a = _random_normalised_signature(rng, dim)
        sig_b = _random_normalised_signature(rng, dim)
        sig_c = _random_normalised_signature(rng, dim)
        d_ab, d_bc, d_ac = _distances(
            solver, [(sig_a, sig_b), (sig_b, sig_c), (sig_a, sig_c)]
        )
        assert d_ac <= d_ab + d_bc + PARITY_TOL


# ---------------------------------------------------------------------- #
# Failure context of batched group solves
# ---------------------------------------------------------------------- #
def _grid_signature(rng, grid):
    return Signature(grid, rng.uniform(0.5, 2.0, grid.shape[0]))


def _disjoint_grid_pair(rng, grid):
    """A pair on two offset copies of one grid: no atom coincides, so the
    pair reaches the LP whole, in the ``(d, K, K)`` group."""
    return _grid_signature(rng, grid), _grid_signature(rng, grid + 0.5)


class TestBatchedGroupErrorContext:
    def test_solver_error_carries_pair_indices(self):
        error = SolverError("boom", pair_indices=[3, 1])
        assert error.pair_indices == (3, 1)
        assert SolverError("boom").pair_indices is None

    def test_group_failure_reports_compute_pairs_positions(self, monkeypatch):
        # Batch layout: positions 0, 2 and 3 form one same-shape group
        # (disjoint supports, so no mass is matched in place first);
        # position 1 is an irregular pair solved in a group of its own.
        # A failure attributed to row 1 of the first stacked group must
        # surface as compute_pairs position 2.
        from repro.emd import batch as batch_module

        rng = np.random.default_rng(0)
        grid = _grid(3, 2)
        group_pair = lambda: _disjoint_grid_pair(rng, grid)
        irregular = (
            Signature(rng.normal(size=(4, 2)), rng.uniform(0.5, 2.0, 4)),
            Signature(rng.normal(size=(5, 2)), rng.uniform(0.5, 2.0, 5)),
        )
        pairs = [group_pair(), irregular, group_pair(), group_pair()]

        def failing_solver(*args, **kwargs):
            raise SolverError("synthetic stacked failure", pair_indices=[1])

        monkeypatch.setattr(batch_module, "_solve_batch_unchecked", failing_solver)
        engine = PairwiseEMDEngine()
        with pytest.raises(SolverError) as excinfo:
            engine.compute_pairs(pairs)
        assert excinfo.value.pair_indices == (2,)
        assert "[2]" in str(excinfo.value)

    def test_unattributed_group_failure_reports_whole_group(self, monkeypatch):
        from repro.emd import batch as batch_module

        rng = np.random.default_rng(1)
        grid = _grid(3, 2)
        pairs = [_disjoint_grid_pair(rng, grid) for _ in range(3)]

        def failing_solver(*args, **kwargs):
            raise SolverError("synthetic stacked failure")

        monkeypatch.setattr(batch_module, "_solve_batch_unchecked", failing_solver)
        engine = PairwiseEMDEngine()
        with pytest.raises(SolverError) as excinfo:
            engine.compute_pairs(pairs)
        assert excinfo.value.pair_indices == (0, 1, 2)

    @pytest.mark.parametrize("fault", ["not-optimal", "supply-exceeded", "nan-flow"])
    def test_failed_lp_chunk_reports_batch_local_indices(self, monkeypatch, fault):
        # The first chunk solves; every HiGHS run after it returns a
        # result that is either not optimal or fails linprog's acceptance
        # check, so the second chunk is retried with presolve and then
        # reported by its batch-local pair index 1, not 0.
        from repro.emd import linprog_batch as linprog_batch_module

        real_run_highs = linprog_batch_module._run_highs
        presolve_calls = []

        def faulty_run_highs(c, index, row_lower, row_upper, *, presolve):
            presolve_calls.append(presolve)
            outcome = real_run_highs(c, index, row_lower, row_upper, presolve=presolve)
            if len(presolve_calls) == 1:
                return outcome
            if fault == "not-optimal":
                return outcome._replace(optimal=False, message="synthetic HiGHS failure")
            if fault == "supply-exceeded":
                row_value = outcome.row_value.copy()
                row_value[0] = row_upper[0] + 2 * LINPROG_ACCEPT_TOL
                return outcome._replace(row_value=row_value)
            x = outcome.x.copy()
            x[0] = np.nan
            return outcome._replace(x=x)

        monkeypatch.setattr(linprog_batch_module, "_run_highs", faulty_run_highs)
        rng = np.random.default_rng(2)
        grid = _grid(3, 1)
        cost = cross_distance_matrix(grid, grid, "euclidean")
        supply = rng.uniform(0.5, 2.0, size=(3, 3))
        demand = rng.uniform(0.5, 2.0, size=(3, 3))
        # One pair per chunk.
        with pytest.raises(SolverError) as excinfo:
            solve_emd_linprog_batch(cost, supply, demand, max_batch_variables=9)
        assert presolve_calls == [False, False, True]
        assert excinfo.value.pair_indices == (1,)
        expected = {
            "not-optimal": "synthetic HiGHS failure",
            "supply-exceeded": "misses the constraints",
            "nan-flow": "NaN",
        }[fault]
        assert expected in str(excinfo.value)

    def test_row_residual_within_linprog_tolerance_is_accepted(self, monkeypatch):
        from repro.emd import linprog_batch as linprog_batch_module

        real_run_highs = linprog_batch_module._run_highs

        def sloppy_run_highs(c, index, row_lower, row_upper, *, presolve):
            outcome = real_run_highs(c, index, row_lower, row_upper, presolve=presolve)
            row_value = outcome.row_value.copy()
            row_value[0] = row_upper[0] + 0.5 * LINPROG_ACCEPT_TOL
            return outcome._replace(row_value=row_value)

        monkeypatch.setattr(linprog_batch_module, "_run_highs", sloppy_run_highs)
        supply = np.array([[1.0, 2.0]])
        result = solve_emd_linprog_batch(np.ones((2, 2)), supply, supply)
        assert result.distances[0] == pytest.approx(1.0)


class TestStackedModelMatchesLinprog:
    """Each stacked chunk's flows equal public ``linprog``'s bit for bit.

    The chunk's model is rebuilt here with scipy.sparse and solved by
    ``scipy.optimize.linprog(method="highs-ds", options={"presolve": False})``,
    the call the stacked solve replaces.
    """

    @staticmethod
    def _linprog_chunk_flows(cost, supply, demand):
        from scipy import sparse
        from scipy.optimize import linprog

        n_pairs, m = supply.shape
        n = demand.shape[1]
        n_vars = n_pairs * m * n
        var = np.arange(n_vars)
        pair, row, col = var // (m * n), (var % (m * n)) // n, var % n
        ub_rows = np.concatenate([pair * m + row, n_pairs * m + pair * n + col])
        a_ub = sparse.csr_matrix(
            (np.ones(2 * n_vars), (ub_rows, np.concatenate([var, var]))),
            shape=(n_pairs * (m + n), n_vars),
        )
        a_eq = sparse.csr_matrix((np.ones(n_vars), (pair, var)), shape=(n_pairs, n_vars))
        c = np.tile(cost.ravel(), n_pairs) if cost.ndim == 2 else cost.ravel()
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=np.concatenate([supply.ravel(), demand.ravel()]),
            A_eq=a_eq,
            b_eq=np.minimum(supply.sum(axis=1), demand.sum(axis=1)),
            bounds=(0, None),
            method="highs-ds",
            options={"presolve": False},
        )
        assert result.success, result.message
        return np.clip(result.x.reshape(n_pairs, m, n), 0.0, None)

    @pytest.mark.parametrize("shared_cost", [True, False], ids=["shared", "per-pair"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("m,n", [(4, 4), (3, 5)])
    def test_chunk_flows_bit_identical_to_linprog(self, shared_cost, dim, m, n):
        from repro.emd.linprog_batch import chunk_slices

        rng = np.random.default_rng(100 * dim + 10 * m + n)
        n_pairs = 14
        if shared_cost:
            cost = cross_distance_matrix(
                rng.normal(size=(m, dim)), rng.normal(size=(n, dim)), "euclidean"
            )
        else:
            cost = np.stack([
                cross_distance_matrix(
                    rng.normal(size=(m, dim)), rng.normal(size=(n, dim)), "euclidean"
                )
                for _ in range(n_pairs)
            ])
        supply = rng.uniform(0.5, 3.0, size=(n_pairs, m))
        demand = rng.uniform(0.5, 3.0, size=(n_pairs, n))
        supply[rng.random(supply.shape) < 0.25] = 0.0  # zero-weight atoms
        demand[rng.random(demand.shape) < 0.25] = 0.0
        supply[3] *= 5.0  # unequal masses
        demand[8] *= 0.2
        supply[5] = 0.0  # zero-mass rows
        demand[11] = 0.0
        max_vars = 4 * m * n  # several chunks

        result = solve_emd_linprog_batch(
            cost, supply, demand, return_flows=True, max_batch_variables=max_vars
        )

        solvable = np.flatnonzero(np.minimum(supply.sum(axis=1), demand.sum(axis=1)) > 0)
        assert {5, 11}.isdisjoint(solvable)
        pieces = list(chunk_slices(solvable.size, m, n, max_vars))
        assert len(pieces) >= 3
        for piece in pieces:
            members = solvable[piece]
            expected = self._linprog_chunk_flows(
                cost if shared_cost else cost[members], supply[members], demand[members]
            )
            assert np.array_equal(result.flows[members], expected)
        assert not result.flows[[5, 11]].any()


class TestReusedHighsSolver:
    """The per-thread HiGHS solver carries nothing from one chunk to the next."""

    @staticmethod
    def _chunk(seed, n_pairs=12, m=4, n=5):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.1, 3.0, size=(n_pairs, m, n))
        supply = rng.uniform(0.5, 3.0, size=(n_pairs, m))
        demand = rng.uniform(0.5, 3.0, size=(n_pairs, n))
        return cost, supply, demand

    @staticmethod
    def _flows(cost, supply, demand):
        return solve_emd_linprog_batch(cost, supply, demand, return_flows=True).flows

    def _fresh_flows(self, cost, supply, demand):
        """The flows of a newly created solver: the first solve on a new thread."""
        out = {}
        thread = threading.Thread(target=lambda: out.update(flows=self._flows(cost, supply, demand)))
        thread.start()
        thread.join()
        return out["flows"]

    def test_failed_solve_leaves_no_state(self):
        from repro.emd.linprog_batch import _run_highs

        chunk = self._chunk(1)
        self._flows(*self._chunk(2))  # the solver has solved something already
        # One column with a unit entry in each of three rows; row 0 asks
        # for 2 <= x <= 1, so the model is infeasible.
        c = np.ones(1)
        index = np.array([0, 1, 2], dtype=np.int32)
        row_lower = np.array([2.0, -np.inf, -np.inf])
        row_upper = np.array([1.0, 5.0, 5.0])
        for presolve in (False, True):
            outcome = _run_highs(c, index, row_lower, row_upper, presolve=presolve)
            assert not outcome.optimal
        assert np.array_equal(self._flows(*chunk), self._fresh_flows(*chunk))

    def test_concurrent_threads_match_their_serial_results(self):
        n_threads = 4  # more threads than the CI runners' cores
        chunks = [self._chunk(seed) for seed in range(10, 10 + 2 * n_threads)]
        serial = [self._flows(*chunk) for chunk in chunks]
        barrier = threading.Barrier(n_threads)
        mismatches = []

        def worker(offset):
            barrier.wait()
            try:
                for round_ in range(50):
                    k = 2 * offset + round_ % 2
                    if not np.array_equal(self._flows(*chunks[k]), serial[k]):
                        mismatches.append((offset, round_, k))
            except Exception as exc:  # a garbled model fails the solve
                mismatches.append((offset, repr(exc)))

        # Switch threads as often as the interpreter allows, so the
        # threads' set-up, solve and read-back calls interleave.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestBatchValidation:
    """Malformed input to the stacked LP is rejected before any solve."""

    def test_wrong_weight_dimensionality_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            solve_emd_linprog_batch(np.ones((2, 2)), np.ones(2), np.ones((1, 2)))

    def test_mismatched_pair_counts_rejected(self):
        with pytest.raises(ValidationError, match="rows"):
            solve_emd_linprog_batch(np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2)))

    def test_mismatched_cost_shape_rejected(self):
        with pytest.raises(ValidationError, match="trailing dimensions"):
            solve_emd_linprog_batch(np.ones((3, 2)), np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValidationError, match="matrices for 3 pairs"):
            solve_emd_linprog_batch(np.ones((4, 2, 2)), np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValidationError, match="shape"):
            solve_emd_linprog_batch(np.ones(2), np.ones((1, 2)), np.ones((1, 2)))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            solve_emd_linprog_batch(
                np.ones((2, 2)), np.array([[1.0, -0.5]]), np.ones((1, 2))
            )

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            solve_emd_linprog_batch(
                np.ones((2, 2)), np.ones((1, 2)), np.array([[1.0, np.nan]])
            )
        with pytest.raises(ValidationError, match="non-finite"):
            solve_emd_linprog_batch(
                np.array([[0.0, np.inf], [1.0, 0.0]]), np.ones((1, 2)), np.ones((1, 2))
            )


# ---------------------------------------------------------------------- #
# Detector-level wiring
# ---------------------------------------------------------------------- #
class TestDetectorWiring:
    def test_stacked_detect_matches_per_pair_linprog(self, monkeypatch):
        rng = np.random.default_rng(5)
        bags = [rng.normal(0.0, 1.0, size=(30, 2)) for _ in range(8)]
        bags += [rng.normal(3.0, 1.0, size=(30, 2)) for _ in range(8)]

        def run(per_pair_oracle):
            config = DetectorConfig(
                tau=3,
                tau_test=3,
                signature_method="histogram",
                bins=3,
                n_bootstrap=25,
                random_state=0,
            )
            with BagChangePointDetector(config) as detector:
                if per_pair_oracle:
                    # Replace the band engine's solves by one per-pair LP each.
                    monkeypatch.setattr(
                        detector._engine,
                        "compute_pairs",
                        lambda pairs: np.array(
                            [emd(a, b, backend="linprog") for a, b in pairs]
                        ),
                    )
                return detector.detect(bags)

        reference = run(per_pair_oracle=True)
        batched = run(per_pair_oracle=False)
        np.testing.assert_allclose(
            batched.scores, reference.scores, atol=PARITY_TOL, rtol=0
        )
        np.testing.assert_allclose(
            batched.lower, reference.lower, atol=PARITY_TOL, rtol=0
        )

    @pytest.mark.parametrize(
        "backend", ["linprog_block", "sinkhorn_batch", "linprog", "simplex"]
    )
    def test_config_rejects_unknown_backend(self, backend):
        with pytest.raises(ConfigurationError) as excinfo:
            DetectorConfig(emd_backend=backend)
        if backend in ("linprog", "simplex"):
            # Per-pair solvers remain emd() oracles, not engine routes.
            assert "repro.emd.emd(backend=" in str(excinfo.value)

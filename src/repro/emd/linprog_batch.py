"""Block-diagonal batched exact-LP backend for multi-pair EMD solves.

:func:`repro.emd.linprog_backend.solve_emd_linprog` encodes one
transportation problem (paper Eqs. 7-11) per :func:`scipy.optimize.linprog`
call; a band build issues thousands of such calls, and the per-call
HiGHS set-up cost (model construction, presolve, basis factorisation)
dominates the actual pivoting on these small problems.  This module
stacks ``P`` pairs of one shape ``(m, n)`` — sharing one ground-cost
matrix or each with its own — into a *single* sparse block-diagonal LP:

* one variable block of ``m * n`` flows per pair, so the constraint
  matrix is block diagonal with ``P`` independent supply / demand /
  total-flow blocks and the objective concatenates ``P`` copies of the
  shared (or per-pair) ground-cost vector;
* because the blocks share no variables or constraints, the stacked LP's
  optimum is the sum of the per-pair optima and each extracted block
  solution is itself optimal for its pair — the distances are *exactly*
  those of per-pair :func:`solve_emd_linprog`, not an entropic
  approximation;
* batches are chunked along ``P`` so the assembled sparse matrix stays
  bounded (HiGHS's dual simplex also degrades past a few thousand
  variables per model, so moderate chunks are faster *and* smaller);
* presolve is off by default — these models have no redundancy for it to
  remove, and on small transportation blocks presolve costs more than it
  saves (a failed chunk is retried once with presolve on before raising);
* each chunk goes to HiGHS directly through the bindings scipy ships,
  not through :func:`scipy.optimize.linprog`: the CSC arrays are built
  straight from the known layout and the options are exactly those of
  ``linprog(method="highs-ds")``, so HiGHS sees the identical model and
  the flows are bit-identical to linprog's.  The wrapper's per-column
  Python work (bound duals, option validation, sparse-format
  conversions) cost more than the solve itself, and only the flows are
  needed.  linprog's acceptance check on the result is kept: optimal
  status, no NaN, bounds and row residuals within ``sqrt(1e-9) * 10``;
* the set-up around each solve is paid once: both option sets are
  built once per process, each thread reuses one HiGHS solver, and the
  model is passed as NumPy arrays through the array overload of
  ``passModel``, with no per-element Python lists.

A :class:`~repro.exceptions.SolverError` raised here carries the
batch-local ``pair_indices`` of every pair stacked into the failing
chunk, so callers never lose track of which problems were in flight.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Optional

import numpy as np

from .._validation import check_positive_int
from ..exceptions import SolverError, ValidationError
from .transportation import TransportPlan

#: Cap on the number of LP variables (``P_chunk * m * n``) assembled into
#: one HiGHS model.  Dual-simplex time per pair is flat up to a few
#: thousand variables and grows superlinearly after, while HiGHS's native
#: memory grows with the model: on a default-config k-means band (K=8,
#: 64 variables per pair) a cap of 8,192 raised a ``detect()`` run's peak
#: RSS by ~12 MB (88 -> 100 MB on 150 1-D bags), whereas 2,048 kept it
#: within ~3 MB at an unchanged band-build time.
_MAX_BATCH_VARIABLES = 2_048


def _check_weight_rows(weights: np.ndarray, name: str) -> np.ndarray:
    """Validate a ``(P, n_atoms)`` batch of non-negative weight rows.

    Rows are *not* normalised and zero-total rows are *not* rejected:
    the partial-matching LP takes raw weights and treats a zero-total
    row as a trivially solved pair.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D (P, n_atoms) array")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    if np.any(arr < 0):
        raise ValidationError(f"{name} must be non-negative")
    return arr


def _check_batch_shapes(
    cost: np.ndarray, supply: np.ndarray, demand: np.ndarray
) -> np.ndarray:
    """Validate a batched problem's cost/weights geometry.

    ``supply`` and ``demand`` must already be validated 2-D rows (see
    :func:`_check_weight_rows`).  Returns the cost as a float array.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim not in (2, 3):
        raise ValidationError("cost must have shape (K, L) or (P, K, L)")
    n_pairs = supply.shape[0]
    if demand.shape[0] != n_pairs:
        raise ValidationError(
            f"supply has {n_pairs} rows but demand has {demand.shape[0]}"
        )
    expected = (supply.shape[1], demand.shape[1])
    if cost.shape[-2:] != expected:
        raise ValidationError(
            f"cost has shape {cost.shape}, expected trailing dimensions {expected}"
        )
    if cost.ndim == 3 and cost.shape[0] != n_pairs:
        raise ValidationError(
            f"per-pair cost has {cost.shape[0]} matrices for {n_pairs} pairs"
        )
    return cost


def chunk_slices(
    n_pairs: int, m: int, n: int, max_batch_variables: Optional[int] = None
) -> Iterator[slice]:
    """Slices that cut ``n_pairs`` stacked ``(m, n)`` problems into LP chunks.

    Each chunk holds at most ``max_batch_variables`` flow variables
    (default: the module cap), and at least one pair.  The one chunking
    rule for :func:`solve_emd_linprog_batch` and for callers that build
    each chunk's inputs only when they solve it.
    """
    if max_batch_variables is None:
        max_batch_variables = _MAX_BATCH_VARIABLES
    step = max(1, max_batch_variables // (m * n))
    for start in range(0, n_pairs, step):
        yield slice(start, min(start + step, n_pairs))


@dataclass(frozen=True)
class LinprogBatchResult:
    """Result of a block-diagonal batched exact-LP solve over ``P`` pairs.

    Attributes
    ----------
    distances:
        ``(P,)`` Earth Mover's Distances ``cost_p / total_flow_p`` (paper
        Eq. 12); exactly zero for pairs with no mass to move.
    costs:
        ``(P,)`` optimal transportation costs (numerators of Eq. 12).
    total_flows:
        ``(P,)`` mass moved per pair, ``min(supply_p.sum(), demand_p.sum())``
        per Eq. 11.
    flows:
        Optional ``(P, m, n)`` optimal flow matrices, materialised only
        with ``return_flows=True``.
    """

    distances: np.ndarray
    costs: np.ndarray
    total_flows: np.ndarray
    flows: Optional[np.ndarray] = None

    def plan(self, p: int) -> TransportPlan:
        """The ``p``-th pair's solution as a :class:`TransportPlan`.

        Requires the batch to have been solved with ``return_flows=True``.
        """
        if self.flows is None:
            raise ValidationError(
                "flows were not materialised; pass return_flows=True"
            )
        return TransportPlan(
            flow=self.flows[p],
            cost=float(self.costs[p]),
            total_flow=float(self.total_flows[p]),
        )


#: linprog's acceptance tolerance for a HiGHS solution: its ``_check_result``
#: widens the default ``tol=1e-9`` to ``sqrt(tol) * 10``.
_ACCEPT_TOL = float(np.sqrt(1e-9) * 10)


class _HighsOutcome(NamedTuple):
    """What the stacked solve reads back from one HiGHS run."""

    optimal: bool
    message: str
    x: np.ndarray
    row_value: np.ndarray
    objective: float


def _bindings() -> Any:
    """scipy's private HiGHS bindings: the one place this module imports them."""
    try:
        from scipy.optimize._highspy import _core as highs
    except ImportError as exc:
        raise ImportError(
            "repro.emd.linprog_batch needs scipy>=1.15, the first release "
            "that ships the HiGHS bindings scipy.optimize._highspy._core"
        ) from exc
    return highs


@functools.lru_cache(maxsize=2)
def _options(presolve: bool) -> Any:
    """The ``HighsOptions`` of ``linprog(method="highs-ds")``, built once per process."""
    highs = _bindings()
    options = highs.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.solver = "simplex"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    return options


#: One HiGHS solver per thread, created on its first chunk.  ``passModel``
#: replaces the previous model and clears the solver's basis and solution,
#: so a reused solver solves each chunk exactly as a fresh one would.
_THREAD = threading.local()


def _solver() -> Any:
    solver = getattr(_THREAD, "solver", None)
    if solver is None:
        solver = _THREAD.solver = _bindings()._Highs()
    return solver


def _run_highs(
    c: np.ndarray,
    index: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    *,
    presolve: bool,
) -> _HighsOutcome:
    """Minimise ``c @ x`` s.t. ``row_lower <= A @ x <= row_upper``, ``x >= 0``.

    ``A`` has exactly three unit entries per column, at rows
    ``index[3 * j : 3 * j + 3]`` (``index`` is int32).  The model and
    options are those ``linprog(method="highs-ds")`` hands to HiGHS, so
    the solution is bit-identical to linprog's.  The options are built
    once per process and the solver once per thread; the model goes in
    through the bindings' array overload of ``passModel`` (column-wise
    CSC, ``num_col`` column starts, all columns continuous), with no
    per-element Python lists.
    """
    highs = _bindings()
    n_cols, n_rows = c.size, row_upper.size
    solver = _solver()
    failed = highs.HighsStatus.kError
    if (
        solver.passOptions(_options(presolve)) == failed
        or solver.passModel(
            n_cols,
            n_rows,
            index.size,
            int(highs.MatrixFormat.kColwise),
            int(highs.ObjSense.kMinimize),
            0.0,
            c,
            np.zeros(n_cols),
            np.full(n_cols, np.inf),
            row_lower,
            row_upper,
            np.arange(0, index.size, 3, dtype=np.int32),
            index,
            np.ones(index.size),
            np.zeros(n_cols, dtype=np.int32),
        )
        == failed
        or solver.run() == failed
        or solver.getModelStatus() != highs.HighsModelStatus.kOptimal
    ):
        status = solver.getModelStatus()
        return _HighsOutcome(
            optimal=False,
            message=f"HiGHS model status {solver.modelStatusToString(status)}",
            x=np.empty(0),
            row_value=np.empty(0),
            objective=float("nan"),
        )
    solution = solver.getSolution()
    return _HighsOutcome(
        optimal=True,
        message="optimal",
        x=np.array(solution.col_value),
        row_value=np.array(solution.row_value),
        objective=solver.getInfo().objective_function_value,
    )


def _rejection(outcome: _HighsOutcome, row_upper: np.ndarray, n_ub: int) -> Optional[str]:
    """Why linprog's ``_check_result`` would reject ``outcome``, else ``None``.

    Rows ``[:n_ub]`` are ``<=`` rows, the rest equalities; the variables'
    bounds are ``[0, inf)``.
    """
    if not outcome.optimal:
        return outcome.message
    slack = row_upper - outcome.row_value
    if np.isnan(outcome.x).any() or np.isnan(outcome.objective) or np.isnan(slack).any():
        return "HiGHS reported optimal but returned NaN values"
    if (
        (outcome.x < -_ACCEPT_TOL).any()
        or (slack[:n_ub] < -_ACCEPT_TOL).any()
        or (np.abs(slack[n_ub:]) > _ACCEPT_TOL).any()
    ):
        return (
            f"HiGHS reported optimal but the solution misses the constraints "
            f"by more than {_ACCEPT_TOL:.2E}"
        )
    return None


def _solve_chunk(
    cost: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    pair_indices: np.ndarray,
    *,
    presolve: bool,
) -> np.ndarray:
    """Solve one stacked chunk, returning the ``(P_chunk, m, n)`` flows.

    Variables are the flows of all pairs concatenated, pair-major and
    row-major within a pair: variable ``p * m * n + k * n + l`` is the
    flow ``f_kl`` of pair ``p``.  Rows are the ``P_chunk * m`` supply
    constraints, then the ``P_chunk * n`` demand constraints (``<=``),
    then one total-flow equality per pair, so each column's three unit
    entries are in ascending row order.
    """
    n_chunk, m = supply.shape
    n = demand.shape[1]
    if cost.ndim == 2:
        c = np.tile(cost.ravel(), n_chunk)
    else:
        c = cost.reshape(n_chunk, -1).ravel()
    pair, row, col = np.ogrid[:n_chunk, :m, :n]
    index = np.empty((n_chunk, m, n, 3), dtype=np.int32)
    index[..., 0] = pair * m + row
    index[..., 1] = n_chunk * m + pair * n + col
    index[..., 2] = n_chunk * (m + n) + pair
    total = np.minimum(supply.sum(axis=1), demand.sum(axis=1))
    n_ub = n_chunk * (m + n)
    row_upper = np.concatenate([supply.ravel(), demand.ravel(), total])
    row_lower = np.concatenate([np.full(n_ub, -np.inf), total])

    # Presolve is skipped for speed, not correctness; a failed chunk gets
    # one retry with HiGHS's full machinery before being declared
    # unsolvable (dict.fromkeys dedups when presolve was already on).
    for presolve_setting in dict.fromkeys((presolve, True)):
        outcome = _run_highs(c, index.ravel(), row_lower, row_upper, presolve=presolve_setting)
        reason = _rejection(outcome, row_upper, n_ub)
        if reason is None:
            break
    if reason is not None:
        indices = [int(i) for i in pair_indices]
        raise SolverError(
            f"HiGHS failed to solve a block-diagonal EMD LP over "
            f"{n_chunk} stacked pairs (batch indices {indices}): {reason}",
            pair_indices=indices,
        )
    return np.clip(outcome.x.reshape(n_chunk, m, n), 0.0, None)


def solve_emd_linprog_batch(
    cost: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    *,
    return_flows: bool = False,
    presolve: bool = False,
    max_batch_variables: int = _MAX_BATCH_VARIABLES,
) -> LinprogBatchResult:
    """Solve ``P`` EMD transportation problems as block-diagonal HiGHS LPs.

    Parameters
    ----------
    cost:
        Ground-distance matrix of shape ``(m, n)`` shared by every pair
        (the common-support case), or per-pair costs of shape
        ``(P, m, n)``.
    supply, demand:
        ``(P, m)`` and ``(P, n)`` non-negative signature weights.  Zero
        entries are allowed — they mark atoms absent from that pair's
        support (e.g. unoccupied histogram bins after embedding into a
        common grid) and receive exactly zero flow.  Rows may carry
        unequal total masses; each pair moves ``min`` of its two totals,
        exactly like per-pair :func:`~repro.emd.linprog_backend.solve_emd_linprog`.
    return_flows:
        Also materialise the ``(P, m, n)`` optimal flow matrices.
    presolve:
        Run the HiGHS presolver on each chunk.  Off by default — on
        small transportation blocks it costs more than it saves; a chunk
        that fails without presolve is retried once with it enabled.
    max_batch_variables:
        Split the batch along ``P`` whenever the stacked LP would exceed
        this many flow variables, bounding both the assembled sparse
        matrix and the HiGHS model size without changing any result.

    Returns
    -------
    LinprogBatchResult
        Per-pair distances, costs, total flows and (optionally) flows,
        each exactly equal to what per-pair :func:`solve_emd_linprog`
        produces (same LP, same solver — not an approximation).
    """
    supply = _check_weight_rows(supply, "supply")
    demand = _check_weight_rows(demand, "demand")
    cost = _check_batch_shapes(cost, supply, demand)
    if cost.size and not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix contains non-finite values")
    return _solve_batch_unchecked(
        cost,
        supply,
        demand,
        return_flows=return_flows,
        presolve=presolve,
        max_batch_variables=check_positive_int(max_batch_variables, "max_batch_variables"),
    )


def _solve_batch_unchecked(
    cost: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    *,
    return_flows: bool = False,
    presolve: bool = False,
    max_batch_variables: int = _MAX_BATCH_VARIABLES,
) -> LinprogBatchResult:
    """:func:`solve_emd_linprog_batch` without its input validation.

    For callers that built the inputs themselves — the engine's stacked
    route solves many small chunks, and re-checking arrays it just
    assembled cost a visible share of each one.  The inputs must be
    what the public function would have accepted: float ``(P, m)`` and
    ``(P, n)`` finite non-negative weights, a finite non-negative
    ``(m, n)`` or ``(P, m, n)`` cost, and a positive variable cap.
    """
    n_pairs = supply.shape[0]
    m, n = supply.shape[1], demand.shape[1]
    flows_out = np.zeros((n_pairs, m, n), dtype=float) if return_flows else None
    costs = np.zeros(n_pairs, dtype=float)
    total_flows = np.zeros(n_pairs, dtype=float)
    distances = np.zeros(n_pairs, dtype=float)
    if n_pairs == 0:
        return LinprogBatchResult(
            distances=distances, costs=costs, total_flows=total_flows, flows=flows_out
        )

    # Pairs with no mass to move have the all-zero flow as their unique
    # feasible point; solve only the others.
    targets = np.minimum(supply.sum(axis=1), demand.sum(axis=1))
    solvable = np.flatnonzero(targets > 0)

    for piece in chunk_slices(solvable.size, m, n, max_batch_variables):
        members = solvable[piece]
        flows = _solve_chunk(
            cost if cost.ndim == 2 else cost[members],
            supply[members],
            demand[members],
            members,
            presolve=presolve,
        )
        kernel = cost[None, :, :] if cost.ndim == 2 else cost[members]
        costs[members] = (flows * kernel).sum(axis=(1, 2))
        total_flows[members] = flows.sum(axis=(1, 2))
        if flows_out is not None:
            flows_out[members] = flows
    moved = total_flows > 0
    distances[moved] = costs[moved] / total_flows[moved]
    return LinprogBatchResult(
        distances=distances, costs=costs, total_flows=total_flows, flows=flows_out
    )

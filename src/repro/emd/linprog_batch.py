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
  saves (a failed chunk is retried once with presolve on before raising).

A :class:`~repro.exceptions.SolverError` raised here carries the
batch-local ``pair_indices`` of every pair stacked into the failing
chunk, so callers never lose track of which problems were in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

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
) -> Tuple[np.ndarray, int]:
    """Validate a batched problem's cost/weights geometry.

    ``supply`` and ``demand`` must already be validated 2-D rows (see
    :func:`_check_weight_rows`).  Returns the cost as a float array
    together with the pair count ``P``.
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
    return cost, n_pairs


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


def _block_diagonal_constraints(
    n_pairs: int, m: int, n: int
) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Sparse ``A_ub`` and ``A_eq`` for ``n_pairs`` stacked transportation blocks.

    Variables are the flows of all pairs concatenated, pair-major and
    row-major within a pair: variable ``p * m * n + k * n + l`` is the
    flow ``f_kl`` of pair ``p``.  Rows are the ``n_pairs * m`` supply
    constraints, then the ``n_pairs * n`` demand constraints (``A_ub``),
    and one total-flow equality row per pair (``A_eq``).
    """
    mn = m * n
    n_vars = n_pairs * mn
    var_idx = np.arange(n_vars)
    pair_of = var_idx // mn
    row_of = (var_idx % mn) // n
    col_of = var_idx % n

    supply_rows = pair_of * m + row_of
    demand_rows = n_pairs * m + pair_of * n + col_of
    a_ub = sparse.csr_matrix(
        (
            np.ones(2 * n_vars),
            (
                np.concatenate([supply_rows, demand_rows]),
                np.concatenate([var_idx, var_idx]),
            ),
        ),
        shape=(n_pairs * (m + n), n_vars),
    )
    a_eq = sparse.csr_matrix(
        (np.ones(n_vars), (pair_of, var_idx)), shape=(n_pairs, n_vars)
    )
    return a_ub, a_eq


def _solve_chunk(
    cost: np.ndarray,
    supply: np.ndarray,
    demand: np.ndarray,
    pair_indices: np.ndarray,
    *,
    presolve: bool,
) -> np.ndarray:
    """Solve one stacked chunk, returning the ``(P_chunk, m, n)`` flows."""
    n_chunk, m = supply.shape
    n = demand.shape[1]
    if cost.ndim == 2:
        c = np.tile(cost.ravel(), n_chunk)
    else:
        c = cost.reshape(n_chunk, -1).ravel()
    a_ub, a_eq = _block_diagonal_constraints(n_chunk, m, n)
    b_ub = np.concatenate([supply.ravel(), demand.ravel()])
    b_eq = np.minimum(supply.sum(axis=1), demand.sum(axis=1))

    # Presolve is skipped for speed, not correctness; a failed chunk gets
    # one retry with HiGHS's full machinery before being declared
    # unsolvable (dict.fromkeys dedups when presolve was already on).
    for presolve_setting in dict.fromkeys((presolve, True)):
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs-ds",
            options={"presolve": presolve_setting},
        )
        if result.success:
            break
    if not result.success:
        indices = [int(i) for i in pair_indices]
        raise SolverError(
            f"linprog failed to solve a block-diagonal EMD LP over "
            f"{n_chunk} stacked pairs (batch indices {indices}): "
            f"{result.message}",
            pair_indices=indices,
        )
    return np.clip(np.asarray(result.x, dtype=float).reshape(n_chunk, m, n), 0.0, None)


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
    cost, n_pairs = _check_batch_shapes(cost, supply, demand)
    if cost.size and not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix contains non-finite values")
    max_batch_variables = check_positive_int(max_batch_variables, "max_batch_variables")

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

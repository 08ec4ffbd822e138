"""High-level Earth Mover's Distance between signatures (paper Eqs. 7-12).

The public entry points are :func:`emd` (distance between two signatures)
and :func:`emd_with_flow` (distance plus the optimal flow).  Three
backends are available:

``"linprog"``
    SciPy HiGHS linear programming (default, robust and fast).
``"simplex"``
    From-scratch transportation simplex (:mod:`repro.emd.transportation`).
``"auto"``
    ``"linprog"`` for general signatures, with an exact 1-D fast path when
    both signatures are one-dimensional, carry equal total mass and the
    ground distance is Euclidean/Manhattan (they coincide in 1-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError, ValidationError
from ..signatures import Signature
from .ground_distance import GroundDistance, cross_distance_matrix
from .linprog_backend import solve_emd_linprog
from .one_dimensional import wasserstein_1d
from .registry import PAIRWISE_SOLVERS, PairwiseSolverName
from .transportation import TransportPlan, solve_unbalanced_transportation


@dataclass(frozen=True)
class EMDResult:
    """Result of an EMD computation.

    Attributes
    ----------
    distance:
        The Earth Mover's Distance, i.e. optimal cost divided by total flow
        (paper Eq. 12).
    cost:
        Optimal total transportation cost (numerator of Eq. 12).
    total_flow:
        Total mass moved, ``min`` of the two signature masses (Eq. 11).
    flow:
        Optimal flow matrix of shape ``(K, L)``, or ``None`` when the fast
        1-D path was used (the explicit flow is not materialised there).
    """

    distance: float
    cost: float
    total_flow: float
    flow: Optional[np.ndarray] = None


def _check_signatures(sig_a: Signature, sig_b: Signature) -> None:
    if not isinstance(sig_a, Signature) or not isinstance(sig_b, Signature):
        raise ValidationError("emd expects Signature instances")
    if sig_a.dimension != sig_b.dimension:
        raise ValidationError(
            f"signatures have different dimensions: {sig_a.dimension} != {sig_b.dimension}"
        )


def _can_use_1d_fast_path(
    sig_a: Signature, sig_b: Signature, ground_distance: GroundDistance
) -> bool:
    if sig_a.dimension != 1:
        return False
    if not isinstance(ground_distance, str):
        return False
    if ground_distance.lower() not in ("euclidean", "cityblock", "manhattan", "chebyshev"):
        return False
    # np.isclose(a, b, rtol=1e-9, atol=1e-12) on the (finite) totals,
    # without its per-call array overhead.
    total_a, total_b = sig_a.total_weight, sig_b.total_weight
    return abs(total_a - total_b) <= 1e-12 + 1e-9 * abs(total_b)


def emd_with_flow(
    sig_a: Signature,
    sig_b: Signature,
    *,
    ground_distance: GroundDistance = "euclidean",
    backend: PairwiseSolverName = "auto",
) -> EMDResult:
    """Compute the Earth Mover's Distance and the optimal flow.

    Parameters
    ----------
    sig_a, sig_b:
        The two signatures to compare.
    ground_distance:
        Name of a built-in metric or a callable producing the cross
        distance matrix between representative positions.
    backend:
        ``"auto"``, ``"linprog"`` or ``"simplex"``.

    Returns
    -------
    EMDResult
    """
    _check_signatures(sig_a, sig_b)
    if backend not in PAIRWISE_SOLVERS:
        raise ConfigurationError(
            f"backend must be one of {PAIRWISE_SOLVERS}, got {backend!r}"
        )

    if backend == "auto" and _can_use_1d_fast_path(sig_a, sig_b, ground_distance):
        distance = wasserstein_1d(
            sig_a.positions[:, 0], sig_a.weights, sig_b.positions[:, 0], sig_b.weights
        )
        total_flow = float(min(sig_a.total_weight, sig_b.total_weight))
        return EMDResult(
            distance=distance, cost=distance * total_flow, total_flow=total_flow, flow=None
        )

    cost_matrix = cross_distance_matrix(sig_a.positions, sig_b.positions, ground_distance)
    plan: TransportPlan
    if backend == "simplex":
        plan = solve_unbalanced_transportation(cost_matrix, sig_a.weights, sig_b.weights)
    else:
        plan = solve_emd_linprog(cost_matrix, sig_a.weights, sig_b.weights)

    if plan.total_flow <= 0:
        return EMDResult(distance=0.0, cost=0.0, total_flow=0.0, flow=plan.flow)
    return EMDResult(
        distance=plan.cost / plan.total_flow,
        cost=plan.cost,
        total_flow=plan.total_flow,
        flow=plan.flow,
    )


def emd(
    sig_a: Signature,
    sig_b: Signature,
    *,
    ground_distance: GroundDistance = "euclidean",
    backend: PairwiseSolverName = "auto",
) -> float:
    """Earth Mover's Distance between two signatures (paper Eq. 12)."""
    return emd_with_flow(
        sig_a, sig_b, ground_distance=ground_distance, backend=backend
    ).distance

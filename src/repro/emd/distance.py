"""High-level Earth Mover's Distance between signatures (paper Eqs. 7-12).

The public entry points are :func:`emd` (distance between two signatures)
and :func:`emd_with_flow` (distance plus the optimal flow).  Three
backends are available:

``"linprog"``
    SciPy HiGHS linear programming (default, robust and fast).
``"simplex"``
    From-scratch transportation simplex (:mod:`repro.emd.transportation`).
``"auto"``
    ``"linprog"`` for general signatures, with an exact LP-free path when
    both signatures are one-dimensional and the ground distance is one of
    ``euclidean``/``cityblock``/``manhattan``/``chebyshev`` (all ``|x − y|``
    in 1-D): the closed-form CDF integral when the two masses are equal,
    the slope-trick solver :func:`~repro.emd.one_dimensional.partial_emd_1d`
    otherwise.  ``sqeuclidean`` and callable ground distances always take
    the LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError, ValidationError
from ..signatures import Signature
from .ground_distance import GroundDistance, cross_distance_matrix, is_metric
from .linprog_backend import solve_emd_linprog
from .one_dimensional import _partial_emd_1d, wasserstein_1d
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
        Optimal flow matrix of shape ``(K, L)``, or ``None`` when an
        LP-free 1-D path was used (the explicit flow is not materialised
        there).
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


def _is_1d_lp_pair(sig_a: Signature, sig_b: Signature, ground_distance: GroundDistance) -> bool:
    """Whether the pair is 1-D under a metric, which reduces to ``|x − y|`` there."""
    return sig_a.dimension == 1 and is_metric(ground_distance)


def _equal_masses(sig_a: Signature, sig_b: Signature) -> bool:
    """Whether a 1-D pair takes the closed form rather than the slope trick."""
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

    if backend == "auto" and _is_1d_lp_pair(sig_a, sig_b, ground_distance):
        xa, xb = sig_a.positions[:, 0], sig_b.positions[:, 0]
        if _equal_masses(sig_a, sig_b):
            distance = wasserstein_1d(xa, sig_a.weights, xb, sig_b.weights)
        else:
            distance = _partial_emd_1d(
                xa.tolist(), sig_a.weights.tolist(), xb.tolist(), sig_b.weights.tolist()
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

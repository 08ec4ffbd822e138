"""Exact, LP-free Earth Mover's Distance for one-dimensional signatures.

Two solvers, both under the ground distance ``|x − y|`` (every built-in
Lp metric reduces to it in 1-D):

* :func:`wasserstein_1d` — for equal total masses the EMD coincides with
  the first Wasserstein (Mallows) distance, whose closed form is the L1
  distance between the two CDFs;
* :func:`partial_emd_1d` — the paper's partial-matching EMD (Eqs. 7–12)
  for any two masses, where only ``min(A, B)`` units move.  It is solved
  exactly in ``O(M log M)`` by a slope-trick sweep, without an LP.

Both are far cheaper than the transportation LP; the pairwise engine
routes every 1-D pair through one of them, and tests use them as oracles.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Sequence, Tuple

import numpy as np

from .._validation import check_vector, check_weights


def wasserstein_1d(
    positions_a: np.ndarray,
    weights_a: np.ndarray,
    positions_b: np.ndarray,
    weights_b: np.ndarray,
) -> float:
    """First Wasserstein distance between two weighted 1-D point sets.

    Both weight vectors are normalised to total mass one, so the result
    equals the paper's EMD (Eq. 12) whenever the two signatures carry equal
    total mass, and equals the normalised-mass EMD otherwise.

    Parameters
    ----------
    positions_a, positions_b:
        1-D arrays of support points.
    weights_a, weights_b:
        Non-negative masses associated with each support point.

    Returns
    -------
    float
        The distance ``∫ |F_a^{-1}(q) - F_b^{-1}(q)| dq``.
    """
    xa = check_vector(positions_a, "positions_a")
    xb = check_vector(positions_b, "positions_b")
    wa = check_weights(weights_a, "weights_a", normalize=True)
    wb = check_weights(weights_b, "weights_b", normalize=True)
    if xa.shape != wa.shape or xb.shape != wb.shape:
        raise ValueError("positions and weights must have matching shapes")

    order_a = np.argsort(xa, kind="stable")
    order_b = np.argsort(xb, kind="stable")
    xa, wa = xa[order_a], wa[order_a]
    xb, wb = xb[order_b], wb[order_b]

    # Merge the two supports and integrate |F_a - F_b| over each segment.
    all_x = np.concatenate([xa, xb])
    all_x.sort(kind="stable")
    deltas = np.diff(all_x)

    cdf_a = np.searchsorted(xa, all_x[:-1], side="right")
    cdf_b = np.searchsorted(xb, all_x[:-1], side="right")
    cum_a = np.concatenate([[0.0], np.cumsum(wa)])
    cum_b = np.concatenate([[0.0], np.cumsum(wb)])
    fa = cum_a[cdf_a]
    fb = cum_b[cdf_b]
    return float(np.sum(np.abs(fa - fb) * deltas))


def partial_emd_1d(
    positions_a: np.ndarray,
    weights_a: np.ndarray,
    positions_b: np.ndarray,
    weights_b: np.ndarray,
) -> float:
    """The paper's partial-matching EMD (Eq. 12) between two 1-D signatures.

    ``min(A, B)`` units of mass move under the ground distance ``|x − y|``
    (``A``, ``B`` the two total masses), and the result is the optimal
    cost divided by that flow — the value the transportation LP gives,
    computed exactly without one.  The result is symmetric bit for bit
    and does not depend on the order of the atoms.

    Parameters
    ----------
    positions_a, positions_b:
        1-D arrays of support points.
    weights_a, weights_b:
        Non-negative masses, each with a positive total.

    Returns
    -------
    float
        ``min Σ f_kl |x_k − y_l| / min(A, B)`` over feasible flows.
    """
    xa = check_vector(positions_a, "positions_a")
    xb = check_vector(positions_b, "positions_b")
    wa = check_weights(weights_a, "weights_a")
    wb = check_weights(weights_b, "weights_b")
    if xa.shape != wa.shape or xb.shape != wb.shape:
        raise ValueError("positions and weights must have matching shapes")
    return _partial_emd_1d(xa.tolist(), wa.tolist(), xb.tolist(), wb.tolist())


def _partial_emd_1d(
    xa: Sequence[float], wa: Sequence[float], xb: Sequence[float], wb: Sequence[float]
) -> float:
    """Unchecked kernel of :func:`partial_emd_1d` on lists of floats.

    Name the side with the smaller mass ``a`` (total ``A``) and sweep the
    merged atoms left to right.  ``F`` is the ``a``-mass passed so far and
    ``S`` the ``b``-mass absorbed so far; ``S`` may grow only at a
    ``b``-atom, by at most its mass, and must end at ``A``.  The cost of
    a flow is ``Σ_gaps g·|F − S|``, minimised over ``S``.

    The cost-to-go ``f(S)`` is convex and piecewise linear, kept in
    slope-trick form: its minimum, a max-heap of left breakpoints and a
    min-heap of right breakpoints, each a ``(position, slope weight)``
    pair, with infinite walls at ``S = 0`` and at ``min(A, b-mass seen so
    far)``.  A gap adds ``g·(S − F)⁺ + g·(F − S)⁺``; a ``b``-atom of mass
    ``β`` shifts the right breakpoints by ``β``.  ``S`` never exceeds
    ``A``, so breakpoints shifted to ``A`` or beyond are dropped: every
    position kept carries rounding on the scale of ``A``, not of ``B``.
    The answer is ``f(A)``.
    """
    side_a = sorted(zip(xa, wa))
    side_b = sorted(zip(xb, wb))
    # Summed in sweep order (not by sum(), which may compensate), so F and
    # the right wall end exactly at these totals.
    total_a = total_b = 0.0
    for _, w in side_a:
        total_a += w
    for _, w in side_b:
        total_b += w
    # Put the smaller mass on the a-side; break an exact tie on the atoms,
    # so that swapping the arguments changes nothing.
    if (total_a, side_a) > (total_b, side_b):
        side_a, side_b, total_a = side_b, side_a, total_b
    events = sorted([(x, 0, w) for x, w in side_a] + [(x, 1, w) for x, w in side_b])

    inf = math.inf
    heapify, heappush, heappop = heapq.heapify, heapq.heappush, heapq.heappop
    heapreplace = heapq.heapreplace
    left: List[Tuple[float, float]] = [(-0.0, inf)]  # (−position, weight): a max-heap
    right: List[Tuple[float, float]] = [(0.0, inf)]  # (position, weight)
    minimum = 0.0
    mass_a = 0.0  # F
    previous = events[0][0]
    for x, is_b, w in events:
        gap = x - previous
        previous = x
        if gap > 0:
            # + gap·(S − F)⁺: the left breakpoints above F move right.
            if mass_a >= -left[0][0]:
                heappush(right, (mass_a, gap))
            else:
                heappush(left, (-mass_a, gap))
                rest = gap
                while rest > 0:
                    neg, weight = left[0]
                    take = weight if weight < rest else rest
                    minimum += take * (-neg - mass_a)
                    heappush(right, (-neg, take))
                    if weight > take:
                        heapreplace(left, (neg, weight - take))
                    else:
                        heappop(left)
                    rest -= take
            # + gap·(F − S)⁺: the right breakpoints below F move left.
            if mass_a <= right[0][0]:
                heappush(left, (-mass_a, gap))
            else:
                heappush(right, (mass_a, gap))
                rest = gap
                while rest > 0:
                    position, weight = right[0]
                    take = weight if weight < rest else rest
                    minimum += take * (mass_a - position)
                    heappush(left, (-position, take))
                    if weight > take:
                        heapreplace(right, (position, weight - take))
                    else:
                        heappop(right)
                    rest -= take
        if is_b:
            # S ends at A, so breakpoints shifted to A or beyond shape
            # nothing that matters: drop them, and stop the wall at A.
            shifted: List[Tuple[float, float]] = []
            for position, weight in right:
                position += w
                if position < total_a:
                    shifted.append((position, weight))
                elif weight == inf:
                    shifted.append((total_a, inf))
            heapify(shifted)
            right = shifted
        else:
            mass_a += w

    # f(A): every left breakpoint sits at or below A, every right one
    # below A but the wall, which has reached A.
    cost = minimum
    for position, weight in right:
        if weight != inf:
            cost += weight * (total_a - position)
    return cost / total_a


def emd_1d_histograms(counts_a: np.ndarray, counts_b: np.ndarray, bin_width: float = 1.0) -> float:
    """EMD between two histograms sharing the same equally-spaced bins.

    Both histograms are normalised; the distance is ``bin_width`` times the
    L1 distance between their cumulative sums, a classical identity used
    for fast histogram comparison.
    """
    ca = check_weights(counts_a, "counts_a", normalize=True)
    cb = check_weights(counts_b, "counts_b", normalize=True)
    if ca.shape != cb.shape:
        raise ValueError("histograms must have the same number of bins")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    return float(bin_width * np.sum(np.abs(np.cumsum(ca) - np.cumsum(cb))[:-1])) if ca.size > 1 else 0.0

"""Reference EMD, built only on numpy and ``scipy.optimize.linprog``.

The paper's partial-matching Earth Mover's Distance (Eqs. 7-12): flows
``f_kl >= 0`` with ``sum_l f_kl <= w_a[k]``, ``sum_k f_kl <= w_b[l]`` and
total flow ``min(sum w_a, sum w_b)``; the distance is the optimal cost
divided by the total flow, under the Euclidean ground distance.  It shares
no code with the library, so the benchmark can check the library's band
whichever solver route produced it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

#: Agreement required between the library's band and this oracle,
#: relative to max(1, |oracle|).
TOLERANCE = 1e-9


def partial_matching_emd(
    positions_a: np.ndarray,
    weights_a: np.ndarray,
    positions_b: np.ndarray,
    weights_b: np.ndarray,
) -> float:
    """Partial-matching EMD between two weighted point sets, as a dense LP."""
    pos_a = np.asarray(positions_a, dtype=float).reshape(len(weights_a), -1)
    pos_b = np.asarray(positions_b, dtype=float).reshape(len(weights_b), -1)
    w_a = np.asarray(weights_a, dtype=float)
    w_b = np.asarray(weights_b, dtype=float)
    m, n = len(w_a), len(w_b)
    total = min(w_a.sum(), w_b.sum())
    if total <= 0:
        return 0.0
    cost = np.sqrt(((pos_a[:, None, :] - pos_b[None, :, :]) ** 2).sum(axis=-1))
    rows = np.kron(np.eye(m), np.ones((1, n)))  # sum over l of f_kl
    cols = np.kron(np.ones((1, m)), np.eye(n))  # sum over k of f_kl
    result = linprog(
        cost.ravel(),
        A_ub=np.vstack([rows, cols]),
        b_ub=np.concatenate([w_a, w_b]),
        A_eq=np.ones((1, m * n)),
        b_eq=[total],
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"oracle LP failed: {result.message}")
    return float(result.fun) / total


def sample_band_pairs(
    n: int, bandwidth: int, count: int, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """``count`` distinct in-band pairs ``i < j``, ``j - i < bandwidth``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + bandwidth))]
    chosen = rng.choice(len(pairs), size=min(count, len(pairs)), replace=False)
    return [pairs[k] for k in sorted(chosen)]


def band_mismatches(
    signatures: Sequence, matrix: np.ndarray, pairs: Sequence[Tuple[int, int]]
) -> List[str]:
    """Describe every sampled band entry that disagrees with the oracle."""
    bad = []
    for i, j in pairs:
        a, b = signatures[i], signatures[j]
        expected = partial_matching_emd(a.positions, a.weights, b.positions, b.weights)
        got = float(matrix[i, j])
        if not abs(got - expected) <= TOLERANCE * max(1.0, abs(expected)):
            bad.append(f"band[{i},{j}]={got!r} but oracle gives {expected!r}")
    return bad

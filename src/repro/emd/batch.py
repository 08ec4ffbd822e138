"""Banded pairwise-EMD storage and a batched distance engine.

The detector only ever reads EMD values between signatures ``i`` and ``j``
with ``|i − j| < τ + τ′`` (they can share a reference/test window only
inside that band), so materialising a dense ``n × n`` matrix wastes both
memory and — far worse — ``O(n²)`` transportation solves.  This module
provides the two pieces the detectors build on instead:

* :class:`BandedDistanceMatrix` — stores only the ``O(n · (τ + τ′))``
  band of the symmetric pairwise matrix, with windowed views for the
  score computation and a dense export for Fig.-6-style plots;
* :class:`PairwiseEMDEngine` — computes batches of signature pairs.

The engine has one route, exact, taken pair by pair:

* for one-dimensional supports under a ground distance that is
  ``|x − y|`` there (``euclidean``, ``cityblock``, ``manhattan``,
  ``chebyshev``), no LP: the closed-form CDF integral, vectorised across
  every equal-mass pair, and the slope-trick sweep of
  :func:`~repro.emd.one_dimensional.partial_emd_1d`, one pair at a
  time, for unequal masses;
* a stacked exact LP for everything else (dimension 2 or more,
  ``sqeuclidean``, callables).  Under a metric ground distance each
  pair's coincident mass is matched in place first: where atom ``i`` of
  one signature sits exactly where atom ``j`` of the other does, an
  optimal flow keeps ``min(w_i, u_j)`` there (triangle inequality), so
  only the mass that moves reaches the LP, and a pair with nothing left
  on one side is exactly 0.  The residual pairs are grouped by
  ``(dimension, K_a, K_b)`` of what is left, and each chunk of a group
  is solved as one block-diagonal HiGHS model by the core of
  :func:`~repro.emd.linprog_batch.solve_emd_linprog_batch`, without its
  input checks (the engine built the inputs itself), over a
  ``(P, K_a, K_b)`` cost tensor built only when that chunk is solved.

The per-pair solvers ``"linprog"`` and ``"simplex"`` live only in
:func:`repro.emd.emd`, where tests use them as oracles (and the shard
orchestrator's poison-pair rescue uses ``"linprog"``).  There is no
entropic backend: every route computes the same partial-matching EMD
exactly.  With ``parallel_backend="process"`` the stacked chunks run on
a lazily created worker-process pool (use
:meth:`~PairwiseEMDEngine.close` or a ``with`` block to release it).

Every routing decision, the in-place matching included, is pair-local,
so a pair is solved by the same route no matter which other pairs share
its batch (the invariant :mod:`repro.emd.sharding` and the cross-stream
drain rely on).  The 1-D paths give the same bits in any batch; stacked
HiGHS solves may still differ in the last ulp with their chunk's
composition, which the parity suites bound at 1e-12.  A
:class:`~repro.exceptions.SolverError` raised inside any batched solve is
re-raised with the :meth:`~PairwiseEMDEngine.compute_pairs` positions of
the pairs that were stacked into the failing solve
(``SolverError.pair_indices``), so batching never loses track of which
inputs failed.
"""

from __future__ import annotations

import os
import pickle
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from concurrent.futures import Executor

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ConfigurationError, ReproError, SolverError, ValidationError
from ..signatures import Signature
from .distance import _equal_masses, _is_1d_lp_pair
from .ground_distance import (
    _MAX_COST_ENTRIES,
    GroundDistance,
    is_metric,
    paired_cross_distances,
)
from .linprog_batch import _solve_batch_unchecked, chunk_slices
from .one_dimensional import _partial_emd_1d
from .registry import EMD_SOLVERS, PARALLEL_BACKENDS, ParallelBackendName

__all__ = [
    "EMD_SOLVERS",
    "PARALLEL_BACKENDS",
    "BandedDistanceMatrix",
    "PairwiseEMDEngine",
    "band_pair_counts",
    "band_pair_indices",
]


def band_pair_counts(n: int, bandwidth: int) -> np.ndarray:
    """Stored band pairs owned by each row.

    ``counts[i] = min(bandwidth − 1, n − 1 − i)`` — row ``i`` owns the
    pairs ``(i, j)`` with ``i < j < min(n, i + bandwidth)``.  Shard
    planners balance row-block partitions on these counts without
    materialising any pairs.
    """
    counts = np.minimum(bandwidth - 1, n - 1 - np.arange(n))
    return np.maximum(counts, 0)


def band_pair_indices(
    n: int, bandwidth: int, row_start: int = 0, row_stop: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Band index pairs ``(i, j)``, ``i < j``, owned by a row range.

    Row-major over rows ``row_start … row_stop − 1``, built without a
    Python double loop; with the default full range this enumerates the
    whole band in the canonical order used by
    :meth:`BandedDistanceMatrix.pair_indices`.
    """
    row_stop = n if row_stop is None else row_stop
    if not 0 <= row_start <= row_stop <= n:
        raise ValidationError(f"row range [{row_start}, {row_stop}) invalid for n={n}")
    rows = np.arange(row_start, row_stop)
    if rows.size == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    counts = np.minimum(bandwidth - 1, n - 1 - rows)
    counts = np.maximum(counts, 0)
    total = int(counts.sum())
    i = np.repeat(rows, counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    j = i + 1 + (np.arange(total) - np.repeat(starts, counts))
    return i, j


class BandedDistanceMatrix:
    """Symmetric ``n × n`` distance matrix stored only inside a band.

    Entries ``(i, j)`` with ``0 < |i − j| < bandwidth`` are stored (the
    diagonal is implicitly zero); anything further from the diagonal is
    *out of band* and reading or writing it raises
    :class:`~repro.exceptions.ValidationError`.  Storage is an
    ``(n, bandwidth − 1)`` array where column ``k`` holds the distances at
    offset ``k + 1`` from the diagonal.
    """

    def __init__(self, n: int, bandwidth: int) -> None:
        self._n = check_positive_int(n, "n")
        self._bandwidth = check_positive_int(bandwidth, "bandwidth", minimum=2)
        self._band = np.full((self._n, self._bandwidth - 1), np.nan, dtype=float)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of signatures (rows/columns of the virtual matrix)."""
        return self._n

    @property
    def bandwidth(self) -> int:
        """Band half-width + 1: offsets ``1 … bandwidth − 1`` are stored."""
        return self._bandwidth

    @property
    def band(self) -> np.ndarray:
        """The raw ``(n, bandwidth − 1)`` band storage (read-only view)."""
        view = self._band.view()
        view.setflags(write=False)
        return view

    @property
    def nbytes(self) -> int:
        """Bytes used by the band storage."""
        return int(self._band.nbytes)

    def in_band(self, i: int, j: int) -> bool:
        """Whether entry ``(i, j)`` is stored (or is the implicit diagonal)."""
        if not (0 <= i < self._n and 0 <= j < self._n):
            return False
        return abs(i - j) < self._bandwidth

    def pair_indices(
        self, row_start: int = 0, row_stop: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stored index pairs as ``(i, j)`` arrays with ``i < j``.

        Row-major, built without a Python double loop: row ``i``
        contributes offsets ``1 … counts[i]`` where
        ``counts[i] = min(bandwidth − 1, n − 1 − i)``.  The optional
        ``[row_start, row_stop)`` range restricts the result to pairs
        *owned* by those rows (``i`` in range; ``j`` may reach up to
        ``bandwidth − 1`` rows further) — the slicing primitive shard
        planners partition the band with.
        """
        return band_pair_indices(self._n, self._bandwidth, row_start, row_stop)

    def set_pairs(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> None:
        """Vectorised writer: ``self[rows[k], cols[k]] = values[k]``.

        Every pair must be in band and off the diagonal; used by the
        engine's band build and by shard merges, which would otherwise
        pay one ``__setitem__`` bounds check per pair.
        """
        r = np.asarray(rows, dtype=int)
        c = np.asarray(cols, dtype=int)
        v = np.asarray(values, dtype=float)
        if r.shape != c.shape or r.shape != v.shape or r.ndim != 1:
            raise ValidationError("rows, cols and values must be 1-D and equally long")
        if r.size == 0:
            return
        if r.min() < 0 or c.min() < 0 or r.max() >= self._n or c.max() >= self._n:
            raise ValidationError("pair indices out of range")
        lo = np.minimum(r, c)
        hi = np.maximum(r, c)
        offset = hi - lo
        if np.any(offset == 0) or np.any(offset >= self._bandwidth):
            raise ValidationError(
                f"pairs must be off-diagonal and inside the band of width {self._bandwidth}"
            )
        self._band[lo, offset - 1] = v

    # ------------------------------------------------------------------ #
    # Element access
    # ------------------------------------------------------------------ #
    def _check_indices(self, i: int, j: int) -> None:
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise ValidationError(
                f"index ({i}, {j}) out of range for a {self._n} x {self._n} matrix"
            )
        if abs(i - j) >= self._bandwidth:
            raise ValidationError(
                f"entry ({i}, {j}) lies outside the band of width {self._bandwidth}"
            )

    def __getitem__(self, key: Tuple[int, int]) -> float:
        i, j = key
        self._check_indices(i, j)
        if i == j:
            return 0.0
        lo, hi = (i, j) if i < j else (j, i)
        return float(self._band[lo, hi - lo - 1])

    def __setitem__(self, key: Tuple[int, int], value: float) -> None:
        i, j = key
        self._check_indices(i, j)
        if i == j:
            raise ValidationError("diagonal entries are fixed at zero")
        lo, hi = (i, j) if i < j else (j, i)
        self._band[lo, hi - lo - 1] = float(value)

    # ------------------------------------------------------------------ #
    # Block access
    # ------------------------------------------------------------------ #
    def block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Dense sub-matrix for the given row/column indices.

        Every requested entry must lie inside the band; sliding windows of
        total length ``τ + τ′ ≤ bandwidth`` always satisfy this.
        """
        r = np.asarray(rows, dtype=int)
        c = np.asarray(cols, dtype=int)
        if r.size == 0 or c.size == 0:
            return np.zeros((r.size, c.size), dtype=float)
        if r.min() < 0 or r.max() >= self._n or c.min() < 0 or c.max() >= self._n:
            raise ValidationError("block indices out of range")
        i = r[:, None]
        j = c[None, :]
        offset = np.abs(i - j)
        if np.any(offset >= self._bandwidth):
            raise ValidationError(
                f"block reaches outside the band of width {self._bandwidth}"
            )
        lo = np.minimum(i, j)
        values = self._band[lo, np.maximum(offset, 1) - 1]
        return np.where(offset == 0, 0.0, values)

    def window(
        self, start: int, n_ref: int, n_test: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three window blocks for an inspection point.

        Returns ``(ref_pairwise, test_pairwise, cross)`` for the reference
        window ``[start, start + n_ref)`` and the test window
        ``[start + n_ref, start + n_ref + n_test)``.
        """
        ref_idx = np.arange(start, start + n_ref)
        test_idx = np.arange(start + n_ref, start + n_ref + n_test)
        return (
            self.block(ref_idx, ref_idx),
            self.block(test_idx, test_idx),
            self.block(ref_idx, test_idx),
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Full symmetric ``n × n`` matrix; entries outside the band are zero.

        Unfilled in-band entries export as zero as well, matching the
        dense-matrix convention used by the Fig. 6 plots.
        """
        dense = np.zeros((self._n, self._n), dtype=float)
        for offset in range(1, min(self._bandwidth, self._n)):
            column = self._band[: self._n - offset, offset - 1]
            values = np.where(np.isnan(column), 0.0, column)
            rows = np.arange(self._n - offset)
            dense[rows, rows + offset] = values
            dense[rows + offset, rows] = values
        return dense

    @classmethod
    def from_dense(cls, matrix: np.ndarray, bandwidth: int) -> "BandedDistanceMatrix":
        """Extract the band of an existing dense symmetric matrix.

        Copies one super-diagonal of ``matrix`` per band offset (the
        mirror image of :meth:`to_dense`) rather than assigning the
        O(n·bandwidth) entries one pair at a time.
        """
        dense = np.asarray(matrix, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValidationError("matrix must be square")
        banded = cls(dense.shape[0], bandwidth)
        n = dense.shape[0]
        for offset in range(1, min(banded.bandwidth, n)):
            banded._band[: n - offset, offset - 1] = np.diagonal(dense, offset)
        return banded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BandedDistanceMatrix(n={self._n}, bandwidth={self._bandwidth})"


# ---------------------------------------------------------------------- #
# Batched 1-D closed form
# ---------------------------------------------------------------------- #
def _batched_wasserstein_1d(pairs: Sequence[Tuple[Signature, Signature]]) -> np.ndarray:
    """Exact 1-D Wasserstein distance for many signature pairs at once.

    Same quantile-function integral as
    :func:`repro.emd.one_dimensional.wasserstein_1d`, vectorised across
    pairs: supports are padded (with zero-weight repeats of the last
    position, which add only zero-length segments), merged by one batched
    stable sort, and the CDF gap is integrated with row-wise cumulative
    sums.
    """
    n_pairs = len(pairs)
    size_a = max(sig_a.size for sig_a, _ in pairs)
    size_b = max(sig_b.size for _, sig_b in pairs)
    xa = np.empty((n_pairs, size_a))
    wa = np.zeros((n_pairs, size_a))
    xb = np.empty((n_pairs, size_b))
    wb = np.zeros((n_pairs, size_b))
    for p, (sig_a, sig_b) in enumerate(pairs):
        ka, kb = sig_a.size, sig_b.size
        xa[p, :ka] = sig_a.positions[:, 0]
        xa[p, ka:] = sig_a.positions[-1, 0]
        wa[p, :ka] = sig_a.weights / sig_a.total_weight
        xb[p, :kb] = sig_b.positions[:, 0]
        xb[p, kb:] = sig_b.positions[-1, 0]
        wb[p, :kb] = sig_b.weights / sig_b.total_weight

    all_x = np.concatenate([xa, xb], axis=1)
    sorter = np.argsort(all_x, axis=1, kind="stable")
    sorted_x = np.take_along_axis(all_x, sorter, axis=1)
    deltas = np.diff(sorted_x, axis=1)

    wa_ext = np.concatenate([wa, np.zeros_like(wb)], axis=1)
    wb_ext = np.concatenate([np.zeros_like(wa), wb], axis=1)
    cdf_a = np.cumsum(np.take_along_axis(wa_ext, sorter, axis=1), axis=1)[:, :-1]
    cdf_b = np.cumsum(np.take_along_axis(wb_ext, sorter, axis=1), axis=1)[:, :-1]
    # Summed sequentially, not pairwise: the padding only adds exact zero
    # terms, so a pair's bits do not depend on the batch's largest support.
    return np.cumsum(np.abs(cdf_a - cdf_b) * deltas, axis=1)[:, -1]


def _translate_group_error(exc: SolverError, members: Sequence[int]) -> SolverError:
    """Batch-local failure indices -> :meth:`PairwiseEMDEngine.compute_pairs` positions.

    A stacked solve reports which rows of *its* batch failed (or nothing,
    when the failure is not attributable); either way the caller needs to
    know which of the pairs it submitted were stacked into the failing
    solve, so re-raise with the group's positions in the original
    ``compute_pairs`` batch.
    """
    if exc.pair_indices is None:
        failing = [int(p) for p in members]
    else:
        failing = [int(members[i]) for i in exc.pair_indices]
    return SolverError(
        f"{exc} [pairs at compute_pairs positions {failing} were part "
        "of the failing batched solve]",
        pair_indices=failing,
    )


class _Residuals(NamedTuple):
    """Pairs that share one residual shape ``(K_a, K_b)``, ready to stack."""

    members: np.ndarray  # (P,) compute_pairs positions, ascending
    pairs: List[Tuple[Signature, Signature]]
    keep_a: np.ndarray  # (P, width) atoms left, False past each signature's size
    keep_b: np.ndarray
    supply: np.ndarray  # (P, K_a) residual weights of the kept atoms
    demand: np.ndarray  # (P, K_b)
    matched: np.ndarray  # (P,) mass matched in place before the LP

    def take(self, rows: slice) -> "_Residuals":
        """The same fields for a subset of the pairs."""
        return _Residuals(*(field[rows] for field in self))


def _match_in_place(
    sigs_a: Sequence[Signature],
    sigs_b: Sequence[Signature],
    keep_a: np.ndarray,
    keep_b: np.ndarray,
    w_a: np.ndarray,
    w_b: np.ndarray,
) -> np.ndarray:
    """Match a block of pairs' coincident mass in place; return the matched mass.

    ``keep_*`` and ``w_*`` are the block's atom masks and weights,
    padded to a common width, and are updated in place.  Every atom ``i``
    of one signature that sits exactly where atom ``j`` of the other does
    keeps ``min(w_i, u_j)`` in place: both weights lose it, it joins the
    pair's matched mass, and an atom whose residual is zero is dropped.
    Under a metric ground distance some optimal flow does exactly that
    (moving mass off a zero-cost edge never pays, by the triangle
    inequality), so the residual LP plus the matched mass is the pair's
    exact EMD.  A position repeated in one signature and present in the
    other is not a one-to-one match, so that pair is left whole.
    """
    dim = sigs_a[0].dimension
    pos_a = np.full(keep_a.shape + (dim,), np.nan)
    pos_b = np.full(keep_b.shape + (dim,), np.nan)
    pos_a[keep_a] = np.concatenate([sig.positions for sig in sigs_a])
    pos_b[keep_b] = np.concatenate([sig.positions for sig in sigs_b])
    same = pos_a[:, :, None, 0] == pos_b[:, None, :, 0]
    for axis in range(1, dim):
        same &= pos_a[:, :, None, axis] == pos_b[:, None, :, axis]
    one_to_one = (same.sum(axis=2) <= 1).all(axis=1) & (same.sum(axis=1) <= 1).all(axis=1)
    pair, i, j = np.nonzero(same & one_to_one[:, None, None])
    # One-to-one, so no atom is indexed twice here; and bincount adds
    # each pair's matches in atom order, whatever else is in the block.
    moved = np.minimum(w_a[pair, i], w_b[pair, j])
    w_a[pair, i] -= moved
    w_b[pair, j] -= moved
    keep_a[pair, i] = w_a[pair, i] > 0
    keep_b[pair, j] = w_b[pair, j] > 0
    return np.bincount(pair, weights=moved, minlength=len(sigs_a))


def _residual_groups(
    pairs: Sequence[Tuple[Signature, Signature]], indices: Sequence[int], match: bool
) -> Tuple[List[Tuple[Tuple[int, int, int], _Residuals]], np.ndarray]:
    """The stacked route's LP groups, keyed ``(d, K_a, K_b)`` of the residual pairs.

    With ``match``, each pair's coincident mass is matched in place first
    (:func:`_match_in_place`), in blocks of at most 65,536 coordinate
    comparisons (padded atom pairs times ``d``), so the test never holds
    more than that.  Only atom masks and weights are kept for the whole
    batch; positions stay in the signatures until a chunk is solved.
    Members stay in ascending position order within each group, and
    groups come in the order of their first member.  Also returns the
    positions of the pairs with an empty side, which are exactly 0 and
    need no LP.
    """
    by_dim: Dict[int, List[int]] = {}
    for p in indices:
        by_dim.setdefault(pairs[p][0].dimension, []).append(p)
    groups = []
    vanished = [np.empty(0, dtype=int)]
    for dim, positions in by_dim.items():
        members = np.array(positions)
        sigs_a = [pairs[p][0] for p in positions]
        sigs_b = [pairs[p][1] for p in positions]
        size_a = np.array([sig.size for sig in sigs_a])
        size_b = np.array([sig.size for sig in sigs_b])
        keep_a = np.arange(size_a.max()) < size_a[:, None]
        keep_b = np.arange(size_b.max()) < size_b[:, None]
        w_a = np.zeros(keep_a.shape)
        w_b = np.zeros(keep_b.shape)
        w_a[keep_a] = np.concatenate([sig.weights for sig in sigs_a])
        w_b[keep_b] = np.concatenate([sig.weights for sig in sigs_b])
        matched = np.zeros(members.size)
        if match:
            step = max(1, _MAX_COST_ENTRIES // (keep_a.shape[1] * keep_b.shape[1] * dim))
            for start in range(0, members.size, step):
                block = slice(start, start + step)
                matched[block] = _match_in_place(
                    sigs_a[block],
                    sigs_b[block],
                    keep_a[block],
                    keep_b[block],
                    w_a[block],
                    w_b[block],
                )
        left_a = keep_a.sum(axis=1)
        left_b = keep_b.sum(axis=1)
        live = (left_a > 0) & (left_b > 0)
        vanished.append(members[~live])
        shape_code = left_a * (keep_b.shape[1] + 1) + left_b
        for code in np.unique(shape_code[live]):
            rows = np.flatnonzero(live & (shape_code == code))
            k_a, k_b = int(left_a[rows[0]]), int(left_b[rows[0]])
            kept_a, kept_b = keep_a[rows], keep_b[rows]
            group = _Residuals(
                members[rows],
                [pairs[p] for p in members[rows]],
                kept_a,
                kept_b,
                w_a[rows][kept_a].reshape(-1, k_a),
                w_b[rows][kept_b].reshape(-1, k_b),
                matched[rows],
            )
            groups.append(((dim, k_a, k_b), group))
    groups.sort(key=lambda item: item[1].members[0])
    return groups, np.concatenate(vanished)


def _kept_positions(signatures: Sequence[Signature], keep: np.ndarray) -> np.ndarray:
    """The ``(P, K, d)`` positions of each signature's kept atoms."""
    sizes = np.array([sig.size for sig in signatures])
    flat = np.concatenate([sig.positions for sig in signatures])
    kept = flat[keep[np.arange(keep.shape[1]) < sizes[:, None]]]
    return kept.reshape(len(signatures), -1, flat.shape[1])


# One stacked-LP job: a chunk of one residual group and the ground distance.
_StackedJob = Tuple[_Residuals, GroundDistance]
_Job = TypeVar("_Job")
_Result = TypeVar("_Result")


def _solve_stacked_chunk(args: _StackedJob) -> np.ndarray:
    """One stacked exact LP over a chunk of same-shape residual pairs (pool-safe).

    The chunk's kept positions and its ``(P, K_a, K_b)`` cost tensor are
    built here, only when the chunk is solved, so a band's costs never
    sit in memory at once, by
    :func:`~repro.emd.ground_distance.paired_cross_distances`: one
    ground-distance call per up to 65,536 entries, not one per pair.  A
    pair's distance is its LP cost over its matched plus LP-moved mass
    (exactly 0 when both are 0).  A failure is re-raised with the
    chunk's :meth:`PairwiseEMDEngine.compute_pairs` positions.
    """
    chunk, ground_distance = args
    cost = paired_cross_distances(
        _kept_positions([a for a, _ in chunk.pairs], chunk.keep_a),
        _kept_positions([b for _, b in chunk.pairs], chunk.keep_b),
        ground_distance,
    )
    try:
        result = _solve_batch_unchecked(cost, chunk.supply, chunk.demand)
    except SolverError as exc:
        raise _translate_group_error(exc, chunk.members) from exc
    moved = chunk.matched + result.total_flows
    distances = np.zeros_like(moved)
    np.divide(result.costs, moved, out=distances, where=moved > 0)
    return distances


class PairwiseEMDEngine:
    """Computes EMD over batches of signature pairs.

    Every pair takes the one exact route: a 1-D pair under a metric that
    is ``|x − y|`` there takes the closed-form integral (equal masses) or
    the slope-trick sweep (unequal masses); any other pair goes to
    block-diagonal HiGHS LPs.  Under a metric its coincident mass is
    matched in place first, and the residual pairs are grouped by
    ``(dimension, K_a, K_b)`` of what is left.

    Parameters
    ----------
    ground_distance:
        The ground distance between signature representatives.
    parallel_backend:
        ``"serial"`` (default) or ``"process"``.  A process pool solves
        the independent chunks of the stacked LPs; the 1-D paths always
        run in-process.
    n_workers:
        Pool size; defaults to the CPU count under ``"process"``.

    Attributes
    ----------
    n_evaluations:
        Total number of pair distances computed so far (all paths).
    n_fast_path:
        How many of those took an LP-free 1-D path: the vectorised
        closed form or the slope-trick sweep.
    n_linprog_batched:
        How many pair distances were solved by the stacked exact LP
        route, including pairs whose LP vanished once their coincident
        mass was matched in place, so
        ``n_fast_path + n_linprog_batched == n_evaluations``.

    Notes
    -----
    The worker pool is created lazily on the first batch with two or
    more stacked chunks and is *kept alive* across calls, so streaming
    workloads pay the pool start-up cost once instead of per batch.
    Call :meth:`close` (or use the engine as a context manager) to
    release the pool; a closed engine raises
    :class:`~repro.exceptions.ConfigurationError` on further use.
    """

    def __init__(
        self,
        *,
        ground_distance: GroundDistance = "euclidean",
        parallel_backend: ParallelBackendName = "serial",
        n_workers: Optional[int] = None,
    ) -> None:
        if parallel_backend not in PARALLEL_BACKENDS:
            raise ConfigurationError(
                f"parallel_backend must be one of {PARALLEL_BACKENDS}, got {parallel_backend!r}"
            )
        if n_workers is not None:
            n_workers = check_positive_int(n_workers, "n_workers")
        self.ground_distance = ground_distance
        self.parallel_backend = parallel_backend
        self.n_workers = n_workers
        self.n_evaluations = 0
        self.n_fast_path = 0
        self.n_cost_cache_hits = 0  # always 0: no cost cache; perfbench/tracing.py reads it
        self.n_sinkhorn_batched = 0  # always 0: no entropic route; perfbench/tracing.py reads it
        self.n_linprog_batched = 0
        self._pool = None
        self._pool_failed = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Shut down the persistent worker pool and mark the engine closed.

        Idempotent; afterwards any distance computation raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._closed = True

    def __enter__(self) -> "PairwiseEMDEngine":
        self._check_open()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "this PairwiseEMDEngine has been closed; create a new engine"
            )

    def _acquire_pool(self) -> Optional["Executor"]:
        """The persistent executor, created on first use; ``None`` → serial."""
        if self._pool is not None:
            return self._pool
        if self._pool_failed:
            return None
        workers = self.n_workers or os.cpu_count() or 1
        if workers <= 1:
            return None
        from concurrent.futures import ProcessPoolExecutor

        try:
            self._pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, RuntimeError, ImportError):
            # Pool creation can fail in restricted environments (no
            # /dev/shm, forbidden fork, ...); the serial path is always
            # available, and we stop retrying for subsequent batches.
            self._pool_failed = True
            return None
        return self._pool

    # ------------------------------------------------------------------ #
    # Pair computation
    # ------------------------------------------------------------------ #
    def compute(self, sig_a: Signature, sig_b: Signature) -> float:
        """Distance for a single pair (counted in the evaluation stats)."""
        return float(self.compute_pairs([(sig_a, sig_b)])[0])

    def map(self, fn: Callable[[_Job], _Result], jobs: Sequence[_Job]) -> List[_Result]:
        """``[fn(job) for job in jobs]``, on the worker pool when there is one.

        Runs the band's stacked LP chunks, and lets other stages of a run
        (the offline detector's k-means refinement) share the same pool,
        with its lazy start, broken-pool → serial fallback and
        :meth:`close`.  Under ``parallel_backend="process"``, ``fn`` must
        be a picklable module-level function.
        """
        self._check_open()
        pool: Optional["Executor"] = None
        if self.parallel_backend != "serial" and len(jobs) >= 2:
            pool = self._acquire_pool()
        if pool is None:
            return [fn(job) for job in jobs]
        from concurrent.futures import BrokenExecutor

        try:
            return list(pool.map(fn, jobs))
        except (OSError, BrokenExecutor, RuntimeError) as exc:
            # Library errors raised inside a job (SolverError and friends
            # subclass RuntimeError) are computation failures: propagate
            # them and leave the pool alive.
            if isinstance(exc, ReproError):
                raise
            # The pool itself broke — workers spawn lazily at submit, so
            # a failed spawn lands here, not in _acquire_pool.  Retire it,
            # stop retrying, and fall back to serial for this and all
            # later batches.
            self._pool_failed = True
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass
            self._pool = None
            return [fn(job) for job in jobs]
        except (pickle.PicklingError, AttributeError, TypeError):
            # Process pools cannot pickle callable ground distances (the
            # pickler raises exactly these types), but a worker computation
            # can raise them too; the pool is healthy either way, so run
            # this batch serially — a genuine computation error re-raises
            # there — and keep the pool for the next batch.
            return [fn(job) for job in jobs]

    def compute_pairs(self, pairs: Sequence[Tuple[Signature, Signature]]) -> np.ndarray:
        """Distances for a batch of pairs, in input order.

        Routing is pair-local, so a pair's distance does not depend on
        which other pairs share the batch beyond last-ulp rounding in the
        stacked HiGHS solves (≤1e-12); the 1-D paths and the in-place
        matching give the same bits in any batch.  A failing stacked
        solve re-raises :class:`~repro.exceptions.SolverError` with
        ``pair_indices`` in *this call's* positions, so callers that
        gather pairs from many sources (the supervisor's cross-stream
        drain) can map failures back to their owners.
        """
        self._check_open()
        pairs = list(pairs)
        out = np.empty(len(pairs), dtype=float)
        if not pairs:
            return out
        self._solve_stacked(pairs, self._solve_fast_path(pairs, out), out)
        self.n_evaluations += len(pairs)
        return out

    # ------------------------------------------------------------------ #
    # The route: LP-free 1-D paths and stacked shape-grouped LPs
    # ------------------------------------------------------------------ #
    def _solve_fast_path(
        self, pairs: List[Tuple[Signature, Signature]], out: np.ndarray
    ) -> List[int]:
        """Fill the LP-free 1-D pairs; return the positions of the rest.

        Equal-mass pairs share one vectorised closed-form integral; the
        other 1-D pairs take the slope-trick kernel one pair at a time.
        """
        closed: List[int] = []
        rest: List[int] = []
        n_partial = 0
        for p in range(len(pairs)):
            sig_a, sig_b = pairs[p]
            if not _is_1d_lp_pair(sig_a, sig_b, self.ground_distance):
                rest.append(p)
            elif _equal_masses(sig_a, sig_b):
                closed.append(p)
            else:
                out[p] = _partial_emd_1d(
                    sig_a.positions.ravel().tolist(),
                    sig_a.weights.tolist(),
                    sig_b.positions.ravel().tolist(),
                    sig_b.weights.tolist(),
                )
                n_partial += 1
        if closed:
            out[closed] = _batched_wasserstein_1d([pairs[p] for p in closed])
        self.n_fast_path += len(closed) + n_partial
        return rest

    def _solve_stacked(
        self,
        pairs: List[Tuple[Signature, Signature]],
        indices: List[int],
        out: np.ndarray,
    ) -> None:
        """Block-diagonal exact LPs over pairs grouped by residual shape.

        Under a metric ground distance each pair's coincident mass is
        first matched in place (:func:`_match_in_place`), so only the mass
        that moves reaches HiGHS; a pair with an empty side is exactly 0
        and needs no LP.  ``sqeuclidean`` and callables keep their pairs
        whole.  Pairs are then grouped by ``(d, K_a, K_b)`` of what is
        left.  Both steps depend on nothing but the pair, so a pair is
        routed identically no matter which other pairs share the batch —
        the invariant sharded builds and the cross-stream drain rely on.
        Each group is cut by :func:`~repro.emd.linprog_batch.chunk_slices`,
        and a chunk's ``(P, K_a, K_b)`` cost tensor is built only when that
        chunk is solved, so memory stays O(chunk).  Chunks are independent
        LPs, so a configured process pool solves them in parallel.
        ``indices`` are positions into ``pairs``/``out``; every one counts
        in ``n_linprog_batched``, and a failing chunk re-raises with those
        positions.
        """
        groups, vanished = _residual_groups(pairs, indices, is_metric(self.ground_distance))
        out[vanished] = 0.0
        jobs: List[_StackedJob] = [
            (group.take(piece), self.ground_distance)
            for (_, size_a, size_b), group in groups
            for piece in chunk_slices(len(group.members), size_a, size_b)
        ]
        for (chunk, _), values in zip(jobs, self.map(_solve_stacked_chunk, jobs)):
            out[chunk.members] = values
        self.n_linprog_batched += len(indices)

    def distances_from(
        self, signature: Signature, others: Sequence[Signature]
    ) -> np.ndarray:
        """Distances from one signature to each of ``others``."""
        return self.compute_pairs([(signature, other) for other in others])

    # ------------------------------------------------------------------ #
    # Matrix construction
    # ------------------------------------------------------------------ #
    def banded_matrix(
        self, signatures: Sequence[Signature], bandwidth: int
    ) -> BandedDistanceMatrix:
        """Fill the band of the pairwise matrix over a signature sequence."""
        banded = BandedDistanceMatrix(max(len(signatures), 1), bandwidth)
        rows, cols = banded.pair_indices()
        values = self.compute_pairs(
            [(signatures[i], signatures[j]) for i, j in zip(rows.tolist(), cols.tolist())]
        )
        banded.set_pairs(rows, cols, values)
        return banded


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

The exact backend ``"auto"`` (default; ``"linprog_batch"`` is a second
name for it) takes one of two routes per pair:

* the closed-form 1-D integral, vectorised across every eligible pair
  (one-dimensional supports, equal masses, an Lp ground distance);
* a stacked exact LP for everything else: pairs are grouped by
  ``(dimension, K_a, K_b)`` and each chunk of a group is solved as one
  block-diagonal HiGHS model by
  :func:`~repro.emd.linprog_batch.solve_emd_linprog_batch`, over a
  ``(P, K_a, K_b)`` cost tensor built only when that chunk is solved.

``"sinkhorn_batch"`` groups pairs by *support signature* (the byte
pattern of their positions arrays) instead and runs the tensor-batched
entropic solver :func:`~repro.emd.sinkhorn_batch.sinkhorn_transport_batch`
over one shared cost kernel per group, embedding mixed-support pairs on
one grid into the union of their own two supports; irregular supports
take the stacked exact route on normalised weights.  The per-pair
backends ``"linprog"`` and ``"simplex"`` solve one LP per pair, with
ground-distance matrices cached for pairs that share a support.  With
``parallel_backend="thread"``/``"process"`` the stacked chunks (or the
per-pair solves) run on a lazily created worker pool (use
:meth:`~PairwiseEMDEngine.close` or a ``with`` block to release it).

Every routing decision is pair-local, so a pair is solved by the same
route no matter which other pairs share its batch (the invariant
:mod:`repro.emd.sharding` and the cross-stream drain rely on); stacked
HiGHS solves may still differ in the last ulp with batch composition,
which the parity suites bound at 1e-12.  A
:class:`~repro.exceptions.SolverError` raised inside any batched solve is
re-raised with the :meth:`~PairwiseEMDEngine.compute_pairs` positions of
the pairs that were stacked into the failing solve
(``SolverError.pair_indices``), so batching never loses track of which
inputs failed.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from concurrent.futures import Executor

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ConfigurationError, ReproError, SolverError, ValidationError
from ..signatures import Signature
from .distance import _can_use_1d_fast_path, emd
from .ground_distance import GroundDistance, cross_distance_matrix
from .linprog_backend import solve_emd_linprog
from .linprog_batch import chunk_slices, solve_emd_linprog_batch
from .registry import (
    EMD_SOLVERS,
    PAIRWISE_SOLVERS,
    PARALLEL_BACKENDS,
    EMDSolverName,
    ParallelBackendName,
)
from .sinkhorn_batch import sinkhorn_transport_batch
from .transportation import solve_unbalanced_transportation

__all__ = [
    "EMD_SOLVERS",
    "PARALLEL_BACKENDS",
    "BandedDistanceMatrix",
    "PairwiseEMDEngine",
    "band_pair_counts",
    "band_pair_indices",
    "banded_emd_matrix",
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


def _check_anneal(
    anneal: Optional[Sequence[float]], epsilon: float
) -> Optional[Tuple[float, ...]]:
    """Validate an epsilon-annealing prefix against the final epsilon.

    The stages must be finite, positive and strictly decreasing, and
    every stage must stay above the final ``epsilon`` — otherwise the
    "anneal" would heat up, which only wastes the warm start.
    """
    if anneal is None:
        return None
    stages = tuple(float(e) for e in anneal)
    if not stages:
        return None
    if any(not np.isfinite(e) or e <= 0 for e in stages):
        raise ConfigurationError("sinkhorn_anneal stages must be positive and finite")
    schedule = stages + (float(epsilon),)
    if any(a <= b for a, b in zip(schedule, schedule[1:])):
        raise ConfigurationError(
            "sinkhorn_anneal must be strictly decreasing and stay above "
            f"sinkhorn_epsilon={epsilon}; got stages {stages}"
        )
    return stages


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

        Row-major (same order as :meth:`pairs`), built without a Python
        double loop: row ``i`` contributes offsets ``1 … counts[i]`` where
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

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """All stored index pairs ``(i, j)`` with ``i < j``, row-major.

        Lazy counterpart of :meth:`pair_indices`, kept for callers that
        want Python ints one pair at a time in O(1) memory (vectorised
        consumers should use :meth:`pair_indices` directly).
        """
        for i in range(self._n):
            for j in range(i + 1, min(self._n, i + self._bandwidth)):
                yield i, j

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
# Batched 1-D fast path
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
    return np.sum(np.abs(cdf_a - cdf_b) * deltas, axis=1)


def _common_support(sig_a: Signature, sig_b: Signature) -> bool:
    """Whether two signatures share the exact same positions array."""
    pa, pb = sig_a.positions, sig_b.positions
    return pa is pb or (pa.shape == pb.shape and np.array_equal(pa, pb))


# Per-worker ground-distance cache for process pools: each worker builds
# the shared common-support cost matrix once on first sight instead of
# the parent shipping it (or the worker rebuilding it) per job.
_WORKER_COST_CACHE_MAX = 64
_worker_cost_cache: Dict[tuple, np.ndarray] = {}


def _emd_pair(
    args: Tuple[Signature, Signature, GroundDistance, str, Optional[np.ndarray], bool]
) -> float:
    """Top-level worker so process pools can pickle the call.

    When a precomputed ground-distance matrix is supplied (pairs sharing a
    common support), the transportation problem is solved directly on it,
    skipping the per-pair cost-matrix build of :func:`repro.emd.emd`.
    With ``use_worker_cache`` (process pools, where shipping the parent's
    cache would cost per-job IPC) common-support matrices are instead
    built once per worker process and reused across jobs.
    """
    sig_a, sig_b, ground_distance, backend, cost_matrix, use_worker_cache = args
    if (
        cost_matrix is None
        and use_worker_cache
        and isinstance(ground_distance, str)
        and _common_support(sig_a, sig_b)
    ):
        positions = sig_a.positions
        key = (ground_distance, positions.shape, positions.tobytes())
        cost_matrix = _worker_cost_cache.get(key)
        if cost_matrix is None:
            cost_matrix = cross_distance_matrix(
                positions, sig_b.positions, ground_distance
            )
            if len(_worker_cost_cache) >= _WORKER_COST_CACHE_MAX:
                _worker_cost_cache.clear()
            _worker_cost_cache[key] = cost_matrix
    if cost_matrix is None:
        return emd(sig_a, sig_b, ground_distance=ground_distance, backend=backend)
    if backend == "simplex":
        plan = solve_unbalanced_transportation(cost_matrix, sig_a.weights, sig_b.weights)
    elif backend in ("auto", "linprog"):
        plan = solve_emd_linprog(cost_matrix, sig_a.weights, sig_b.weights)
    else:
        raise ConfigurationError(
            f"backend must be one of {PAIRWISE_SOLVERS}, got {backend!r}"
        )
    if plan.total_flow <= 0:
        return 0.0
    return float(plan.cost / plan.total_flow)


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


# One stacked-LP job: the chunk's compute_pairs positions, its pairs and
# the ground distance.
_StackedJob = Tuple[List[int], List[Tuple[Signature, Signature]], GroundDistance]
_Job = TypeVar("_Job")
_Result = TypeVar("_Result")


def _solve_stacked_chunk(args: _StackedJob) -> np.ndarray:
    """One stacked exact LP over a chunk of same-shape pairs (pool-safe).

    The chunk's ``(P, K_a, K_b)`` cost tensor is built here, only when
    the chunk is solved, so a band's costs never sit in memory at once.
    ``members`` are the chunk's :meth:`PairwiseEMDEngine.compute_pairs`
    positions, which a failure is re-raised with.
    """
    members, chunk, ground_distance = args
    cost = np.stack(
        [cross_distance_matrix(a.positions, b.positions, ground_distance) for a, b in chunk]
    )
    supply = np.stack([a.weights for a, _ in chunk])
    demand = np.stack([b.weights for _, b in chunk])
    try:
        return solve_emd_linprog_batch(cost, supply, demand).distances
    except SolverError as exc:
        raise _translate_group_error(exc, members) from exc


class PairwiseEMDEngine:
    """Computes EMD over batches of signature pairs.

    Parameters
    ----------
    ground_distance, backend:
        The ground distance and solver backend.  ``"auto"`` (default) —
        also accepted as ``"linprog_batch"``, stored as ``"auto"`` — is
        the exact stacked route: the closed-form
        1-D integral where it applies, otherwise block-diagonal HiGHS LPs
        over pairs grouped by ``(dimension, K_a, K_b)``.
        ``"sinkhorn_batch"`` is the tensor-batched entropic approximation
        on normalised weights.  ``"linprog"`` and ``"simplex"`` solve one
        exact problem per pair, as :func:`repro.emd.emd` does.
    parallel_backend:
        ``"serial"`` (default), ``"thread"`` or ``"process"``.  A pool
        solves the independent chunks of the stacked LPs, or the single
        pairs of the per-pair backends ``"linprog"`` and ``"simplex"``;
        the 1-D fast path and the batched Sinkhorn solver always run
        in-process.
    n_workers:
        Pool size; defaults to the CPU count when a pool backend is
        selected.
    sinkhorn_epsilon:
        Unit-free regularisation strength of the batched Sinkhorn solver
        (only used with ``backend="sinkhorn_batch"``).
    sinkhorn_max_iter:
        Iteration budget per batched Sinkhorn solve.
    sinkhorn_tol:
        L1 row-marginal tolerance at which a batched Sinkhorn pair is
        considered converged (and compacted out of the iteration).  The
        solver default (1e-9) is far below scoring-grade accuracy;
        raising it buys band-build speed directly.
    sinkhorn_anneal:
        Optional decreasing epsilon-annealing prefix.  When given, each
        batched solve runs the schedule ``(*sinkhorn_anneal,
        sinkhorn_epsilon)`` with warm-started duals — converging to the
        small final epsilon much faster than a cold start at it.

    Attributes
    ----------
    n_evaluations:
        Total number of pair distances computed so far (all paths).
    n_fast_path:
        How many of those went through the vectorised 1-D fast path.
    n_cost_cache_hits:
        How many solves reused a cached ground-distance matrix (pairs
        whose signatures share a common support, on the per-pair and
        Sinkhorn routes).
    n_linprog_batched:
        How many pair distances were solved by the stacked exact LP
        route.
    n_sinkhorn_batched:
        How many pair distances were solved by the tensor-batched
        Sinkhorn solver (grouped or union-embedded supports).
    n_sinkhorn_nonconverged:
        How many of those exhausted ``sinkhorn_max_iter`` without
        meeting the marginal tolerance.  Such distances are still
        returned; a :class:`RuntimeWarning` is emitted only when a
        plan's marginal violation is materially large (> 1e-3, i.e. the
        plan is genuinely unusable) rather than merely slow to close the
        last decades towards the 1e-9 tolerance.

    Notes
    -----
    Worker pools are created lazily on the first batch with two or more
    stacked chunks (or per-pair solves) and are *kept alive* across
    calls, so streaming workloads pay the pool start-up cost once
    instead of per batch.  Call
    :meth:`close` (or use the engine as a context manager) to release the
    pool; a closed engine raises
    :class:`~repro.exceptions.ConfigurationError` on further use.
    """

    _COST_CACHE_MAX = 64
    # Marginal violation above which a non-converged Sinkhorn solve is
    # worth a RuntimeWarning.  Spiky marginals at small epsilon converge
    # slowly past ~1e-4, and an L1 violation of 1e-3 (0.1% of the mass
    # misplaced, distance bias ~0.1% of the cost scale) is still far
    # below anything the detection scores can resolve — the warning is
    # for solves whose plans are genuinely unusable, not for the slow
    # tail of fine ones.
    _SINKHORN_WARN_ERROR = 1e-3

    def __init__(
        self,
        *,
        ground_distance: GroundDistance = "euclidean",
        backend: EMDSolverName = "auto",
        parallel_backend: ParallelBackendName = "serial",
        n_workers: Optional[int] = None,
        sinkhorn_epsilon: float = 0.05,
        sinkhorn_max_iter: int = 2000,
        sinkhorn_tol: float = 1e-9,
        sinkhorn_anneal: Optional[Sequence[float]] = None,
    ) -> None:
        if backend not in EMD_SOLVERS:
            raise ConfigurationError(
                f"backend must be one of {EMD_SOLVERS}, got {backend!r}"
            )
        if parallel_backend not in PARALLEL_BACKENDS:
            raise ConfigurationError(
                f"parallel_backend must be one of {PARALLEL_BACKENDS}, got {parallel_backend!r}"
            )
        if n_workers is not None:
            n_workers = check_positive_int(n_workers, "n_workers")
        if not np.isfinite(sinkhorn_epsilon) or sinkhorn_epsilon <= 0:
            raise ConfigurationError("sinkhorn_epsilon must be positive and finite")
        if not np.isfinite(sinkhorn_tol) or sinkhorn_tol <= 0:
            raise ConfigurationError("sinkhorn_tol must be positive and finite")
        self.ground_distance = ground_distance
        # "linprog_batch" names the same exact stacked route as "auto";
        # the name stays accepted so configs and fingerprints keep it.
        self.backend = "auto" if backend == "linprog_batch" else backend
        self.parallel_backend = parallel_backend
        self.n_workers = n_workers
        self.sinkhorn_epsilon = float(sinkhorn_epsilon)
        self.sinkhorn_max_iter = check_positive_int(sinkhorn_max_iter, "sinkhorn_max_iter")
        self.sinkhorn_tol = float(sinkhorn_tol)
        self.sinkhorn_anneal = _check_anneal(sinkhorn_anneal, self.sinkhorn_epsilon)
        self.n_evaluations = 0
        self.n_fast_path = 0
        self.n_cost_cache_hits = 0
        self.n_sinkhorn_batched = 0
        self.n_sinkhorn_nonconverged = 0
        self.n_linprog_batched = 0
        self._pool = None
        self._pool_failed = False
        self._closed = False
        self._cost_cache: dict = {}
        self._union_cache: dict = {}

    @property
    def sinkhorn_schedule(self) -> Union[float, Tuple[float, ...]]:
        """The epsilon (or annealing schedule) each batched solve runs."""
        if self.sinkhorn_anneal is None:
            return self.sinkhorn_epsilon
        return self.sinkhorn_anneal + (self.sinkhorn_epsilon,)

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
        self._cost_cache.clear()
        self._union_cache.clear()
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
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        pool_cls = ThreadPoolExecutor if self.parallel_backend == "thread" else ProcessPoolExecutor
        try:
            self._pool = pool_cls(max_workers=workers)
        except (OSError, ValueError, RuntimeError, ImportError):
            # Pool creation can fail in restricted environments (no
            # /dev/shm, forbidden fork, ...); the serial path is always
            # available, and we stop retrying for subsequent batches.
            self._pool_failed = True
            return None
        return self._pool

    # ------------------------------------------------------------------ #
    # Ground-distance caching
    # ------------------------------------------------------------------ #
    def _cost_between(self, positions_a: np.ndarray, positions_b: np.ndarray) -> np.ndarray:
        """Cached cross-distance matrix between two support arrays."""
        key = (
            positions_a.shape,
            positions_a.tobytes(),
            positions_b.shape,
            positions_b.tobytes(),
        )
        cost = self._cost_cache.get(key)
        if cost is not None:
            self.n_cost_cache_hits += 1
            return cost
        cost = cross_distance_matrix(positions_a, positions_b, self.ground_distance)
        if len(self._cost_cache) >= self._COST_CACHE_MAX:
            self._cost_cache.clear()
        self._cost_cache[key] = cost
        return cost

    def _cached_cost(self, sig_a: Signature, sig_b: Signature) -> Optional[np.ndarray]:
        """Ground-distance matrix for common-support pairs, built once.

        Histogram-signature batches share one positions grid across every
        bag, so all their LP solves can run against a single cost matrix
        instead of recomputing cdist per pair.
        """
        if not _common_support(sig_a, sig_b):
            return None
        return self._cost_between(sig_a.positions, sig_b.positions)

    # ------------------------------------------------------------------ #
    # Pair computation
    # ------------------------------------------------------------------ #
    def compute(self, sig_a: Signature, sig_b: Signature) -> float:
        """Distance for a single pair (counted in the evaluation stats)."""
        return float(self.compute_pairs([(sig_a, sig_b)])[0])

    def _pool_for(self, n_jobs: int) -> Optional["Executor"]:
        """The worker pool for a batch of ``n_jobs`` jobs, or ``None`` → serial."""
        if self.parallel_backend == "serial" or n_jobs < 2:
            return None
        return self._acquire_pool()

    def _run_jobs(
        self,
        fn: Callable[[_Job], _Result],
        jobs: Sequence[_Job],
        pool: Optional["Executor"],
        chunksize: int,
    ) -> List[_Result]:
        """``[fn(job) for job in jobs]``, through ``pool`` when one is given."""
        if pool is None:
            return [fn(job) for job in jobs]
        from concurrent.futures import BrokenExecutor

        try:
            return list(pool.map(fn, jobs, chunksize=chunksize))
        except (OSError, BrokenExecutor, RuntimeError) as exc:
            # Library errors raised inside a job (SolverError and friends
            # subclass RuntimeError) are computation failures: propagate
            # them and leave the pool alive.
            if isinstance(exc, ReproError):
                raise
            # The pool itself broke — workers spawn lazily at submit, so
            # "can't start new thread" lands here, not in _acquire_pool.
            # Retire it, stop retrying, and fall back to serial for this
            # and all later batches.
            self._pool_failed = True
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass
            self._pool = None
            return [fn(job) for job in jobs]
        except (pickle.PicklingError, AttributeError, TypeError):
            if self.parallel_backend != "process":
                # Thread pools never pickle, so these are computation
                # errors; propagate them and leave the pool alive.
                raise
            # Process pools cannot pickle callable ground distances (the
            # pickler raises exactly these types), but a worker computation
            # can raise them too; the pool is healthy either way, so run
            # this batch serially — a genuine computation error re-raises
            # there — and keep the pool for the next batch.
            return [fn(job) for job in jobs]

    def map(self, fn: Callable[[_Job], _Result], jobs: Sequence[_Job]) -> List[_Result]:
        """``[fn(job) for job in jobs]`` on the engine's worker pool.

        Lets other stages of a run (the offline detector's k-means
        refinement) share the pool the band build uses, with the same
        lazy start, broken-pool → serial fallback and :meth:`close`.
        Under ``parallel_backend="process"``, ``fn`` must be a picklable
        module-level function.
        """
        self._check_open()
        return self._run_jobs(fn, jobs, self._pool_for(len(jobs)), chunksize=1)

    def _solve_general(self, pairs: List[Tuple[Signature, Signature]]) -> List[float]:
        """One solve per pair for the per-pair backends, pooled when configured."""
        pool = self._pool_for(len(pairs))
        # A cached cost matrix would be pickled into every job of a process
        # pool (per-pair IPC instead of a saving); share the cache whenever
        # execution is actually in-process.  Process workers instead keep a
        # per-worker cache, building each shared matrix once per worker.
        use_cache = pool is None or self.parallel_backend != "process"
        jobs = [
            (
                a,
                b,
                self.ground_distance,
                self.backend,
                self._cached_cost(a, b) if use_cache else None,
                not use_cache,
            )
            for a, b in pairs
        ]
        return self._run_jobs(_emd_pair, jobs, pool, chunksize=8)

    def compute_pairs(self, pairs: Sequence[Tuple[Signature, Signature]]) -> np.ndarray:
        """Distances for a batch of pairs, in input order."""
        self._check_open()
        pairs = list(pairs)
        out = np.empty(len(pairs), dtype=float)
        if not pairs:
            return out
        everything = range(len(pairs))
        if self.backend == "sinkhorn_batch":
            rest = self._solve_fast_path(pairs, everything, out)
            self._solve_sinkhorn_backend(pairs, rest, out)
        elif self.backend == "auto":
            self._solve_exact(pairs, everything, out)
        else:
            out[:] = self._solve_general(pairs)
        self.n_evaluations += len(pairs)
        return out

    # ------------------------------------------------------------------ #
    # Exact routes: 1-D closed form and stacked shape-grouped LPs
    # ------------------------------------------------------------------ #
    def _solve_fast_path(
        self,
        pairs: List[Tuple[Signature, Signature]],
        indices: Iterable[int],
        out: np.ndarray,
    ) -> List[int]:
        """Fill the closed-form 1-D pairs among ``indices``; return the rest."""
        fast: List[int] = []
        rest: List[int] = []
        for p in indices:
            sig_a, sig_b = pairs[p]
            eligible = _can_use_1d_fast_path(sig_a, sig_b, self.ground_distance)
            (fast if eligible else rest).append(p)
        if fast:
            out[fast] = _batched_wasserstein_1d([pairs[p] for p in fast])
            self.n_fast_path += len(fast)
        return rest

    def _solve_exact(
        self,
        pairs: List[Tuple[Signature, Signature]],
        indices: Iterable[int],
        out: np.ndarray,
    ) -> None:
        """The exact route: 1-D closed form where it applies, stacked LPs elsewhere."""
        self._solve_stacked(pairs, self._solve_fast_path(pairs, indices, out), out)

    def _solve_stacked(
        self,
        pairs: List[Tuple[Signature, Signature]],
        indices: List[int],
        out: np.ndarray,
    ) -> None:
        """Block-diagonal exact LPs over pairs grouped by ``(d, K_a, K_b)``.

        The group key depends on nothing but the pair, so a pair is routed
        identically no matter which other pairs share the batch — the
        invariant sharded builds and the cross-stream drain rely on.
        Each group is cut by :func:`~repro.emd.linprog_batch.chunk_slices`,
        and a chunk's ``(P, K_a, K_b)`` cost tensor is built only when that
        chunk is solved, so memory stays O(chunk).  Chunks are independent
        LPs, so a configured thread/process pool solves them in parallel.
        ``indices`` are positions into ``pairs``/``out``; a failing chunk
        re-raises with those positions.
        """
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for p in indices:
            sig_a, sig_b = pairs[p]
            groups.setdefault((sig_a.dimension, sig_a.size, sig_b.size), []).append(p)
        jobs: List[_StackedJob] = []
        for (_, size_a, size_b), members in groups.items():
            for piece in chunk_slices(len(members), size_a, size_b):
                chunk = members[piece]
                jobs.append((chunk, [pairs[p] for p in chunk], self.ground_distance))
        pool = self._pool_for(len(jobs))
        distances = self._run_jobs(_solve_stacked_chunk, jobs, pool, chunksize=1)
        for (chunk, _, _), values in zip(jobs, distances):
            out[chunk] = values
            self.n_linprog_batched += len(chunk)

    # ------------------------------------------------------------------ #
    # Tensor-batched Sinkhorn routing over shared grids
    # ------------------------------------------------------------------ #
    @staticmethod
    def _support_key(positions: np.ndarray) -> tuple:
        return (positions.shape, positions.tobytes())

    def _solve_sinkhorn_backend(
        self,
        pairs: List[Tuple[Signature, Signature]],
        indices: List[int],
        out: np.ndarray,
    ) -> None:
        """Route pairs through the tensor-batched Sinkhorn solver.

        Pairs whose two signatures share one support are grouped by that
        support and solved over a single shared cost kernel.  Mixed-support
        pairs are each embedded into the union of their own two supports
        (zero-weight atoms for missing positions) when that union stays
        small — the d-dimensional common-grid histogram case — with pairs
        whose unions coincide stacked into one solve.  Irregular supports
        take the stacked exact route on normalised weights.  Every routing
        decision is pair-local, so distances do not depend on how pairs
        are batched.  ``indices`` are positions into ``pairs``/``out``,
        so failure context and results keep the caller's frame of
        reference.
        """
        by_dim: Dict[int, List[int]] = {}
        for p in indices:
            by_dim.setdefault(pairs[p][0].dimension, []).append(p)
        for dim_indices in by_dim.values():
            self._solve_sinkhorn_dim_group(pairs, dim_indices, out)

    def _solve_sinkhorn_group(
        self,
        members: List[int],
        cost: np.ndarray,
        weights_a: np.ndarray,
        weights_b: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """One tensor-batched Sinkhorn solve over a shared support."""
        try:
            result = sinkhorn_transport_batch(
                cost,
                weights_a,
                weights_b,
                epsilon=self.sinkhorn_schedule,
                max_iter=self.sinkhorn_max_iter,
                tol=self.sinkhorn_tol,
            )
        except SolverError as exc:
            raise _translate_group_error(exc, members) from exc
        out[members] = result.distances
        self.n_sinkhorn_batched += len(members)
        self.n_sinkhorn_nonconverged += int(np.count_nonzero(~result.converged))
        # The solver tolerance (1e-9) can sit below a problem's float
        # rounding floor, so tol-misses alone are routine and harmless;
        # only warn when a plan's marginals are *materially* off.
        if np.any(result.marginal_errors > self._SINKHORN_WARN_ERROR):
            warnings.warn(
                "some batched Sinkhorn solves did not reach the marginal "
                "tolerance within sinkhorn_max_iter and their plans are "
                "materially off-marginal; the affected distances carry "
                "extra entropic bias (raise sinkhorn_max_iter or "
                "sinkhorn_epsilon; see n_sinkhorn_nonconverged)",
                RuntimeWarning,
                stacklevel=4,
            )

    def _union_embedding(
        self, positions_a: np.ndarray, positions_b: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Pairwise union support and atom indices, or ``None`` if irregular.

        Embeds a mixed-support pair into the union of *its own* two
        supports — a decision that depends on nothing but the pair, so a
        pair is routed (and its distance computed) identically no matter
        which other pairs share the batch.  That batch-invariance is the
        property the sharded band builder relies on for exact merges.
        Embedding happens only when the supports genuinely overlap
        (subsets of one grid make the union strictly smaller than the
        concatenation) and the union stays small enough for the
        (P, U, U) iteration; results are cached per support pattern.
        """
        key = (self._support_key(positions_a), self._support_key(positions_b))
        cached = self._union_cache.get(key, False)
        if cached is not False:
            return cached
        # Canonicalise -0.0 to +0.0 (x + 0.0 does exactly that and nothing
        # else): np.unique dedups rows by value, but the atom-index lookup
        # below is keyed by raw bytes, and the two zeros differ bytewise.
        pos_a = positions_a + 0.0
        pos_b = positions_b + 0.0
        union = np.unique(np.vstack([pos_a, pos_b]), axis=0)
        result: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        overlap = union.shape[0] < pos_a.shape[0] + pos_b.shape[0]
        if overlap and union.shape[0] <= max(32, 4 * max(pos_a.shape[0], pos_b.shape[0])):
            union_index = {row.tobytes(): idx for idx, row in enumerate(union)}
            idx_a = np.array([union_index[row.tobytes()] for row in pos_a], dtype=int)
            idx_b = np.array([union_index[row.tobytes()] for row in pos_b], dtype=int)
            result = (union, idx_a, idx_b)
        if len(self._union_cache) >= self._COST_CACHE_MAX:
            self._union_cache.clear()
        self._union_cache[key] = result
        return result

    def _solve_sinkhorn_dim_group(
        self,
        pairs: List[Tuple[Signature, Signature]],
        indices: List[int],
        out: np.ndarray,
    ) -> None:
        supports: Dict[tuple, np.ndarray] = {}
        groups: Dict[Tuple[tuple, tuple], List[int]] = {}
        mixed: List[int] = []
        for p in indices:
            sig_a, sig_b = pairs[p]
            key_a = self._support_key(sig_a.positions)
            key_b = self._support_key(sig_b.positions)
            if key_a != key_b:
                mixed.append(p)
                continue
            supports.setdefault(key_a, sig_a.positions)
            groups.setdefault((key_a, key_b), []).append(p)

        # Common-support groups: shared cost kernel, one batched solve.
        for (key_a, _key_b), members in groups.items():
            cost = self._cost_between(supports[key_a], supports[key_a])
            weights_a = np.stack([pairs[p][0].weights for p in members])
            weights_b = np.stack([pairs[p][1].weights for p in members])
            self._solve_sinkhorn_group(members, cost, weights_a, weights_b, out)

        # Mixed-support pairs: embed each into the union of its own two
        # supports (histogram signatures with varying bin occupancy over
        # one grid); pairs whose unions coincide share one batched solve.
        union_groups: Dict[tuple, List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]] = {}
        union_supports: Dict[tuple, np.ndarray] = {}
        irregular: List[int] = []
        for p in mixed:
            sig_a, sig_b = pairs[p]
            embedding = self._union_embedding(sig_a.positions, sig_b.positions)
            if embedding is None:
                irregular.append(p)
                continue
            union, idx_a, idx_b = embedding
            union_key = self._support_key(union)
            union_supports.setdefault(union_key, union)
            union_groups.setdefault(union_key, []).append((p, union, idx_a, idx_b))
        for union_key, members in union_groups.items():
            union = union_supports[union_key]
            n_union = union.shape[0]
            weights_a = np.zeros((len(members), n_union), dtype=float)
            weights_b = np.zeros((len(members), n_union), dtype=float)
            member_indices = [p for p, _, _, _ in members]
            for row, (p, _, idx_a, idx_b) in enumerate(members):
                sig_a, sig_b = pairs[p]
                np.add.at(weights_a[row], idx_a, sig_a.weights)
                np.add.at(weights_b[row], idx_b, sig_b.weights)
            cost = self._cost_between(union, union)
            self._solve_sinkhorn_group(member_indices, cost, weights_a, weights_b, out)
        if irregular:
            # Normalise before the exact solve so the whole backend
            # computes one functional: the entropic path works on
            # per-side-normalised weights (balanced transport), whereas
            # the raw LP computes the partial-matching EMD — for
            # unequal-mass signatures those differ even as epsilon -> 0.
            normalised = list(pairs)
            for p in irregular:
                normalised[p] = (pairs[p][0].normalized(), pairs[p][1].normalized())
            self._solve_exact(normalised, irregular, out)

    def solve_pairs(self, pairs: Sequence[Tuple[Signature, Signature]]) -> np.ndarray:
        """Distances for externally-supplied signature pairs, in input order.

        The entry point for callers that gather pairs from *many*
        sources — e.g. :class:`repro.service.StreamSupervisor`'s
        cross-stream batched drain, which stacks the pending pairs of
        every active stream into one call so the batched backends solve
        a single support group per round instead of one per stream.
        Routing is identical to :meth:`compute_pairs` (same routes and
        failure translation), and because every routing decision is
        pair-local the returned distances do not depend on which other
        pairs share the batch beyond last-ulp rounding in the stacked
        HiGHS solves — the invariant that lets a cross-stream stacked
        solve commit the per-stream scores to within 1e-12 on the exact
        backends.  A failing batched group re-raises
        :class:`~repro.exceptions.SolverError` with
        ``pair_indices`` in *this call's* positions, so callers can map
        failures back to whichever source contributed each pair.
        """
        return self.compute_pairs(pairs)

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


def banded_emd_matrix(
    signatures: Sequence[Signature],
    bandwidth: int,
    *,
    ground_distance: GroundDistance = "euclidean",
    backend: EMDSolverName = "auto",
    parallel_backend: ParallelBackendName = "serial",
    n_workers: Optional[int] = None,
) -> BandedDistanceMatrix:
    """Convenience wrapper: banded pairwise EMD matrix in one call."""
    engine = PairwiseEMDEngine(
        ground_distance=ground_distance,
        backend=backend,
        parallel_backend=parallel_backend,
        n_workers=n_workers,
    )
    return engine.banded_matrix(signatures, bandwidth)

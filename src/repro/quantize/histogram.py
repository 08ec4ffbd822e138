"""Histogram quantiser: fixed-width binning of bags.

The paper (Section 3.1) notes that for low-dimensional data (especially
1-D) a very simple way of building signatures is to partition the space
into fixed-width bins and count observations falling into each bin.  The
resulting histogram is a special case of a signature where the cluster
centres are bin centres.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ValidationError
from .base import BaseQuantizer, QuantizationResult

#: Grids up to this many bins count occupancy with one ``np.bincount``;
#: larger ones (``bins ** d`` grows fast with the dimension) sort the
#: bag's bin indices with ``np.unique`` instead of allocating the grid.
_MAX_BINCOUNT_BINS = 4_096

#: Per-dimension bin edges and bin centres.
_Grid = Tuple[List[np.ndarray], List[np.ndarray]]


class HistogramQuantizer(BaseQuantizer):
    """Fixed-grid histogram quantisation.

    Parameters
    ----------
    bins:
        Number of bins per dimension (scalar) or a sequence with one entry
        per dimension.
    range:
        Optional ``(low, high)`` pair, or a sequence of pairs (one per
        dimension), fixing the binning range.  When ``None`` the range of
        the data being quantised is used; fixing the range is recommended
        when signatures from different bags must share a common grid.

    Bins with zero count are not included in the output, which keeps
    signatures small.
    """

    def __init__(
        self,
        bins: Union[int, Sequence[int]] = 10,
        *,
        range: Optional[Sequence] = None,
    ):
        super().__init__(random_state=None)
        if isinstance(bins, (int, np.integer)):
            check_positive_int(int(bins), "bins")
        else:
            bins = [check_positive_int(int(b), "bins") for b in bins]
        self.bins = bins
        self.range = range
        self._grid: Optional[Tuple[int, object, object, _Grid]] = None

    def _resolve_grid(self, data: np.ndarray) -> _Grid:
        """Bin edges and bin centres per dimension.

        With a declared ``range`` they do not depend on the data, so they
        are resolved once per dimensionality and reused by later fits
        (until ``bins`` or ``range`` is reassigned).
        """
        d = data.shape[1]
        cached = self._grid
        if (
            self.range is not None
            and cached is not None
            and cached[0] == d
            and cached[1] is self.bins
            and cached[2] is self.range
        ):
            return cached[3]
        grid = self._make_grid(data)
        if self.range is not None:
            self._grid = (d, self.bins, self.range, grid)
        return grid

    def _make_grid(self, data: np.ndarray) -> _Grid:
        d = data.shape[1]
        if isinstance(self.bins, (int, np.integer)):
            bins_per_dim = [int(self.bins)] * d
        else:
            if len(self.bins) != d:
                raise ValidationError(
                    f"bins has {len(self.bins)} entries but data has {d} dimensions"
                )
            bins_per_dim = [int(b) for b in self.bins]

        if self.range is None:
            ranges = [(data[:, j].min(), data[:, j].max()) for j in range(d)]
        else:
            rng_spec = np.asarray(self.range, dtype=float)
            if rng_spec.ndim == 1:
                if rng_spec.shape[0] != 2:
                    raise ValidationError("range must be a (low, high) pair")
                ranges = [(rng_spec[0], rng_spec[1])] * d
            else:
                if rng_spec.shape != (d, 2):
                    raise ValidationError(
                        f"range must have shape ({d}, 2), got {rng_spec.shape}"
                    )
                ranges = [tuple(row) for row in rng_spec]

        edges = []
        for (low, high), nb in zip(ranges, bins_per_dim):
            if high <= low:
                high = low + 1.0
            edges.append(np.linspace(low, high, nb + 1))
        return edges, [0.5 * (e[:-1] + e[1:]) for e in edges]

    def fit(self, data: np.ndarray) -> QuantizationResult:
        data = self._validate(data)
        d = data.shape[1]
        edges, centers_per_dim = self._resolve_grid(data)
        bins_per_dim = [len(e) - 1 for e in edges]

        # Digitise each dimension into its bin index; the inner edges
        # put points outside the grid into its first or last bin.
        indices = [np.digitize(data[:, j], edges[j][1:-1], right=False) for j in range(d)]
        flat = np.ravel_multi_index(indices, bins_per_dim)
        # Occupied bins in ascending flat order, so atoms come out in
        # the same order from both branches.
        n_bins = math.prod(bins_per_dim)
        if n_bins <= _MAX_BINCOUNT_BINS:
            all_counts = np.bincount(flat, minlength=n_bins)
            occupied = np.flatnonzero(all_counts)
            counts = all_counts[occupied]
            rank = np.zeros(n_bins, dtype=np.intp)
            rank[occupied] = np.arange(occupied.size)
            labels = rank[flat]
        else:
            occupied, labels, counts = np.unique(flat, return_inverse=True, return_counts=True)

        multi = np.unravel_index(occupied, bins_per_dim)
        centers = np.column_stack([centers_per_dim[j][multi[j]] for j in range(d)])

        result = QuantizationResult(
            centers=centers,
            counts=counts.astype(float),
            labels=labels,
            inertia=float(np.sum((data - centers[labels]) ** 2)),
        )
        self._result = result
        return result

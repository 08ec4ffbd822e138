"""Builders turning bags of raw vectors into :class:`~repro.signatures.Signature`.

The paper constructs signatures by quantising each bag (Section 3.1).  A
:class:`SignatureBuilder` wraps a quantiser choice and exposes
:meth:`~SignatureBuilder.build` for one bag and
:meth:`~SignatureBuilder.build_sequence` for many (whose k-means
refinement can run on a worker pool); the convenience function
:func:`build_signature` covers the common one-off case.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._typing import Quantizer, SeedLike
from .._validation import check_matrix, check_positive_int
from ..exceptions import ConfigurationError
from ..quantize import (
    HistogramQuantizer,
    KMeans,
    KMedoids,
    LearningVectorQuantizer,
)
from ..quantize.kmeans import refine
from .signature import Signature

#: Quantisers available for signature construction (paper Section 3.1);
#: the canonical listing that :class:`repro.core.config.DetectorConfig`
#: and the CLI validate against.
SIGNATURE_METHODS = ("kmeans", "kmedoids", "histogram", "lvq", "exact")

_METHODS = SIGNATURE_METHODS

#: ``mapper(fn, jobs)`` returns ``[fn(job) for job in jobs]``, possibly
#: computed elsewhere — e.g. :meth:`repro.emd.PairwiseEMDEngine.map`.
Mapper = Callable[[Callable[[Any], Any], Sequence[Any]], List[Any]]

_RefineJob = Tuple[np.ndarray, np.ndarray, int, float]


def _map_in_process(fn: Callable[[Any], Any], jobs: Sequence[Any]) -> List[Any]:
    """The default :data:`Mapper`: ``[fn(job) for job in jobs]``, here."""
    return [fn(job) for job in jobs]


def _refine_atoms(job: _RefineJob) -> Tuple[np.ndarray, np.ndarray]:
    """Pool job: k-means refinement of one seeded bag.

    Returns only the centres and counts; the per-point labels stay in
    the worker.
    """
    result = refine(*job)
    return result.centers, result.counts


class SignatureBuilder:
    """Factory building signatures from bags with a fixed quantiser setup.

    Parameters
    ----------
    method:
        One of ``"kmeans"``, ``"kmedoids"``, ``"histogram"``, ``"lvq"`` or
        ``"exact"``.  ``"exact"`` skips quantisation entirely and uses every
        (unique) observation as a representative — appropriate for small
        bags or when maximal fidelity is wanted.
    n_clusters:
        Number of representatives for the clustering-based methods.
    bins:
        Number of bins per dimension for the histogram method.
    histogram_range:
        Optional fixed binning range shared by all bags (recommended so the
        grids of different bags align).
    random_state:
        Seed or generator forwarded to stochastic quantisers.
    quantizer:
        An already-configured quantiser; anything satisfying the
        :class:`repro._typing.Quantizer` protocol (e.g. a
        :class:`~repro.quantize.BaseQuantizer` subclass) is accepted.
        When given, ``method`` and the other parameters are ignored.
    """

    def __init__(
        self,
        method: str = "kmeans",
        *,
        n_clusters: int = 8,
        bins: Union[int, Sequence[int]] = 10,
        histogram_range: Optional[Sequence] = None,
        random_state: SeedLike = None,
        quantizer: Optional[Quantizer] = None,
    ) -> None:
        if quantizer is None and method not in _METHODS:
            raise ConfigurationError(
                f"method must be one of {_METHODS}, got {method!r}"
            )
        self.method = method
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.bins = bins
        self.histogram_range = histogram_range
        self.random_state = random_state
        self.quantizer = quantizer
        # Histograms draw no random numbers, so one quantiser (and the
        # grid it resolves for a declared range) serves every bag.
        self._histogram: Optional[HistogramQuantizer] = None

    def _make_quantizer(self) -> Optional[Quantizer]:
        if self.quantizer is not None:
            return self.quantizer
        if self.method == "kmeans":
            return KMeans(self.n_clusters, random_state=self.random_state)
        if self.method == "kmedoids":
            return KMedoids(self.n_clusters, random_state=self.random_state)
        if self.method == "lvq":
            return LearningVectorQuantizer(self.n_clusters, random_state=self.random_state)
        if self.method == "histogram":
            if self._histogram is None:
                self._histogram = HistogramQuantizer(self.bins, range=self.histogram_range)
            return self._histogram
        return None  # "exact"

    def _represents_exactly(self, data: np.ndarray) -> bool:
        # Fewer points than requested clusters: exact representation is
        # both cheaper and more faithful.
        return data.shape[0] <= self.n_clusters and self.method in ("kmeans", "kmedoids", "lvq")

    def build(self, bag: np.ndarray, label: Optional[object] = None) -> Signature:
        """Quantise one bag (array of shape ``(n, d)``) into a signature."""
        data = check_matrix(bag, "bag")
        quantizer = self._make_quantizer()
        if quantizer is None or self._represents_exactly(data):
            return Signature.from_points(data, label=label)
        result = quantizer.fit(data)
        return Signature(positions=result.centers, weights=result.counts, label=label)

    def build_sequence(
        self,
        bags: Sequence[np.ndarray],
        labels: Optional[Sequence[object]] = None,
        *,
        mapper: Mapper = _map_in_process,
    ) -> list[Signature]:
        """Quantise a sequence of bags into a list of signatures.

        With a k-means quantiser, the bags are seeded here, serially and
        in bag order (:meth:`KMeans.seed <repro.quantize.KMeans.seed>`,
        the only step that draws from the random generator), and their
        Lloyd refinement runs through ``mapper`` — e.g. a worker pool's
        :meth:`~repro.emd.PairwiseEMDEngine.map`.  The signatures and the
        generator's final state equal those of building bag by bag.
        Other quantisers run bag by bag, since they draw from the
        generator throughout.
        """
        if labels is None:
            labels = list(range(len(bags)))
        quantizer = self._make_quantizer()
        if not isinstance(quantizer, KMeans):
            return [self.build(bag, label=lab) for bag, lab in zip(bags, labels)]
        arrays = [check_matrix(bag, "bag") for bag, _ in zip(bags, labels)]
        seeded = [i for i, data in enumerate(arrays) if not self._represents_exactly(data)]
        jobs = [
            (arrays[i], quantizer.seed(arrays[i]), quantizer.max_iter, quantizer.tol)
            for i in seeded
        ]
        atoms = dict(zip(seeded, mapper(_refine_atoms, jobs)))
        signatures: List[Signature] = []
        for i, (data, lab) in enumerate(zip(arrays, labels)):
            if i in atoms:
                centers, counts = atoms[i]
                signatures.append(Signature(positions=centers, weights=counts, label=lab))
            else:
                signatures.append(Signature.from_points(data, label=lab))
        return signatures


def build_signature(
    bag: np.ndarray,
    method: str = "kmeans",
    *,
    n_clusters: int = 8,
    bins: Union[int, Sequence[int]] = 10,
    histogram_range: Optional[Sequence] = None,
    random_state: SeedLike = None,
    label: Optional[object] = None,
) -> Signature:
    """Convenience wrapper: build a single signature from one bag."""
    builder = SignatureBuilder(
        method,
        n_clusters=n_clusters,
        bins=bins,
        histogram_range=histogram_range,
        random_state=random_state,
    )
    return builder.build(bag, label=label)

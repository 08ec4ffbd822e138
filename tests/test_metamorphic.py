"""Metamorphic checks on the default ``"auto"`` band build.

Each transformation below changes the inputs of
:meth:`~repro.emd.PairwiseEMDEngine.banded_matrix` without changing the
partial-matching EMD it must compute, so the band must stay the same
(≤1e-9).  None of them needs a reference solver, which makes them an
oracle independent of the engine's own routes:

* permuting the atoms of every signature (the EMD is a function of the
  weighted point sets, not of their order);
* translating every signature's positions by one common vector (the
  Euclidean ground distance depends only on differences);
* multiplying every signature's weights by one constant — replicating
  every point of every bag — which scales both the optimal cost and the
  total flow, so the normalised EMD is unchanged;
* mapping every signature's positions through one orthogonal matrix
  that includes a reflection (the Euclidean ground distance is
  invariant under isometries);
* splitting every atom into two co-located atoms that share its weight
  (the EMD depends on the measure, not on how it is written down).

Two further relations are equivariances rather than invariances:
reversing the signature sequence reverses the band (the EMD is
symmetric), and scaling every position by ``c`` scales the band by
``c`` (the Euclidean ground distance is homogeneous of degree one).

The signatures cover the k-means, histogram and exact builders in 1-D
and 2-D.  Bag sizes vary, so the band mixes unequal-mass pairs (stacked
LPs) with equal-mass pairs (the 1-D closed form, in 1-D).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.emd import PairwiseEMDEngine
from repro.signatures import Signature, SignatureBuilder

TOL = 1e-9
BANDWIDTH = 5


def make_signatures(method, dimension):
    rng = np.random.default_rng(17 * dimension + len(method))
    bags = [
        rng.normal(0.0 if t < 6 else 2.5, 1.0, size=(int(rng.choice([8, 10, 12])), dimension))
        for t in range(12)
    ]
    builder = SignatureBuilder(
        method,
        n_clusters=4,
        bins=4,
        histogram_range=[(-4.0, 7.0)] * dimension,
        random_state=0,
    )
    return builder.build_sequence(bags)


def permute_atoms(signatures, rng):
    out = []
    for sig in signatures:
        order = rng.permutation(sig.size)
        out.append(Signature(sig.positions[order], sig.weights[order]))
    return out


def translate(signatures, rng):
    shift = rng.uniform(-5.0, 5.0, size=signatures[0].dimension)
    return [Signature(sig.positions + shift, sig.weights) for sig in signatures]


def replicate_points(signatures, rng):
    return [Signature(sig.positions, 3.0 * sig.weights) for sig in signatures]


def orthogonal_map(signatures, rng):
    dimension = signatures[0].dimension
    q, _ = np.linalg.qr(rng.normal(size=(dimension, dimension)))
    if np.linalg.det(q) > 0:
        q[:, 0] = -q[:, 0]  # always include a reflection, also in 1-D
    return [Signature(sig.positions @ q, sig.weights) for sig in signatures]


def split_atoms(signatures, rng):
    out = []
    for sig in signatures:
        share = rng.uniform(0.2, 0.8, size=sig.size)
        out.append(
            Signature(
                np.concatenate([sig.positions, sig.positions]),
                np.concatenate([share * sig.weights, (1.0 - share) * sig.weights]),
            )
        )
    return out


TRANSFORMS = [permute_atoms, translate, replicate_points, orthogonal_map, split_atoms]


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("method", ["kmeans", "histogram", "exact"])
def test_band_is_invariant(method, dimension, transform):
    signatures = make_signatures(method, dimension)
    transformed = transform(signatures, np.random.default_rng(5))
    reference = PairwiseEMDEngine().banded_matrix(signatures, BANDWIDTH).band
    band = PairwiseEMDEngine().banded_matrix(transformed, BANDWIDTH).band
    assert np.array_equal(np.isnan(band), np.isnan(reference))
    assert np.nanmax(np.abs(band - reference)) <= TOL
    # The band is not degenerate: the mean shift at t=6 shows up in it.
    assert np.nanmax(reference) > 1.0


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("method", ["kmeans", "histogram", "exact"])
def test_band_reverses_with_the_sequence(method, dimension):
    signatures = make_signatures(method, dimension)
    reference = PairwiseEMDEngine().banded_matrix(signatures, BANDWIDTH).to_dense()
    reversed_band = PairwiseEMDEngine().banded_matrix(signatures[::-1], BANDWIDTH)
    np.testing.assert_allclose(
        reversed_band.to_dense(), reference[::-1, ::-1], rtol=0.0, atol=TOL
    )


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("method", ["kmeans", "histogram", "exact"])
def test_band_scales_with_positions(method, dimension):
    scale = 2.5
    signatures = make_signatures(method, dimension)
    scaled = [Signature(scale * sig.positions, sig.weights) for sig in signatures]
    reference = PairwiseEMDEngine().banded_matrix(signatures, BANDWIDTH).band
    band = PairwiseEMDEngine().banded_matrix(scaled, BANDWIDTH).band
    assert np.array_equal(np.isnan(band), np.isnan(reference))
    assert np.nanmax(np.abs(band - scale * reference)) <= scale * TOL

"""Benchmark: per-pair vs block-diagonal batched exact-LP EMD solves.

The detector's exact band build issues one
:func:`repro.emd.solve_emd_linprog` call per in-band signature pair —
thousands of small HiGHS models whose per-call set-up cost dominates the
actual simplex work whenever signatures share a support (d-dimensional
histogram grids).  :func:`repro.emd.solve_emd_linprog_batch` stacks many
pairs into one sparse block-diagonal LP per HiGHS call, paying the model
set-up once per chunk while producing *exactly* the same distances (same
LP, same solver, no approximation to trade away).  Each chunk goes to
HiGHS directly with ``linprog(method="highs-ds")``'s options and passes
linprog's acceptance check, so its flows are bit-identical to linprog's;
skipping the wrapper saves its per-column Python work, which cost more
than the HiGHS solve itself.

Three sections:

* **solver** — enforced: the band pairs of a common-support histogram
  sequence solved per-pair vs batched, with a strict 1e-9 parity check
  on the resulting distances, and the same chunks solved once more in
  reversed order, which must give bit-identical distances (HiGHS's
  solver is reused from chunk to chunk, so any state it carried over
  would show here);
* **engine** — context: the full band build over histogram signatures
  with varying bin occupancy, one ``emd(backend="linprog")`` call per
  pair vs :class:`repro.emd.PairwiseEMDEngine`, which matches the mass
  in shared bins in place and stacks the residual LPs grouped by
  residual shape ``(d, K_a, K_b)``;
* **kmeans** — enforced: the band of a default-config detector
  (k-means signatures, K=8, ``τ + τ′ = 10``) built by the engine vs one
  ``emd(backend="linprog")`` call per pair.  Every support is distinct,
  so this is the route the detector takes by default;
* **kmeans-1d** — enforced: the same for 1-D bags of unequal sizes (the
  paper's Fig. 1 setting), whose signatures carry unequal masses.  The
  engine must put none of these pairs on the stacked LP (every one takes
  an LP-free 1-D solver), match the per-pair ``linprog`` band, and give
  the same band bit for bit when every pair is passed swapped.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_linprog_batch.py          # full
    PYTHONPATH=src python benchmarks/bench_linprog_batch.py --quick  # CI smoke

In full mode the script exits non-zero unless the batched solver is at
least ``--threshold`` times faster than the per-pair loop (default 3x)
and the engine builds the k-means band at least ``KMEANS_SPEEDUP`` (4x)
times faster than per-pair ``linprog``.  The 1e-9 parity
gates, the chunk-order gate and the 1-D route and swap gates apply in
both modes — exactness is the point of these routes.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.emd import (
    BandedDistanceMatrix,
    PairwiseEMDEngine,
    emd,
    solve_emd_linprog,
    solve_emd_linprog_batch,
)
from repro.core import DetectorConfig
from repro.emd.ground_distance import cross_distance_matrix
from repro.emd.linprog_batch import chunk_slices
from repro.signatures import Signature, SignatureBuilder

PARITY_TOL = 1e-9
# k-means section: band length in full mode (``--quick`` uses 24 bags)
# and the auto-vs-per-pair speed-up it must reach there.
KMEANS_BAGS = 120
KMEANS_SPEEDUP = 4.0


def make_histogram_band(n_bags, bandwidth, side, dim, seed):
    """Supply/demand rows for every in-band pair of a histogram sequence."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.arange(float(side))] * dim)
    grid = np.column_stack([axis.ravel() for axis in axes])
    n_bins = grid.shape[0]
    weights = rng.uniform(0.5, 3.0, size=(n_bags, n_bins))
    rows, cols = BandedDistanceMatrix(n_bags, bandwidth).pair_indices()
    cost = cross_distance_matrix(grid, grid, "euclidean")
    return grid, cost, weights[rows], weights[cols]


def make_histogram_signatures(n_bags, side, dim, seed):
    """Histogram signatures with varying bin occupancy over one grid."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.arange(float(side))] * dim)
    grid = np.column_stack([axis.ravel() for axis in axes])
    signatures = []
    for i in range(n_bags):
        counts = rng.poisson(3.0, size=grid.shape[0]).astype(float)
        if counts.sum() == 0:
            counts[0] = 1.0
        signatures.append(Signature(grid[counts > 0], counts[counts > 0], label=i))
    return signatures


def make_kmeans_signatures(n_bags, bag_size, seed, dim=2):
    """Default-config k-means signatures of bags with a mean shift.

    ``bag_size`` is one size for every bag, or a ``(low, high)`` range
    each bag's size is drawn from.
    """
    config = DetectorConfig()
    rng = np.random.default_rng(seed)
    if isinstance(bag_size, tuple):
        sizes = rng.integers(*bag_size, size=n_bags)
    else:
        sizes = np.full(n_bags, bag_size)
    bags = [
        rng.normal(0.0 if i < n_bags // 2 else 1.5, 1.0, size=(int(sizes[i]), dim))
        for i in range(n_bags)
    ]
    builder = SignatureBuilder(
        config.signature_method, n_clusters=config.n_clusters, random_state=seed
    )
    return builder.build_sequence(bags), config.window_span


def per_pair_band(signatures, bandwidth):
    """The band from one ``emd(backend="linprog")`` call per pair."""
    band = BandedDistanceMatrix(len(signatures), bandwidth)
    rows, cols = band.pair_indices()
    values = [
        emd(signatures[i], signatures[j], backend="linprog")
        for i, j in zip(rows.tolist(), cols.tolist())
    ]
    band.set_pairs(rows, cols, np.asarray(values))
    return band


def timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bags", type=int, default=60, help="sequence length")
    parser.add_argument("--bandwidth", type=int, default=10, help="band width tau + tau'")
    parser.add_argument("--side", type=int, default=4, help="histogram bins per dimension")
    parser.add_argument("--dim", type=int, default=2, help="grid dimensionality")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threshold", type=float, default=3.0,
        help="minimum batched-vs-per-pair speed-up required in full mode",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem for CI smoke runs; reports but does not enforce "
        "the speed-up threshold (the 1e-9 parity gate still applies)",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the key numbers as machine-readable JSON",
    )
    args = parser.parse_args(argv)

    n_bags = 30 if args.quick else args.bags
    bandwidth = 6 if args.quick else args.bandwidth

    # ------------------------------------------------------------------ #
    # Solver section: identical band pairs, per-pair loop vs stacked LPs.
    # ------------------------------------------------------------------ #
    grid, cost, supply, demand = make_histogram_band(
        n_bags, bandwidth, args.side, args.dim, args.seed
    )
    n_pairs = supply.shape[0]

    def per_pair():
        out = np.empty(n_pairs)
        for p in range(n_pairs):
            plan = solve_emd_linprog(cost, supply[p], demand[p])
            out[p] = plan.cost / plan.total_flow if plan.total_flow > 0 else 0.0
        return out

    def batched():
        return solve_emd_linprog_batch(cost, supply, demand).distances

    def reversed_chunks():
        out = np.empty(n_pairs)
        pieces = list(chunk_slices(n_pairs, cost.shape[0], cost.shape[1]))
        for piece in reversed(pieces):
            out[piece] = solve_emd_linprog_batch(cost, supply[piece], demand[piece]).distances
        return out, len(pieces)

    loop_time, loop_values = timed(per_pair)
    batch_time, batch_values = timed(batched)
    reversed_values, n_chunks = reversed_chunks()
    max_diff = float(np.abs(loop_values - batch_values).max())
    order_ok = np.array_equal(reversed_values, batch_values)
    speedup = loop_time / batch_time if batch_time > 0 else float("inf")

    print(
        f"\nsolver: {n_pairs} band pairs ({n_bags} bags, width {bandwidth}) "
        f"on a {args.side}^{args.dim} grid ({grid.shape[0]} atoms)"
    )
    print(f"{'method':<16}{'pairs/s':>12}{'seconds':>10}{'speed-up':>10}")
    for label, elapsed in (("per-pair", loop_time), ("batched", batch_time)):
        rate = n_pairs / elapsed if elapsed > 0 else float("inf")
        ratio = loop_time / elapsed if elapsed > 0 else float("inf")
        print(f"{label:<16}{rate:>12.1f}{elapsed:>10.3f}{ratio:>10.2f}x")
    print(f"max |batched - per-pair| = {max_diff:.2e}")
    print(
        f"{n_chunks} chunks in reversed order bit-identical to forward: "
        f"{'yes' if order_ok else 'NO'}"
    )

    # ------------------------------------------------------------------ #
    # Engine section: band build, per-pair LP vs the engine's residual
    # LPs (shared-bin mass matched in place, grouped by residual shape).
    # ------------------------------------------------------------------ #
    signatures = make_histogram_signatures(n_bags, args.side, args.dim, args.seed)

    lp_time, lp_band = timed(lambda: per_pair_band(signatures, bandwidth))
    batch_engine = PairwiseEMDEngine()
    engine_time, batch_band = timed(
        lambda: batch_engine.banded_matrix(signatures, bandwidth)
    )
    engine_diff = float(np.nanmax(np.abs(lp_band.band - batch_band.band)))
    engine_speedup = lp_time / engine_time if engine_time > 0 else float("inf")
    print(
        f"\nengine: band build, {n_bags} bags, width {bandwidth} "
        f"({batch_engine.n_evaluations} pairs, "
        f"{batch_engine.n_linprog_batched} batched)"
    )
    print(f"{'route':<16}{'seconds':>10}{'speed-up':>10}")
    print(f"{'per-pair emd':<16}{lp_time:>10.3f}{1.0:>10.2f}x")
    print(f"{'engine':<16}{engine_time:>10.3f}{engine_speedup:>10.2f}x")
    print(f"max band |engine - per-pair| = {engine_diff:.2e}")

    # ------------------------------------------------------------------ #
    # k-means section: the default detector's band, auto vs per-pair LP.
    # ------------------------------------------------------------------ #
    kmeans_bags = 24 if args.quick else KMEANS_BAGS
    kmeans_signatures, span = make_kmeans_signatures(kmeans_bags, 100, args.seed)
    per_pair_time, kmeans_lp_band = timed(
        lambda: per_pair_band(kmeans_signatures, span)
    )
    auto_engine = PairwiseEMDEngine()
    auto_time, auto_band = timed(
        lambda: auto_engine.banded_matrix(kmeans_signatures, span)
    )
    kmeans_diff = float(np.nanmax(np.abs(kmeans_lp_band.band - auto_band.band)))
    kmeans_speedup = per_pair_time / auto_time if auto_time > 0 else float("inf")
    print(
        f"\nkmeans: default-config band, {kmeans_bags} bags, width {span} "
        f"({auto_engine.n_evaluations} pairs: {auto_engine.n_linprog_batched} "
        f"stacked, {auto_engine.n_fast_path} LP-free)"
    )
    print(f"{'route':<16}{'seconds':>10}{'speed-up':>10}")
    print(f"{'per-pair emd':<16}{per_pair_time:>10.3f}{1.0:>10.2f}x")
    print(f"{'engine':<16}{auto_time:>10.3f}{kmeans_speedup:>10.2f}x")
    print(f"max band |engine - per-pair| = {kmeans_diff:.2e}")

    # ------------------------------------------------------------------ #
    # k-means 1-D section: unequal masses, every pair off the LP.
    # ------------------------------------------------------------------ #
    signatures_1d, span = make_kmeans_signatures(kmeans_bags, (60, 141), args.seed, dim=1)
    per_pair_1d_time, lp_band_1d = timed(lambda: per_pair_band(signatures_1d, span))
    engine_1d = PairwiseEMDEngine()
    engine_1d_time, band_1d = timed(lambda: engine_1d.banded_matrix(signatures_1d, span))
    rows, cols = band_1d.pair_indices()
    swapped = PairwiseEMDEngine().compute_pairs(
        [(signatures_1d[j], signatures_1d[i]) for i, j in zip(rows.tolist(), cols.tolist())]
    )
    swap_ok = np.array_equal(swapped, band_1d.band[rows, cols - rows - 1])
    route_ok = engine_1d.n_linprog_batched == 0
    diff_1d = float(np.nanmax(np.abs(lp_band_1d.band - band_1d.band)))
    speedup_1d = per_pair_1d_time / engine_1d_time if engine_1d_time > 0 else float("inf")
    print(
        f"\nkmeans-1d: unequal-size 1-D bags, {kmeans_bags} bags, width {span} "
        f"({engine_1d.n_evaluations} pairs: {engine_1d.n_linprog_batched} "
        f"stacked, {engine_1d.n_fast_path} LP-free)"
    )
    print(f"{'route':<16}{'seconds':>10}{'speed-up':>10}")
    print(f"{'per-pair emd':<16}{per_pair_1d_time:>10.3f}{1.0:>10.2f}x")
    print(f"{'engine':<16}{engine_1d_time:>10.3f}{speedup_1d:>10.2f}x")
    print(f"max band |engine - per-pair| = {diff_1d:.2e}")
    print(f"band with every pair swapped bit-identical: {'yes' if swap_ok else 'NO'}")

    worst_diff = max(max_diff, engine_diff, kmeans_diff, diff_1d)
    parity_ok = worst_diff <= PARITY_TOL
    speed_ok = args.quick or (
        speedup >= args.threshold and kmeans_speedup >= KMEANS_SPEEDUP
    )

    from conftest import write_benchmark_json

    write_benchmark_json(
        args.json,
        "linprog_batch",
        {
            "n_pairs": n_pairs,
            "per_pair_seconds": loop_time,
            "batched_seconds": batch_time,
            "speedup": speedup,
            "max_parity_diff": worst_diff,
            "chunk_order_identical": bool(order_ok),
            "engine_lp_seconds": lp_time,
            "engine_batch_seconds": engine_time,
            "engine_speedup": engine_speedup,
            "kmeans_n_pairs": auto_engine.n_evaluations,
            "kmeans_linprog_seconds": per_pair_time,
            "kmeans_auto_seconds": auto_time,
            "kmeans_speedup": kmeans_speedup,
            "kmeans_1d_n_pairs": engine_1d.n_evaluations,
            "kmeans_1d_stacked_pairs": engine_1d.n_linprog_batched,
            "kmeans_1d_linprog_seconds": per_pair_1d_time,
            "kmeans_1d_engine_seconds": engine_1d_time,
            "kmeans_1d_swap_identical": bool(swap_ok),
            "threshold": args.threshold,
            "kmeans_threshold": KMEANS_SPEEDUP,
            "threshold_enforced": not args.quick,
        },
        passed=parity_ok and order_ok and route_ok and swap_ok and speed_ok,
    )
    if not route_ok:
        print(
            f"FAIL: {engine_1d.n_linprog_batched} 1-D pairs went to the "
            "stacked LP; every 1-D pair should take an LP-free solver"
        )
        return 1
    if not swap_ok:
        print("FAIL: swapping every 1-D pair changed the band")
        return 1
    if not order_ok:
        print(
            "FAIL: solving the histogram band's chunks in reversed order "
            "changed its distances"
        )
        return 1
    if not parity_ok:
        print(
            f"FAIL: batched and per-pair exact LP disagree by "
            f"{worst_diff:.2e} > {PARITY_TOL:.0e}"
        )
        return 1
    if not speed_ok:
        print(
            f"FAIL: batched speed-up {speedup:.2f}x (threshold {args.threshold}x) "
            f"or k-means band speed-up {kmeans_speedup:.2f}x "
            f"(threshold {KMEANS_SPEEDUP}x) too low"
        )
        return 1
    print(
        f"OK: batched exact LP {speedup:.2f}x faster than per-pair, k-means band "
        f"{kmeans_speedup:.2f}x, parity {worst_diff:.2e}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

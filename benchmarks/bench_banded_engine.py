"""Benchmark: dense vs banded vs parallel pairwise-EMD computation.

Measures the wall-clock cost of preparing the distance values the
detector needs for a long bag sequence, three ways:

* ``dense``  — the full n x n pairwise matrix (what a naive
  implementation computes);
* ``banded`` — only the tau + tau' band, batched through
  :class:`repro.emd.PairwiseEMDEngine` (what the detector actually
  reads);
* ``banded+processes`` — the same band with the engine's process pool.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_banded_engine.py          # 200 bags
    PYTHONPATH=src python benchmarks/bench_banded_engine.py --quick  # CI smoke

In full mode the script exits non-zero unless the banded path is at
least ``--threshold`` times faster than the dense one.
"""

from __future__ import annotations

import argparse
import time

from repro.datasets import make_confidence_interval_dataset
from repro.emd import PairwiseEMDEngine, emd_matrix
from repro.signatures import SignatureBuilder


def build_signatures(n_bags: int, bag_size: float, seed: int):
    dataset = make_confidence_interval_dataset(
        4, n_bags=n_bags, mean_bag_size=bag_size, random_state=seed
    )
    builder = SignatureBuilder("kmeans", n_clusters=6, random_state=seed)
    return builder.build_sequence(dataset.bags)


def timed(label, func):
    start = time.perf_counter()
    result = func()
    elapsed = time.perf_counter() - start
    return label, elapsed, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bags", type=int, default=200, help="sequence length")
    parser.add_argument("--bag-size", type=float, default=40.0, help="mean points per bag")
    parser.add_argument("--bandwidth", type=int, default=10, help="tau + tau' band width")
    parser.add_argument("--workers", type=int, default=4, help="process-pool size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="minimum banded-vs-dense speed-up required in full mode",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem for CI smoke runs; reports but does not enforce the threshold",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the key numbers as machine-readable JSON",
    )
    args = parser.parse_args(argv)

    n_bags = 60 if args.quick else args.bags
    bag_size = 20.0 if args.quick else args.bag_size
    signatures = build_signatures(n_bags, bag_size, args.seed)
    bandwidth = args.bandwidth

    rows = []
    n_dense_pairs = n_bags * (n_bags - 1) // 2

    label, dense_time, _ = timed("dense", lambda: emd_matrix(signatures))
    rows.append((label, n_dense_pairs, dense_time))

    serial_engine = PairwiseEMDEngine()
    label, banded_time, _ = timed(
        "banded", lambda: serial_engine.banded_matrix(signatures, bandwidth)
    )
    rows.append((label, serial_engine.n_evaluations, banded_time))

    with PairwiseEMDEngine(parallel_backend="process", n_workers=args.workers) as pooled_engine:
        label, pooled_time, _ = timed(
            "banded+processes", lambda: pooled_engine.banded_matrix(signatures, bandwidth)
        )
        rows.append((label, pooled_engine.n_evaluations, pooled_time))

    print(f"\n{n_bags} bags, band width {bandwidth}, {args.workers} workers")
    print(f"{'method':<18}{'EMD solves':>12}{'seconds':>10}{'speed-up':>10}")
    for label, solves, elapsed in rows:
        speedup = dense_time / elapsed if elapsed > 0 else float("inf")
        print(f"{label:<18}{solves:>12}{elapsed:>10.3f}{speedup:>10.2f}x")

    speedup = dense_time / banded_time if banded_time > 0 else float("inf")
    passed = args.quick or speedup >= args.threshold

    from conftest import write_benchmark_json

    write_benchmark_json(
        args.json,
        "banded_engine",
        {
            "n_bags": n_bags,
            "bandwidth": bandwidth,
            "dense_seconds": dense_time,
            "banded_seconds": banded_time,
            "pooled_seconds": pooled_time,
            "speedup_vs_dense": speedup,
            "threshold": args.threshold,
            "threshold_enforced": not args.quick,
        },
        passed=passed,
    )
    if not passed:
        print(f"FAIL: banded speed-up {speedup:.2f}x below threshold {args.threshold}x")
        return 1
    print(f"OK: banded path {speedup:.2f}x faster than dense")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

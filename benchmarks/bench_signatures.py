"""Benchmark: serial vs pooled k-means signature construction.

``BagChangePointDetector.build_signatures`` seeds every k-means bag
serially (the only step that draws from the random generator) and runs
the Lloyd refinement on the EMD engine's worker pool.  This script times
that stage on PAMAP-simulator bags (~970 10-D records each, the paper's
Fig. 7 setting), default config (K=8), two ways:

* ``serial`` — ``parallel_backend="serial"``;
* ``pooled`` — ``parallel_backend="process"`` with 2 workers, timed on a
  fresh detector, so the pool's start-up is included.

Both runs start from equally seeded generators and must produce
identical atom counts, centres within 1e-12 and the same final generator
state; that parity gate applies in both modes.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_signatures.py          # full
    PYTHONPATH=src python benchmarks/bench_signatures.py --quick  # CI smoke

In full mode the script also exits non-zero unless the pooled build is
at least ``POOLED_SPEEDUP`` times faster than the serial one.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import BagChangePointDetector, DetectorConfig
from repro.datasets import make_dataset

PARITY_TOL = 1e-12
# Bags timed in full mode (``--quick`` uses QUICK_BAGS), repeats per
# method (the best is kept) and the pooled-vs-serial gate of full mode.
FULL_BAGS = 200
QUICK_BAGS = 40
REPEATS = 3
POOLED_SPEEDUP = 1.3
WORKERS = 2


def timed_build(bags, seed: int, **config):
    """(seconds, signatures, generator) of one fresh detector's build."""
    rng = np.random.default_rng(seed)
    with BagChangePointDetector(DetectorConfig(random_state=rng, **config)) as detector:
        start = time.perf_counter()
        signatures = detector.build_signatures(bags)
        elapsed = time.perf_counter() - start
    return elapsed, signatures, rng


def parity_failures(signatures, reference, rng, reference_rng):
    """Human-readable parity violations between two builds (empty if none)."""
    failures = []
    for i, (sig, ref) in enumerate(zip(signatures, reference)):
        if not np.array_equal(sig.weights, ref.weights):
            failures.append(f"bag {i}: atom counts differ")
        elif np.max(np.abs(sig.positions - ref.positions)) > PARITY_TOL:
            failures.append(f"bag {i}: centres differ by more than {PARITY_TOL}")
    if len(signatures) != len(reference):
        failures.append("different number of signatures")
    if rng.bit_generator.state != reference_rng.bit_generator.state:
        failures.append("generator state differs after the build")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem for CI smoke runs; checks parity but not the speed-up",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the key numbers as machine-readable JSON",
    )
    args = parser.parse_args(argv)

    n_bags = QUICK_BAGS if args.quick else FULL_BAGS
    repeats = 1 if args.quick else REPEATS
    bags = make_dataset("pamap", random_state=args.seed).bags[:n_bags]

    serial_runs = [timed_build(bags, args.seed) for _ in range(repeats)]
    pooled_runs = [
        timed_build(bags, args.seed, parallel_backend="process", n_workers=WORKERS)
        for _ in range(repeats)
    ]
    serial_time = min(run[0] for run in serial_runs)
    pooled_time = min(run[0] for run in pooled_runs)
    _, reference, reference_rng = serial_runs[0]
    failures = []
    for _, signatures, rng in pooled_runs:
        failures += parity_failures(signatures, reference, rng, reference_rng)
    speedup = serial_time / pooled_time if pooled_time > 0 else float("inf")

    n_points = sum(len(bag) for bag in bags)
    print(f"\n{n_bags} PAMAP bags ({n_points} records, d={bags[0].shape[1]}), K=8, "
          f"best of {repeats}")
    print(f"{'method':<22}{'seconds':>10}{'ms/bag':>10}")
    for label, elapsed in (("serial", serial_time), (f"pooled ({WORKERS} processes)", pooled_time)):
        print(f"{label:<22}{elapsed:>10.3f}{1e3 * elapsed / n_bags:>10.2f}")
    print(f"speed-up {speedup:.2f}x")

    speed_ok = args.quick or speedup >= POOLED_SPEEDUP
    passed = not failures and speed_ok

    from conftest import write_benchmark_json

    write_benchmark_json(
        args.json,
        "signatures",
        {
            "n_bags": n_bags,
            "workers": WORKERS,
            "serial_seconds": serial_time,
            "pooled_seconds": pooled_time,
            "speedup": speedup,
            "threshold": POOLED_SPEEDUP,
            "threshold_enforced": not args.quick,
            "parity_failures": len(failures),
        },
        passed=passed,
    )
    if failures:
        print("FAIL: pooled build differs from serial: " + "; ".join(failures[:5]))
        return 1
    if not speed_ok:
        print(f"FAIL: pooled speed-up {speedup:.2f}x below threshold {POOLED_SPEEDUP}x")
        return 1
    print("OK: pooled build equals serial (counts, centres, generator state)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

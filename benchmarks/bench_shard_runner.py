"""Benchmark: sharded process-parallel band build vs the thread backend.

The band build over *irregular-support* signatures (k-means: every
support distinct) on the per-pair backend ``backend="linprog"`` needs one
LP per pair, and the engine's thread pool is GIL-bound on the per-pair
Python/scipy overhead.  (The default ``"auto"`` stacks these pairs into
block-diagonal LPs instead; see ``bench_linprog_batch.py`` for that
comparison.)  The sharded runner
(:mod:`repro.emd.sharding`) attacks exactly this case: the band's pair
set is split into row-block shards, the signatures are placed in
``multiprocessing.shared_memory`` once, and each worker process solves
its shards with a private serial engine — true CPU parallelism with
per-job payloads of a few integers.

Sections:

* **build** — the enforced comparison: the same irregular band built by
  the engine's thread pool (``parallel_backend="thread"``) and by the
  shard runner in process mode, both at ``--workers`` workers, with a
  1e-12 parity gate against the serial single-process build;
* **resume** — context: re-running the shard build against a directory
  of finished checkpoints (the recovery path after a kill), which only
  loads and merges.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_shard_runner.py          # full
    PYTHONPATH=src python benchmarks/bench_shard_runner.py --quick  # CI smoke

In full mode the script exits non-zero unless the sharded process build
is at least ``--threshold`` times faster than the thread backend
(default 2.5x at 4 workers).  The 1e-12 parity gate applies in both
modes — a shard merge that differs from the plain build is a bug, not a
trade-off.
"""

from __future__ import annotations

import argparse
import tempfile
import time

import numpy as np

from repro.emd import EngineSettings, PairwiseEMDEngine, ShardPlan, ShardRunner
from repro.signatures import SignatureBuilder

PARITY_TOL = 1e-12


def make_irregular_signatures(n_bags, bag_size, n_clusters, seed):
    """k-means signatures: every support distinct."""
    rng = np.random.default_rng(seed)
    bags = [rng.normal(0.0, 1.0, size=(bag_size, 3)) for _ in range(n_bags)]
    builder = SignatureBuilder("kmeans", n_clusters=n_clusters, random_state=seed)
    return builder.build_sequence(bags)


def timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bags", type=int, default=90, help="sequence length")
    parser.add_argument("--bandwidth", type=int, default=10, help="band width tau + tau'")
    parser.add_argument("--bag-size", type=int, default=30, help="points per bag")
    parser.add_argument("--clusters", type=int, default=6, help="signature size K")
    parser.add_argument("--workers", type=int, default=4, help="worker count for both sides")
    parser.add_argument("--n-shards", type=int, default=8, help="row-block shard count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threshold", type=float, default=2.5,
        help="minimum sharded-vs-thread speed-up required in full mode",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem for CI smoke runs; reports but does not enforce "
        "the speed-up threshold (the 1e-12 parity gate still applies)",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the key numbers as machine-readable JSON",
    )
    args = parser.parse_args(argv)

    n_bags = 36 if args.quick else args.bags
    bandwidth = 6 if args.quick else args.bandwidth
    bag_size = 20 if args.quick else args.bag_size
    n_shards = 4 if args.quick else args.n_shards

    signatures = make_irregular_signatures(n_bags, bag_size, args.clusters, args.seed)
    plan = ShardPlan.build(n_bags, bandwidth, n_shards)
    settings = EngineSettings(backend="linprog")

    # ------------------------------------------------------------------ #
    # Build section: serial reference, thread backend, sharded processes.
    # ------------------------------------------------------------------ #
    serial_time, reference = timed(
        lambda: PairwiseEMDEngine(backend="linprog").banded_matrix(signatures, bandwidth)
    )

    with PairwiseEMDEngine(
        backend="linprog", parallel_backend="thread", n_workers=args.workers
    ) as thread_engine:
        thread_time, thread_band = timed(
            lambda: thread_engine.banded_matrix(signatures, bandwidth)
        )

    shard_runner = ShardRunner(plan, settings, mode="process", n_workers=args.workers)
    shard_time, shard_band = timed(lambda: shard_runner.run(signatures))

    thread_diff = float(np.nanmax(np.abs(thread_band.band - reference.band)))
    shard_diff = float(np.nanmax(np.abs(shard_band.band - reference.band)))
    speedup = thread_time / shard_time if shard_time > 0 else float("inf")

    print(
        f"\nbuild: {plan.n_pairs} irregular band pairs ({n_bags} bags, "
        f"width {bandwidth}), {plan.n_shards} shards, {args.workers} workers"
    )
    print(f"{'method':<20}{'seconds':>10}{'vs serial':>12}{'vs thread':>12}")
    for label, elapsed in (
        ("serial", serial_time),
        ("thread pool", thread_time),
        ("sharded processes", shard_time),
    ):
        vs_serial = serial_time / elapsed if elapsed > 0 else float("inf")
        vs_thread = thread_time / elapsed if elapsed > 0 else float("inf")
        print(f"{label:<20}{elapsed:>10.3f}{vs_serial:>11.2f}x{vs_thread:>11.2f}x")
    print(f"max band |thread - serial|  = {thread_diff:.2e}")
    print(f"max band |sharded - serial| = {shard_diff:.2e}")

    # ------------------------------------------------------------------ #
    # Resume section: a fully checkpointed build only loads and merges.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        warm = ShardRunner(
            plan, settings, mode="serial", checkpoint_dir=checkpoint_dir
        )
        warm.run(signatures)
        resumer = ShardRunner(
            plan, settings, mode="serial", checkpoint_dir=checkpoint_dir
        )
        resume_time, resumed = timed(lambda: resumer.run(signatures))
    resume_diff = float(np.nanmax(np.abs(resumed.band - reference.band)))
    print(
        f"\nresume: all {plan.n_shards} shards from checkpoints in "
        f"{resume_time:.3f}s ({resumer.n_shards_resumed} resumed, "
        f"{resumer.n_shards_computed} computed), parity {resume_diff:.2e}"
    )

    max_diff = max(thread_diff, shard_diff, resume_diff)
    parity_ok = max_diff <= PARITY_TOL
    enforce = not args.quick
    speed_ok = args.quick or speedup >= args.threshold

    from conftest import write_benchmark_json

    write_benchmark_json(
        args.json,
        "shard_runner",
        {
            "n_bags": n_bags,
            "bandwidth": bandwidth,
            "n_pairs": plan.n_pairs,
            "n_shards": plan.n_shards,
            "workers": args.workers,
            "serial_seconds": serial_time,
            "thread_seconds": thread_time,
            "sharded_seconds": shard_time,
            "resume_seconds": resume_time,
            "speedup_vs_thread": speedup,
            "max_parity_diff": max_diff,
            "threshold": args.threshold,
            "threshold_enforced": enforce,
        },
        passed=parity_ok and speed_ok,
    )

    if not parity_ok:
        print(f"FAIL: sharded band disagrees with serial build by {max_diff:.2e} > {PARITY_TOL:.0e}")
        return 1
    if not speed_ok:
        print(
            f"FAIL: sharded speed-up {speedup:.2f}x over the thread backend "
            f"below threshold {args.threshold}x"
        )
        return 1
    print(
        f"OK: sharded processes {speedup:.2f}x faster than the thread pool, "
        f"parity {max_diff:.2e}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

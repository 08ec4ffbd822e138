"""Benchmark: streaming-service supervision overhead and crash recovery.

The service layer (:mod:`repro.service`) multiplexes many named online
detector streams behind bounded queues, with cadence snapshots and
per-stream fault isolation.  Supervision must be close to free against
running the same N detectors by hand, snapshots must cost a bounded
fraction of the replay, and a supervisor killed mid-replay and restarted
on its snapshot directory must finish with *the same history* the
uninterrupted run produces — checkable at 1e-12, not just "looks
plausible".

Sections:

* **overhead** — the same N-stream replay pushed through N independent
  :class:`OnlineBagDetector` loops and through a
  :class:`StreamSupervisor` (no snapshots); the enforced gate is that
  supervision adds at most ``--overhead`` relative wall-clock (default
  50%), with a 1e-12 history-parity gate between the two runs;
* **snapshots** — the supervised replay re-timed with a snapshot
  cadence; reports per-snapshot cost and gates the relative overhead at
  ``--snapshot-overhead`` in full mode;
* **recovery** — the snapshotting supervisor is killed mid-replay
  (dropped without ``close()``), a fresh supervisor on the same
  directory restores every stream from its last snapshot, and the
  remaining bags are replayed; the recombined history must match the
  uninterrupted run at 1e-12;
* **batched drain** — a wide replay (``--batch-streams``, default 64)
  on the ``linprog_batch`` backend, run as independent ``push`` loops
  (one solve per stream per bag) and through the supervisor, whose
  drain rounds stack every stream's pairs into one solve.  Full mode
  gates the supervisor's speedup at ``--batch-speedup`` (default 2x);
  parity between the two runs is gated at 1e-12 in both modes.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_stream_service.py          # full
    PYTHONPATH=src python benchmarks/bench_stream_service.py --quick  # CI smoke

In full mode the script exits non-zero if either overhead gate fails.
The 1e-12 parity gates and the every-stream-restored gate apply in both
modes — a supervision or recovery path that changes scores is a bug,
not a trade-off.
"""

from __future__ import annotations

import argparse
import tempfile
import time

import numpy as np

from repro.core import DetectorConfig, OnlineBagDetector
from repro.service import StreamSupervisor, SupervisorPolicy

PARITY_TOL = 1e-12


def make_stream_bags(n_streams, n_bags, seed):
    """Per-stream bag sequences with a mid-sequence mean shift."""
    rng = np.random.default_rng(seed)
    streams = []
    for _ in range(n_streams):
        shift = float(rng.uniform(2.0, 4.0))
        streams.append(
            [
                rng.normal(size=(15, 2)) + (shift if i >= n_bags // 2 else 0.0)
                for i in range(n_bags)
            ]
        )
    return streams


def stream_config(index, seed):
    """One stream's detector config; seeds differ so histories differ."""
    return DetectorConfig(
        tau=3,
        tau_test=3,
        signature_method="kmeans",
        n_clusters=4,
        n_bootstrap=20,
        random_state=seed + index,
    )


def batched_stream_config(index, seed, backend):
    """A stream config for the batched-drain section.

    Histogram signatures on one declared grid give many pairs of the
    same ``(d, K_a, K_b)`` shape across streams, so the supervisor's
    drain rounds stack them into a few block-diagonal LP chunks where a
    ``push`` loop solves each stream's pairs on their own.
    """
    return DetectorConfig(
        tau=3,
        tau_test=3,
        signature_method="histogram",
        bins=3,
        histogram_range=[(-6.0, 10.0), (-6.0, 10.0)],
        emd_backend=backend,
        n_bootstrap=20,
        random_state=seed + index,
    )


def timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def run_independent(configs, stream_bags):
    """Baseline: each stream pushed through its own detector, by hand."""
    histories = []
    for config, bags in zip(configs, stream_bags):
        with OnlineBagDetector(config) as detector:
            for bag in bags:
                detector.push(bag)
            histories.append(list(detector.history))
    return histories


def run_supervised(configs, stream_bags, policy, snapshot_dir=None):
    """The same replay through a supervisor, round-robin submit/drain."""
    supervisor = StreamSupervisor(policy=policy, snapshot_dir=snapshot_dir)
    names = [f"stream-{i:02d}" for i in range(len(configs))]
    for name, config in zip(names, configs):
        supervisor.add_stream(name, config)
    for round_bags in zip(*stream_bags):
        for name, bag in zip(names, round_bags):
            supervisor.submit(name, bag)
        supervisor.drain()
    histories = [list(supervisor.detector(name).history) for name in names]
    return supervisor, names, histories


def history_parity(histories_a, histories_b):
    """Max |a - b| over score/bounds/gamma across all streams; NaN-aware.

    Returns ``inf`` on any structural mismatch (length, times, alerts,
    NaN placement) so a broken run cannot pass the parity gate.
    """
    worst = 0.0
    for points_a, points_b in zip(histories_a, histories_b):
        if [p.time for p in points_a] != [p.time for p in points_b]:
            return float("inf")
        for p, q in zip(points_a, points_b):
            if p.alert != q.alert:
                return float("inf")
            for a, b in (
                (p.score, q.score),
                (p.interval.lower, q.interval.lower),
                (p.interval.upper, q.interval.upper),
                (p.gamma, q.gamma),
            ):
                if np.isnan(a) != np.isnan(b):
                    return float("inf")
                if not np.isnan(a):
                    worst = max(worst, abs(a - b))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--streams", type=int, default=8, help="stream count")
    parser.add_argument("--bags", type=int, default=60, help="bags per stream")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--snapshot-every", type=int, default=5, metavar="N",
        help="snapshot cadence (pushes per stream) in the snapshot section",
    )
    parser.add_argument(
        "--overhead", type=float, default=0.50,
        help="maximum allowed relative supervision overhead in full mode",
    )
    parser.add_argument(
        "--snapshot-overhead", type=float, default=1.00,
        help="maximum allowed relative snapshot overhead in full mode",
    )
    parser.add_argument(
        "--batch-streams", type=int, default=64,
        help="stream count of the batched-drain section",
    )
    parser.add_argument(
        "--batch-bags", type=int, default=12,
        help="bags per stream in the batched-drain section",
    )
    parser.add_argument(
        "--batch-speedup", type=float, default=2.0,
        help="minimum speedup of the supervisor's stacked drain over "
        "independent push loops, enforced in full mode",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem for CI smoke runs; reports but does not enforce "
        "the overhead gates (the 1e-12 parity gates still apply)",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the key numbers as machine-readable JSON",
    )
    args = parser.parse_args(argv)

    n_streams = 3 if args.quick else args.streams
    n_bags = 24 if args.quick else args.bags

    stream_bags = make_stream_bags(n_streams, n_bags, args.seed)
    configs = [stream_config(i, args.seed + 100) for i in range(n_streams)]
    plain_policy = SupervisorPolicy()

    # ------------------------------------------------------------------ #
    # Overhead section: hand-rolled loops vs the supervisor, no snapshots.
    # ------------------------------------------------------------------ #
    independent_time, independent = timed(
        lambda: run_independent(configs, stream_bags)
    )
    supervised_time, (_, _, supervised) = timed(
        lambda: run_supervised(configs, stream_bags, plain_policy)
    )
    supervised_diff = history_parity(supervised, independent)
    overhead = (
        (supervised_time - independent_time) / independent_time
        if independent_time > 0
        else 0.0
    )

    n_points = sum(len(points) for points in independent)
    print(
        f"\noverhead: {n_streams} streams x {n_bags} bags "
        f"({n_points} scored points)"
    )
    print(f"{'method':<24}{'seconds':>10}{'bags/s':>10}")
    for label, elapsed in (
        ("independent detectors", independent_time),
        ("stream supervisor", supervised_time),
    ):
        rate = n_streams * n_bags / elapsed if elapsed > 0 else float("inf")
        print(f"{label:<24}{elapsed:>10.3f}{rate:>10.1f}")
    print(f"supervision overhead             = {overhead * 100:+.1f}%")
    print(f"max history |supervised - indep| = {supervised_diff:.2e}")

    # ------------------------------------------------------------------ #
    # Snapshot section: the same replay with cadence snapshots.
    # ------------------------------------------------------------------ #
    cadence_policy = SupervisorPolicy(snapshot_every=args.snapshot_every)
    with tempfile.TemporaryDirectory() as snapshot_dir:
        snapshot_time, (supervisor, _, snapshotted) = timed(
            lambda: run_supervised(
                configs, stream_bags, cadence_policy, snapshot_dir
            )
        )
        n_snapshots = supervisor.n_snapshots_written
        supervisor.close()
    snapshot_diff = history_parity(snapshotted, independent)
    snapshot_overhead = (
        (snapshot_time - supervised_time) / supervised_time
        if supervised_time > 0
        else 0.0
    )
    per_snapshot_ms = (
        1000.0 * (snapshot_time - supervised_time) / n_snapshots
        if n_snapshots > 0
        else 0.0
    )

    print(
        f"\nsnapshots: cadence {args.snapshot_every}, "
        f"{n_snapshots} snapshots written during replay"
    )
    print(f"snapshotting replay seconds      = {snapshot_time:.3f}")
    print(f"snapshot overhead vs supervised  = {snapshot_overhead * 100:+.1f}%")
    print(f"apparent cost per snapshot       = {per_snapshot_ms:.2f} ms")
    print(f"max history |snapshot - indep|   = {snapshot_diff:.2e}")

    # ------------------------------------------------------------------ #
    # Recovery section: kill mid-replay, restore, finish, compare.
    # ------------------------------------------------------------------ #
    kill_at = n_bags // 2 + 1
    with tempfile.TemporaryDirectory() as snapshot_dir:
        first_half = [bags[:kill_at] for bags in stream_bags]
        run_supervised(configs, first_half, cadence_policy, snapshot_dir)
        # Crash: the first supervisor is abandoned without close(), so
        # only its cadence snapshots survive.  The successor restores
        # each stream from its last snapshot and replays what is missing.
        def recover():
            restored = StreamSupervisor(
                policy=cadence_policy, snapshot_dir=snapshot_dir
            )
            names = [f"stream-{i:02d}" for i in range(n_streams)]
            for name, config in zip(names, configs):
                restored.add_stream(name, config)
            for name, bags in zip(names, stream_bags):
                for bag in bags[restored.detector(name).n_seen:]:
                    restored.submit(name, bag)
            restored.drain()
            histories = [list(restored.detector(name).history) for name in names]
            return restored.n_restored, histories

        recovery_time, (n_restored, recovered) = timed(recover)
    recovered_diff = history_parity(recovered, independent)

    print(f"\nrecovery: killed after {kill_at} bags/stream, restored from disk")
    print(f"streams restored from snapshot   = {n_restored}/{n_streams}")
    print(f"restore-and-finish seconds       = {recovery_time:.3f}")
    print(f"max history |recovered - indep|  = {recovered_diff:.2e}")

    # ------------------------------------------------------------------ #
    # Batched-drain section: push loops vs one stacked solve per round.
    # ------------------------------------------------------------------ #
    batch_streams = 4 if args.quick else args.batch_streams
    batch_bags = 8 if args.quick else args.batch_bags
    batch_bag_sets = make_stream_bags(batch_streams, batch_bags, args.seed + 1)
    batch_results = {}
    batch_parity_ok = True
    batch_speedup_ok = True
    print(
        f"\nbatched drain: {batch_streams} streams x {batch_bags} bags, "
        "push loops vs cross-stream stacked solves"
    )
    print(f"{'backend':<16}{'push s':>9}{'batched s':>11}{'speedup':>9}{'parity':>11}")
    backend = "linprog_batch"
    batch_configs = [
        batched_stream_config(i, args.seed + 200, backend)
        for i in range(batch_streams)
    ]
    sequential_time, sequential_hist = timed(
        lambda configs=batch_configs: run_independent(configs, batch_bag_sets)
    )
    batched_time, (_, _, batched_hist) = timed(
        lambda configs=batch_configs: run_supervised(
            configs, batch_bag_sets, plain_policy
        )
    )
    diff = history_parity(batched_hist, sequential_hist)
    speedup = sequential_time / batched_time if batched_time > 0 else float("inf")
    if diff > PARITY_TOL:
        batch_parity_ok = False
    if not args.quick and speedup < args.batch_speedup:
        batch_speedup_ok = False
    batch_results[backend] = {
        "sequential_seconds": sequential_time,
        "batched_seconds": batched_time,
        "speedup": speedup,
        "parity_diff": diff,
        "parity_tol": PARITY_TOL,
    }
    print(
        f"{backend:<16}{sequential_time:>9.3f}{batched_time:>11.3f}"
        f"{speedup:>8.2f}x{diff:>11.2e}"
    )

    max_diff = max(supervised_diff, snapshot_diff, recovered_diff)
    parity_ok = max_diff <= PARITY_TOL
    restored_ok = n_restored == n_streams
    overhead_ok = args.quick or overhead <= args.overhead
    snapshot_ok = args.quick or snapshot_overhead <= args.snapshot_overhead

    from conftest import write_benchmark_json

    write_benchmark_json(
        args.json,
        "stream_service",
        {
            "n_streams": n_streams,
            "n_bags": n_bags,
            "n_points": n_points,
            "independent_seconds": independent_time,
            "supervised_seconds": supervised_time,
            "supervision_overhead": overhead,
            "snapshot_seconds": snapshot_time,
            "snapshot_overhead": snapshot_overhead,
            "n_snapshots": n_snapshots,
            "per_snapshot_ms": per_snapshot_ms,
            "recovery_seconds": recovery_time,
            "n_restored": n_restored,
            "max_parity_diff": max_diff,
            "overhead_limit": args.overhead,
            "snapshot_overhead_limit": args.snapshot_overhead,
            "overhead_enforced": not args.quick,
            "batch_streams": batch_streams,
            "batch_bags": batch_bags,
            "batch_speedup_limit": args.batch_speedup,
            "batch_drain": batch_results,
        },
        passed=parity_ok
        and restored_ok
        and overhead_ok
        and snapshot_ok
        and batch_parity_ok
        and batch_speedup_ok,
    )

    if not parity_ok:
        print(f"FAIL: histories disagree by {max_diff:.2e} > {PARITY_TOL:.0e}")
        return 1
    if not restored_ok:
        print(
            f"FAIL: only {n_restored}/{n_streams} streams restored from "
            "their snapshots"
        )
        return 1
    if not overhead_ok:
        print(
            f"FAIL: supervision overhead {overhead * 100:+.1f}% exceeds "
            f"{args.overhead * 100:.0f}%"
        )
        return 1
    if not snapshot_ok:
        print(
            f"FAIL: snapshot overhead {snapshot_overhead * 100:+.1f}% exceeds "
            f"{args.snapshot_overhead * 100:.0f}%"
        )
        return 1
    if not batch_parity_ok:
        worst = {
            backend: result["parity_diff"]
            for backend, result in batch_results.items()
        }
        print(f"FAIL: batched drain disagrees with push loops: {worst}")
        return 1
    if not batch_speedup_ok:
        speedups = {
            backend: round(result["speedup"], 2)
            for backend, result in batch_results.items()
        }
        print(
            f"FAIL: batched drain speedup {speedups} below "
            f"{args.batch_speedup:.1f}x"
        )
        return 1
    batch_summary = ", ".join(
        f"{backend} {result['speedup']:.1f}x"
        for backend, result in batch_results.items()
    )
    print(
        f"OK: supervision {overhead * 100:+.1f}%, snapshots "
        f"{snapshot_overhead * 100:+.1f}%, {n_restored} streams recovered to "
        f"{max_diff:.2e} parity, batched drain {batch_summary}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

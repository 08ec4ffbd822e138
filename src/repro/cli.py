"""Command-line interface: run the detector on bag data stored in files.

Usage
-----
``repro-detect`` (or ``python -m repro``) accepts either

* an ``.npz`` file where each array is one bag (arrays are processed in
  the lexicographic order of their names), or
* a CSV file in long format with a ``time`` column and one column per
  feature dimension: rows sharing a ``time`` value form one bag.

The detected scores, confidence bounds and alerts are printed as CSV on
standard output (or written to ``--output``).

A second mode, ``repro-detect shard-build``, runs only the band-build
stage through the fault-tolerant shard orchestrator
(:mod:`repro.emd.orchestrator`): it partitions the EMD band into
row-block shards, executes them on killable worker processes with
retry/backoff, timeouts, straggler re-dispatch and poison-pair
quarantine (resuming from validated per-shard checkpoints), and writes
the merged band as an ``.npz`` — the expensive half of a detection run,
made restartable and fault-tolerant.

A third mode, ``repro-detect serve-replay``, replays the recorded bags
through the crash-safe streaming service
(:class:`repro.service.StreamSupervisor`): the bags are dealt
round-robin across ``--streams`` named online detector streams running
behind bounded ingest queues, with snapshot/restore (``--snapshot-dir``
/ ``--snapshot-every``), a per-stream fault-isolation policy
(``--on-stream-error``) and a backpressure policy (``--backpressure``).
``--batch-drain`` stacks every stream's pending solves into one
cross-stream batched solve per drain round.  Scores are printed as CSV
with a leading ``stream`` column; the supervisor's robustness metrics go
to standard error.

A fourth mode, ``repro-detect zoo``, crosses the detector registry with
the dataset registry (:mod:`repro.api` × :mod:`repro.datasets.registry`):
every selected detector runs on every selected dataset through the
shared estimator facade, alarms are matched against the ground-truth
change points, and one comparison table (precision, recall, F1, mean
delay, runtime) is emitted.  See ``docs/api.md``.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .core import BagChangePointDetector, BagSequence, DetectorConfig
from .core.config import SCORES, SIGNATURE_METHODS, WEIGHTINGS
from .emd.ground_distance import GROUND_DISTANCES
from .emd.orchestrator import RetryPolicy, ShardOrchestrator
from .emd.registry import PARALLEL_BACKENDS, POISON_POLICIES
from .emd.sharding import EngineSettings, ShardPlan
from .exceptions import ValidationError
from .service import (
    BACKPRESSURE_POLICIES,
    STREAM_ERROR_POLICIES,
    StreamSupervisor,
    SupervisorPolicy,
)


def _load_npz(path: Path) -> List[np.ndarray]:
    archive = np.load(path)
    names = sorted(archive.files)
    if not names:
        raise ValidationError(f"{path} contains no arrays")
    return [np.asarray(archive[name], dtype=float) for name in names]


def _load_csv(path: Path, time_column: str) -> List[np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or time_column not in reader.fieldnames:
            raise ValidationError(f"{path} has no '{time_column}' column")
        value_columns = [c for c in reader.fieldnames if c != time_column]
        if not value_columns:
            raise ValidationError(f"{path} has no value columns besides '{time_column}'")
        times: List[float] = []
        values: List[List[float]] = []
        for row in reader:
            times.append(float(row[time_column]))
            values.append([float(row[c]) for c in value_columns])
    sequence = BagSequence.from_long_format(np.array(times), np.array(values))
    return sequence.arrays()


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by the detect run and ``shard-build``.

    Everything here shapes the signatures or the solver, so both modes
    must agree on names, choices and defaults — the shard-build band is
    only reusable by a detect run computed under the same settings.
    """
    parser.add_argument("input", type=Path, help="input .npz (one array per bag) or long-format .csv")
    parser.add_argument("--time-column", default="time", help="time column name for CSV input")
    parser.add_argument("--tau", type=int, default=5, help="reference window length")
    parser.add_argument("--tau-test", type=int, default=5, help="test window length")
    parser.add_argument(
        "--signature",
        choices=SIGNATURE_METHODS,
        default="kmeans",
        help="signature construction method",
    )
    parser.add_argument("--clusters", type=int, default=8, help="signature size K")
    parser.add_argument(
        "--bins", type=int, default=10,
        help="bins per dimension for --signature histogram",
    )
    parser.add_argument(
        "--ground-distance",
        choices=GROUND_DISTANCES,
        default="euclidean",
        help="ground distance of the EMD between signature representatives",
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed")


def _add_orchestration_args(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs of the orchestrated band build.

    Shared by the detect run (which orchestrates when sharding is on)
    and ``shard-build``, so both modes expose identical recovery
    behaviour.
    """
    parser.add_argument(
        "--retries", type=int, default=2,
        help="retry budget per shard: crashed, timed-out or transiently "
        "failing shards are re-enqueued with exponential backoff up to "
        "this many times before the build aborts",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=None,
        help="kill and retry any shard attempt running longer than this "
        "many seconds (default: no timeout)",
    )
    parser.add_argument(
        "--on-poison-pair", choices=POISON_POLICIES, default="strict",
        help="what to do with pairs that keep failing the solver after "
        "bisection and exact-LP rescue: refuse the band (strict) or "
        "return it with those entries masked as NaN (degraded)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description="Bag-of-data change-point detection (Koshijima, Hino & Murata).",
    )
    _add_common_args(parser)
    parser.add_argument("--score", choices=SCORES, default="kl", help="change-point score")
    parser.add_argument(
        "--weighting",
        choices=WEIGHTINGS,
        default="uniform",
        help="window weighting: the paper's uniform weights or Eq. 15 discounting",
    )
    parser.add_argument(
        "--parallel",
        choices=PARALLEL_BACKENDS,
        default="serial",
        help="how the EMD engine computes distance batches",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size for --parallel process (default: CPU count)",
    )
    parser.add_argument(
        "--n-shards", type=int, default=None,
        help="build the EMD band in this many row-block shards "
        "(process-parallel with --parallel process; see shard-build)",
    )
    parser.add_argument(
        "--shard-checkpoint-dir", type=Path, default=None,
        help="directory for per-shard checkpoints; a killed run resumes "
        "its band build from the last finished shard",
    )
    _add_orchestration_args(parser)
    parser.add_argument(
        "--lr-inspection-index", type=int, default=0,
        help="test-window position of the inspected bag for --score lr",
    )
    parser.add_argument("--bootstrap", type=int, default=200, help="Bayesian bootstrap replicates")
    parser.add_argument("--alpha", type=float, default=0.05, help="CI significance level")
    parser.add_argument(
        "--history-limit", type=int, default=None,
        help="retain only this many most recent score points in the online "
        "detector (default: unbounded)",
    )
    parser.add_argument("--output", type=Path, default=None, help="write CSV here instead of stdout")
    return parser


def build_shard_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``shard-build`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-detect shard-build",
        description="Sharded, checkpointable build of the banded pairwise-EMD "
        "matrix (the expensive stage of a detection run).",
    )
    _add_common_args(parser)
    parser.add_argument(
        "--n-shards", type=int, default=4,
        help="number of contiguous row-block shards",
    )
    parser.add_argument(
        "--mode", choices=PARALLEL_BACKENDS, default="process",
        help="run each pending shard attempt in its own worker process "
        "(signatures in shared memory) or sequentially in-process",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="maximum concurrently running shard attempts (default: CPU count)",
    )
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="write per-shard checkpoints here and resume from any that "
        "match the current plan and solver configuration",
    )
    _add_orchestration_args(parser)
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the merged band here as .npz (band, n, bandwidth, "
        "plan_hash, fingerprint); default: report only",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``serve-replay`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-detect serve-replay",
        description="Replay recorded bags through the crash-safe streaming "
        "service: bags are dealt round-robin across named online detector "
        "streams with snapshot/restore, per-stream fault isolation and "
        "bounded ingest queues.",
    )
    _add_common_args(parser)
    parser.add_argument("--score", choices=SCORES, default="kl", help="change-point score")
    parser.add_argument(
        "--weighting",
        choices=WEIGHTINGS,
        default="uniform",
        help="window weighting: the paper's uniform weights or Eq. 15 discounting",
    )
    parser.add_argument(
        "--lr-inspection-index", type=int, default=0,
        help="test-window position of the inspected bag for --score lr",
    )
    parser.add_argument("--bootstrap", type=int, default=200, help="Bayesian bootstrap replicates")
    parser.add_argument("--alpha", type=float, default=0.05, help="CI significance level")
    parser.add_argument(
        "--streams", type=int, default=2,
        help="number of streams the recorded bags are dealt across",
    )
    parser.add_argument(
        "--snapshot-dir", type=Path, default=None,
        help="directory for stream snapshots and the quarantine manifest; "
        "a restarted replay restores every stream from it",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=None,
        help="snapshot each stream after this many pushes (requires "
        "--snapshot-dir); streams are always snapshotted at shutdown",
    )
    parser.add_argument(
        "--on-stream-error", choices=STREAM_ERROR_POLICIES, default="strict",
        help="what a solver failure during one stream's push does to that "
        "stream: propagate with the bag requeued (strict), consume the bag "
        "masked with NaN scores (degraded), or park the stream on its last "
        "snapshot (quarantine)",
    )
    parser.add_argument(
        "--backpressure", choices=BACKPRESSURE_POLICIES, default="block",
        help="full-queue policy: drain inline (block), drop the bag (shed) "
        "or raise (error)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=64,
        help="bound of each stream's ingest queue",
    )
    parser.add_argument(
        "--batch-drain", action="store_true",
        help="drain all streams through one cross-stream stacked solve per "
        "round instead of one solve per stream (scores within 1e-12 of "
        "the sequential drain)",
    )
    parser.add_argument(
        "--history-limit", type=int, default=None,
        help="retained score points per stream (default: the service's "
        "bounded default)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the per-stream score CSV here instead of stdout",
    )
    return parser


def serve_replay_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-detect serve-replay``."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.streams < 1:
        parser.error("--streams must be a positive integer")
    bags = _load_bags(parser, args.input, args.time_column)

    policy = SupervisorPolicy(
        on_stream_error=args.on_stream_error,
        backpressure=args.backpressure,
        queue_capacity=args.queue_capacity,
        snapshot_every=args.snapshot_every,
        batch_drain=args.batch_drain,
    )

    def stream_config(index: int) -> DetectorConfig:
        # Each stream draws from its own seeded generator so replays are
        # reproducible per stream, not just per run.
        return DetectorConfig(
            tau=args.tau,
            tau_test=args.tau_test,
            score=args.score,
            signature_method=args.signature,
            n_clusters=args.clusters,
            bins=args.bins,
            ground_distance=args.ground_distance,
            history_limit=args.history_limit,
            lr_inspection_index=args.lr_inspection_index,
            weighting=args.weighting,
            n_bootstrap=args.bootstrap,
            alpha=args.alpha,
            random_state=None if args.seed is None else args.seed + index,
        )

    names = [f"stream-{index:02d}" for index in range(args.streams)]
    header = ["stream", "time", "score", "lower", "upper", "gamma", "alert"]
    lines = [",".join(header)]
    with StreamSupervisor(policy=policy, snapshot_dir=args.snapshot_dir) as supervisor:
        for index, name in enumerate(names):
            supervisor.add_stream(name, stream_config(index))
        for position, bag in enumerate(bags):
            supervisor.submit(names[position % args.streams], bag)
        for name, point in supervisor.drain():
            lines.append(
                ",".join(
                    (
                        name,
                        str(point.time),
                        str(point.score),
                        str(point.interval.lower),
                        str(point.interval.upper),
                        str(point.gamma),
                        str(point.alert),
                    )
                )
            )
        metrics = supervisor.metrics
    print(
        "serve-replay: "
        f"streams={metrics['n_streams']} shed={metrics['n_shed']} "
        f"(backpressure={metrics['n_shed_backpressure']} "
        f"quarantined={metrics['n_shed_quarantined']} "
        f"on_close={metrics['n_discarded_on_close']}) "
        f"quarantined={metrics['n_quarantined']} "
        f"restored={metrics['n_restored']} "
        f"degraded_points={metrics['n_degraded_points']} "
        f"snapshots={metrics['n_snapshots_written']}",
        file=sys.stderr,
    )
    output_text = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_text(output_text)
    else:
        sys.stdout.write(output_text)
    return 0


def _load_bags(
    parser: argparse.ArgumentParser, path: Path, time_column: str
) -> Optional[List[np.ndarray]]:
    if not path.exists():
        parser.error(f"input file {path} does not exist")
    if path.suffix.lower() == ".npz":
        return _load_npz(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path, time_column)
    parser.error("input must be a .npz or .csv file")
    return None  # pragma: no cover - parser.error raises


def shard_build_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-detect shard-build``."""
    parser = build_shard_parser()
    args = parser.parse_args(argv)
    bags = _load_bags(parser, args.input, args.time_column)

    config = DetectorConfig(
        tau=args.tau,
        tau_test=args.tau_test,
        signature_method=args.signature,
        n_clusters=args.clusters,
        bins=args.bins,
        ground_distance=args.ground_distance,
        shard_retries=args.retries,
        shard_timeout=args.shard_timeout,
        on_poison_pair=args.on_poison_pair,
        random_state=args.seed,
    )
    signatures = BagChangePointDetector(config).build_signatures(bags)
    plan = ShardPlan.build(len(signatures), config.window_span, args.n_shards)
    orchestrator = ShardOrchestrator(
        plan,
        EngineSettings.from_config(config),
        policy=RetryPolicy.from_config(config),
        mode=args.mode,
        n_workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
    )
    band = orchestrator.run(signatures)

    print(
        f"built band: n={band.n} bandwidth={band.bandwidth} "
        f"pairs={plan.n_pairs} shards={plan.n_shards} "
        f"(computed {orchestrator.n_shards_computed}, "
        f"resumed {orchestrator.n_shards_resumed})",
        file=sys.stderr,
    )
    if orchestrator.n_retries or orchestrator.n_timeouts or orchestrator.n_checkpoints_requeued:
        print(
            f"recovered faults: retries={orchestrator.n_retries} "
            f"timeouts={orchestrator.n_timeouts} "
            f"checkpoints_requeued={orchestrator.n_checkpoints_requeued} "
            f"stragglers_redispatched={orchestrator.n_stragglers_redispatched}",
            file=sys.stderr,
        )
    if orchestrator.quarantine is not None and len(orchestrator.quarantine):
        print(
            f"quarantined pairs: {sorted(orchestrator.quarantine.pair_set())}",
            file=sys.stderr,
        )
    if args.output is not None:
        np.savez(
            args.output,
            band=np.asarray(band.band),
            n=np.array(band.n),
            bandwidth=np.array(band.bandwidth),
            plan_hash=np.array(plan.plan_hash()),
            fingerprint=np.array(orchestrator.settings.fingerprint()),
        )
        print(f"band written to {args.output}", file=sys.stderr)
    return 0


def build_zoo_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``zoo`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-detect zoo",
        description="Run registered detectors on registered datasets through "
        "the estimator facade and emit a comparison table (precision, "
        "recall, F1, mean delay, runtime).",
    )
    parser.add_argument(
        "--detectors", default="all",
        help="comma-separated detector names, or 'all' (default); "
        "see --list for the registry",
    )
    parser.add_argument(
        "--datasets", default="mixture_small",
        help="comma-separated dataset names, or 'all' "
        "(default: mixture_small, the quick smoke stream)",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset generation seed")
    parser.add_argument(
        "--tolerance", type=int, default=5,
        help="a change at c counts as detected by an alarm in "
        "[c - allow_early, c + tolerance]",
    )
    parser.add_argument(
        "--allow-early", type=int, default=0,
        help="steps before the true change an alarm may fire and still match",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the registered detector and dataset names and exit",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the table here instead of stdout",
    )
    return parser


def _split_names(spec: str, known: List[str], kind: str,
                 parser: argparse.ArgumentParser) -> List[str]:
    """Expand a comma-separated name list, validating against the registry."""
    if spec == "all":
        return known
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        parser.error(f"no {kind} selected")
    for name in names:
        if name not in known:
            parser.error(
                f"unknown {kind} {name!r}; registered: {', '.join(known)}"
            )
    return names


def zoo_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-detect zoo``."""
    # Local imports: the zoo pulls in every adapter and generator, which
    # the plain detection run does not need.
    from .api import detector_names, get_detector
    from .datasets.registry import dataset_names, make_dataset
    from .evaluation import match_alarms

    parser = build_zoo_parser()
    args = parser.parse_args(argv)
    if args.list:
        print("detectors:", ", ".join(detector_names()))
        print("datasets:", ", ".join(dataset_names()))
        return 0
    detectors = _split_names(args.detectors, detector_names(), "detector", parser)
    datasets = _split_names(args.datasets, dataset_names(), "dataset", parser)

    header = (
        "dataset", "detector", "changes", "found",
        "precision", "recall", "f1", "delay", "seconds",
    )
    rows: List[tuple] = [header]
    for dataset_name in datasets:
        dataset = make_dataset(dataset_name, random_state=args.seed)
        for detector_name in detectors:
            detector = get_detector(detector_name).create_test_instance()
            started = time.perf_counter()
            try:
                changepoints = detector.fit_predict(dataset.bags)
            except ValidationError as error:
                print(
                    f"zoo: {detector_name} on {dataset_name} skipped: {error}",
                    file=sys.stderr,
                )
                continue
            elapsed = time.perf_counter() - started
            matching = match_alarms(
                changepoints.tolist(),
                dataset.change_points,
                tolerance=args.tolerance,
                allow_early=args.allow_early,
            )
            delay = (
                f"{sum(matching.delays) / len(matching.delays):.1f}"
                if matching.delays else "-"
            )
            rows.append(
                (
                    dataset_name, detector_name,
                    str(len(dataset.change_points)), str(len(changepoints)),
                    f"{matching.precision:.2f}", f"{matching.recall:.2f}",
                    f"{matching.f1:.2f}", delay, f"{elapsed:.2f}",
                )
            )

    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    output_text = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_text(output_text)
    else:
        sys.stdout.write(output_text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-detect`` console script.

    ``repro-detect shard-build …`` dispatches to the sharded band-build
    subcommand, ``repro-detect serve-replay …`` to the streaming-service
    replay, ``repro-detect zoo …`` to the detector-zoo comparison
    harness; anything else is the classic detection run.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "shard-build":
        return shard_build_main(argv[1:])
    if argv and argv[0] == "serve-replay":
        return serve_replay_main(argv[1:])
    if argv and argv[0] == "zoo":
        return zoo_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    bags = _load_bags(parser, args.input, args.time_column)

    config = DetectorConfig(
        tau=args.tau,
        tau_test=args.tau_test,
        score=args.score,
        signature_method=args.signature,
        n_clusters=args.clusters,
        bins=args.bins,
        ground_distance=args.ground_distance,
        parallel_backend=args.parallel,
        n_workers=args.workers,
        n_shards=args.n_shards,
        shard_checkpoint_dir=args.shard_checkpoint_dir,
        shard_retries=args.retries,
        shard_timeout=args.shard_timeout,
        on_poison_pair=args.on_poison_pair,
        history_limit=args.history_limit,
        lr_inspection_index=args.lr_inspection_index,
        weighting=args.weighting,
        n_bootstrap=args.bootstrap,
        alpha=args.alpha,
        random_state=args.seed,
    )
    with BagChangePointDetector(config) as detector:
        result = detector.detect(bags)

    rows = result.to_dict()
    header = ["time", "score", "lower", "upper", "gamma", "alert"]
    lines = [",".join(header)]
    for i in range(len(result)):
        lines.append(
            ",".join(
                str(rows[column][i]) if rows[column][i] is not None else ""
                for column in header
            )
        )
    output_text = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_text(output_text)
    else:
        sys.stdout.write(output_text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

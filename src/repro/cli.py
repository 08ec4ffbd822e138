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
row-block shards and executes them on killable worker processes with
retry/backoff, timeouts, straggler reclaiming (a slow attempt is killed
and its shard re-run) and poison-pair quarantine.  Its product is the
checksummed per-shard checkpoint directory (``--shard-checkpoint-dir``),
stamped with the plan, the solver settings and the input data: a
detection run with the same flags (shard-build takes exactly the detect
run's band-shaping flags) resumes its band from it instead of
recomputing.

Every flag that sets a :class:`~repro.core.DetectorConfig` or
:class:`~repro.service.SupervisorPolicy` field is generated from the
field's metadata (:func:`add_config_args`), and an invalid value exits
with a usage error.

A third mode, ``repro-detect serve-replay``, replays the recorded bags
through the crash-safe streaming service
(:class:`repro.service.StreamSupervisor`): the bags are dealt
round-robin across ``--streams`` named online detector streams running
behind bounded ingest queues, with snapshot/restore (``--snapshot-dir``
/ ``--snapshot-every``), a per-stream fault-isolation policy
(``--on-stream-error``) and a backpressure policy (``--backpressure``).
Each drain round stacks every stream's pending solves into one
cross-stream solve.  Scores are printed as CSV
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
import zipfile
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Collection, List, Optional, Sequence, get_args, get_type_hints

import numpy as np

from .core import BagChangePointDetector, BagSequence, DetectorConfig
from .emd.orchestrator import ShardOrchestrator
from .exceptions import ConfigurationError, ValidationError
from .service import StreamSupervisor, SupervisorPolicy

#: ``DetectorConfig`` fields of the sharded band build.  A stream has no
#: band to shard, so ``serve-replay`` leaves them out.
SHARD_FIELDS = (
    "parallel_backend",
    "n_workers",
    "n_shards",
    "shard_checkpoint_dir",
    "shard_retries",
    "shard_timeout",
    "on_poison_pair",
)
#: The detect run's flags that shape the band: ``shard-build`` takes
#: exactly these, so its checkpoints resume under the same flags.
BAND_FIELDS = (
    "tau",
    "tau_test",
    "signature_method",
    "n_clusters",
    "bins",
    "ground_distance",
    "random_state",
    *SHARD_FIELDS,
)


def _flag_type(hint: Any) -> type:
    """The argparse ``type=`` of a field: the first of ``Path``, ``float``
    and ``int`` in its annotation, else ``str``."""
    members = get_args(hint) or (hint,)
    return next((kind for kind in (Path, float, int) if kind in members), str)


def add_config_args(
    parser: argparse.ArgumentParser, cls: Any, names: Optional[Collection[str]] = None
) -> None:
    """Add one flag per CLI field of the config dataclass ``cls``.

    A field is a flag unless its metadata opts out (``{"cli": False}``);
    ``names`` narrows the flags to those fields.  The flag is
    ``--<field-name>`` unless the metadata names another; ``dest`` is the
    field name, the default the field default, the type taken from the
    annotation and the choices from ``cls.CHOICES`` (or the metadata's
    CLI-only ``choices``).  A ``bool`` field is a ``store_true`` switch.
    """
    hints = get_type_hints(cls)
    for spec in fields(cls):
        if spec.metadata.get("cli") is False or (names is not None and spec.name not in names):
            continue
        flag = spec.metadata.get("flag", "--" + spec.name.replace("_", "-"))
        help_text = spec.metadata["help"]
        if hints[spec.name] is bool:
            parser.add_argument(flag, dest=spec.name, action="store_true", help=help_text)
            continue
        choices = cls.CHOICES.get(spec.name, spec.metadata.get("choices"))
        parser.add_argument(
            flag,
            dest=spec.name,
            type=_flag_type(hints[spec.name]),
            default=spec.default,
            choices=choices,
            metavar=None if choices else flag[2:].replace("-", "_").upper(),
            help=help_text,
        )


def config_from_args(cls: Any, args: argparse.Namespace) -> Any:
    """Build ``cls`` from every field of it that ``args`` carries."""
    return cls(**{spec.name: getattr(args, spec.name) for spec in fields(cls)
                  if hasattr(args, spec.name)})


def _parse_config(parser: argparse.ArgumentParser, cls: Any, args: argparse.Namespace) -> Any:
    """:func:`config_from_args`, with an invalid value a usage error (exit 2)."""
    try:
        return config_from_args(cls, args)
    except ConfigurationError as exc:
        parser.error(str(exc))


def _load_npz(parser: argparse.ArgumentParser, path: Path) -> List[np.ndarray]:
    try:
        # Opened here so an unreadable archive cannot leak the handle.
        with open(path, "rb") as handle, np.load(handle) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile) as exc:
        # TypeError: a bare .npy under an .npz name loads as an array.
        parser.error(f"input file {path} is not a readable .npz archive: {exc}")
    if not arrays:
        raise ValidationError(f"{path} contains no arrays")
    return [np.asarray(arrays[name], dtype=float) for name in sorted(arrays)]


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


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", type=Path, help="input .npz (one array per bag) or long-format .csv")
    parser.add_argument("--time-column", default="time", help="time column name for CSV input")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description="Bag-of-data change-point detection (Koshijima, Hino & Murata).",
    )
    _add_input_args(parser)
    add_config_args(parser, DetectorConfig)
    parser.add_argument("--output", type=Path, default=None, help="write CSV here instead of stdout")
    return parser


def build_shard_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``shard-build`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-detect shard-build",
        description="Sharded, checkpointable build of the banded pairwise-EMD "
        "matrix (the expensive stage of a detection run).  A detect run "
        "with the same flags resumes from --shard-checkpoint-dir.",
    )
    _add_input_args(parser)
    add_config_args(parser, DetectorConfig, BAND_FIELDS)
    parser.set_defaults(n_shards=4, parallel_backend="process")
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
    _add_input_args(parser)
    add_config_args(
        parser,
        DetectorConfig,
        [spec.name for spec in fields(DetectorConfig) if spec.name not in SHARD_FIELDS],
    )
    add_config_args(parser, SupervisorPolicy)
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
    policy: SupervisorPolicy = _parse_config(parser, SupervisorPolicy, args)
    config: DetectorConfig = _parse_config(parser, DetectorConfig, args)
    bags = _load_bags(parser, args.input, args.time_column)

    def stream_config(index: int) -> DetectorConfig:
        # Each stream draws from its own seeded generator so replays are
        # reproducible per stream, not just per run.
        seed = args.random_state
        return replace(config, random_state=None if seed is None else seed + index)

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
        return _load_npz(parser, path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path, time_column)
    parser.error("input must be a .npz or .csv file")
    return None  # pragma: no cover - parser.error raises


def shard_build_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-detect shard-build``."""
    parser = build_shard_parser()
    args = parser.parse_args(argv)
    config: DetectorConfig = _parse_config(parser, DetectorConfig, args)
    bags = _load_bags(parser, args.input, args.time_column)

    with BagChangePointDetector(config) as detector:
        signatures = detector.build_signatures(bags)
    orchestrator = ShardOrchestrator.from_config(config, len(signatures))
    band = orchestrator.run(signatures)
    plan = orchestrator.plan

    print(
        f"built band: n={band.n} bandwidth={band.bandwidth} "
        f"pairs={plan.n_pairs} shards={plan.n_shards} "
        f"(computed {orchestrator.n_shards_computed}, "
        f"resumed {orchestrator.n_shards_resumed})",
        file=sys.stderr,
    )
    if (
        orchestrator.n_retries
        or orchestrator.n_timeouts
        or orchestrator.n_checkpoints_requeued
        or orchestrator.n_stragglers_redispatched
    ):
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
    config: DetectorConfig = _parse_config(parser, DetectorConfig, args)
    bags = _load_bags(parser, args.input, args.time_column)

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

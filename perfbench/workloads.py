"""The benchmark's workloads, run against the library's public API.

Every input is generated from the run's seed; the library only ever sees
bag arrays and a ``DetectorConfig``.  See ``perfbench/README.md`` for why
each workload exists and which metrics it is expected to move.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import BagChangePointDetector, OnlineBagDetector
from repro.core import DetectorConfig
from repro.datasets.registry import make_dataset
from repro.evaluation.metrics import match_alarms
from repro.service import StreamSupervisor, SupervisorPolicy

from .hostspeed import HostClock
from .oracle import band_mismatches, sample_band_pairs
from .stats import highest_percentile
from .tracing import ROUTE_COUNTS, Tracer, layer_metrics

#: Offline workloads: dataset name, bags kept, and the DetectorConfig
#: fields that differ from the default.  The PAMAP simulator's stream
#: length varies with the seed (211 to 255 bags over seeds 0-59), so it is
#: cut to a fixed length: the work per detect() then does not vary with it.
OFFLINE = {
    "mixture_offline": ("mixture", None, {}),
    "pamap_offline": ("pamap", 200, {"parallel_backend": "process", "n_workers": 2}),
}
FLEET = "grid_fleet"

#: Alarm-matching tolerance (bags) for alert_f1.
F1_TOLERANCE = 5
#: Band entries per offline run recomputed by the scipy oracle.
ORACLE_PAIRS = 40
#: Child processes timed per run for setup_s.
SETUP_REPEATS = 5
#: Timed operations per run at least, however long they take: a median
#: of fewer is too noisy on a shared host.
MIN_OPERATIONS = 3

FLEET_STREAMS = 32
FLEET_ROUNDS = 40
FLEET_SNAPSHOT_EVERY = 10
#: Stream s sends its first bag in round s % FLEET_SNAPSHOT_EVERY.  Clients
#: that all started together would snapshot in the same few rounds, and
#: those rounds would be exactly the slowest tenth, putting p90 on the edge
#: between two modes.
FLEET_STAGGER = FLEET_SNAPSHOT_EVERY
FLEET_POINTS = 100
FLEET_SHIFT = 3.0
#: Each stream's change point is drawn from [low, high).
FLEET_CHANGE = (12, 29)
#: One fixed grid shared by every stream, so histogram supports overlap.
FLEET_RANGE = ((-3.0, 6.0), (-3.0, 6.0))
#: Supervised histories must match a bare push loop to this tolerance.
REPLAY_TOLERANCE = 1e-12


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    summary: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str, failures: int = 1) -> None:
        """Record a correctness check; a failed one counts ``failures`` ops."""
        if not ok:
            self.problems.append(problem)
            self.failed += failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Inputs and configurations
# ---------------------------------------------------------------------- #
def offline_config(workload: str, seed: int) -> DetectorConfig:
    return DetectorConfig(random_state=seed, **OFFLINE[workload][2])


def offline_dataset(workload: str, seed: int) -> Tuple[List[np.ndarray], List[int]]:
    """The bags and the change points a detector can see in them."""
    name, length, _ = OFFLINE[workload]
    dataset = make_dataset(name, random_state=seed)
    bags = dataset.bags[:length]
    last = len(bags) - DetectorConfig().tau_test
    return bags, [c for c in dataset.change_points if c <= last]


def fleet_config(seed: int, stream: int) -> DetectorConfig:
    return DetectorConfig(
        signature_method="histogram",
        bins=4,
        histogram_range=FLEET_RANGE,
        emd_backend="linprog_batch",
        random_state=seed * FLEET_STREAMS + stream,
    )


def fleet_streams(seed: int) -> List[Tuple[List[np.ndarray], int]]:
    """Per stream: its bags (one per round) and its change point."""
    streams = []
    for stream in range(FLEET_STREAMS):
        rng = np.random.default_rng([seed, stream])
        change = int(rng.integers(*FLEET_CHANGE))
        bags = [
            rng.normal(FLEET_SHIFT if t >= change else 0.0, 1.0, size=(FLEET_POINTS, 2))
            for t in range(FLEET_ROUNDS)
        ]
        streams.append((bags, change))
    return streams


def make_supervisor(seed: int, snapshot_dir: Path) -> StreamSupervisor:
    supervisor = StreamSupervisor(
        policy=SupervisorPolicy(batch_drain=True, snapshot_every=FLEET_SNAPSHOT_EVERY),
        snapshot_dir=snapshot_dir,
    )
    for stream in range(FLEET_STREAMS):
        supervisor.add_stream(f"s{stream:02d}", fleet_config(seed, stream))
    return supervisor


# ---------------------------------------------------------------------- #
# setup_s: process start to ready for the first bag
# ---------------------------------------------------------------------- #
def setup_ready(workload: str, seed: int, snapshot_dir: str) -> None:
    """Child side of the set-up probe: build the workload's entry object."""
    if workload == FLEET:
        make_supervisor(seed, Path(snapshot_dir))
    else:
        BagChangePointDetector(offline_config(workload, seed))
    print("ready", flush=True)


_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "from perfbench.workloads import setup_ready; "
    "setup_ready(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def measure_setup(workload: str, seed: int, root: Path, scratch: Path) -> List[float]:
    """Normalised time from spawning a fresh interpreter until it reports ready."""
    clock = HostClock()
    raw = []
    for _ in range(SETUP_REPEATS):
        snapshot_dir = tempfile.mkdtemp(dir=scratch)
        argv = [sys.executable, "-c", _PROBE, str(root), str(root / "src"),
                workload, str(seed), snapshot_dir]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        shutil.rmtree(snapshot_dir, ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        raw.append(ready - start)
        clock.tick()
    return [t * clock.scale for t in raw]


# ---------------------------------------------------------------------- #
# Offline workloads: one default-config detect() per operation
# ---------------------------------------------------------------------- #
class _SignatureKeepingDetector(BagChangePointDetector):
    """Keeps the signatures its detect() built, for the oracle check."""

    signatures: Optional[list] = None

    def build_signatures(self, bags: Any) -> list:
        self.signatures = super().build_signatures(bags)
        return self.signatures


def _detect(config: DetectorConfig, bags: list, tracer: Optional[Tracer] = None, group: int = 0):
    """One fresh detector, one detect(); returns (wall seconds, result, detector)."""
    detector = _SignatureKeepingDetector(config)
    root = tracer.root("detect", group) if tracer is not None else contextlib.nullcontext()
    try:
        with root:
            start = time.perf_counter()
            result = detector.detect(bags, return_distance_matrix=True)
            elapsed = time.perf_counter() - start
    finally:
        detector.close()
    return elapsed, result, detector


def _check_band(out: Outcome, config: DetectorConfig, seed: int, detector, result) -> None:
    pairs = sample_band_pairs(
        len(detector.signatures), config.window_span, ORACLE_PAIRS, np.random.default_rng(seed)
    )
    bad = band_mismatches(detector.signatures, result.emd_matrix, pairs)
    out.check(not bad, f"{len(bad)}/{len(pairs)} band entries disagree with the oracle: {bad[:3]}")


def run_offline(workload: str, seed: int, seconds: float) -> Outcome:
    bags, change_points = offline_dataset(workload, seed)
    config = offline_config(workload, seed)
    out = Outcome()
    runs = []
    clock = HostClock()
    start = time.perf_counter()
    while out.attempted < MIN_OPERATIONS or time.perf_counter() - start < seconds:
        out.attempted += 1
        try:
            elapsed, result, detector = _detect(config, bags)
        except Exception as exc:  # a failed operation is counted, not fatal
            out.check(False, f"detect() raised {exc!r}")
            continue
        clock.tick()
        runs.append((elapsed, result, detector))
    rss = peak_rss_mb()
    if not runs:
        return out

    raw = [elapsed for elapsed, _, _ in runs]
    times = [elapsed * clock.scale for elapsed in raw]
    _, first, first_detector = runs[0]
    _check_band(out, config, seed, first_detector, first)
    for _, result, _ in runs[1:]:
        out.check(
            np.array_equal(result.alarm_times, first.alarm_times)
            and np.array_equal(result.emd_matrix, first.emd_matrix, equal_nan=True),
            "repeated detect() with one seed changed its alarms or band",
        )
    n_bags = len(bags)
    latencies = [1e3 * t for t in times for _ in range(n_bags)]
    f1 = match_alarms(first.alarm_times, change_points, tolerance=F1_TOLERANCE).f1
    out.metrics.update(
        detect_s=statistics.median(times),
        stream_bags_per_s=statistics.median(n_bags / t for t in times),
        alert_f1=f1,
        peak_rss_mb=rss,
    )
    _latency_metrics(out, latencies)
    out.summary.append(
        f"{workload}: {len(runs)} detect() of {n_bags} bags, raw wall "
        f"{statistics.median(raw):.3f} s median, {_kernel_note(clock)}; "
        f"alarms {first.alarm_times.tolist()} vs true {change_points}"
    )
    return out


def trace_offline(workload: str, seed: int) -> Tuple[Outcome, List[Tracer]]:
    """One untraced detect(), then two traced ones with the same seed."""
    bags, _ = offline_dataset(workload, seed)
    config = offline_config(workload, seed)
    out = Outcome(attempted=3)
    untraced_s, plain, detector = _detect(config, bags)
    _check_band(out, config, seed, detector, plain)
    tracers, walls, alarms = [], [], []
    for run in range(2):
        with Tracer() as tracer:
            elapsed, result, _ = _detect(config, bags, tracer, run)
        tracers.append(tracer)
        walls.append(elapsed)
        alarms.append(result.alarm_times.tolist())
    for traced in alarms:
        out.check(traced == plain.alarm_times.tolist(), "traced alarms differ from untraced")
    _finish_trace(out, tracers, walls[0] / untraced_s - 1.0)
    out.summary.insert(0, f"{workload}: untraced detect() {untraced_s:.3f} s raw wall")
    return out, tracers


# ---------------------------------------------------------------------- #
# grid_fleet: 32 closed-loop stream clients on one supervisor
# ---------------------------------------------------------------------- #
@dataclass
class Episode:
    """One full replay: every stream's bags, one round at a time."""

    wall_s: float
    latencies_s: List[float]
    failed: int
    histories: Dict[str, Dict[str, np.ndarray]]


def _history_arrays(history) -> Dict[str, np.ndarray]:
    return {
        "times": history.times,
        "scores": history.scores,
        "lower": history.lower,
        "upper": history.upper,
        "gammas": history.gammas,
        "alerts": history.alerts,
    }


def run_episode(
    supervisor: StreamSupervisor,
    streams: List[Tuple[List[np.ndarray], int]],
    tracer: Optional[Tracer] = None,
) -> Episode:
    names = supervisor.stream_names
    latencies: List[float] = []
    failed = 0
    start = time.perf_counter()
    for round_ in range(FLEET_ROUNDS + FLEET_STAGGER - 1):
        root = tracer.root("round", round_) if tracer is not None else contextlib.nullcontext()
        with root:
            submitted = []
            for stream, (name, (bags, _)) in enumerate(zip(names, streams)):
                step = round_ - stream % FLEET_STAGGER
                if not 0 <= step < FLEET_ROUNDS:
                    continue
                sent = time.perf_counter()
                if supervisor.submit(name, bags[step]):
                    submitted.append(sent)
                else:
                    failed += 1
            supervisor.drain()
            done = time.perf_counter()
        latencies.extend(done - sent for sent in submitted)
    wall = time.perf_counter() - start
    # Degraded bags were consumed masked, and a quarantined stream's
    # later submissions were refused above.
    failed += supervisor.n_degraded_points
    histories = {name: _history_arrays(supervisor.detector(name).history) for name in names}
    return Episode(wall, latencies, failed, histories)


def _fleet_episode(seed, streams, scratch: Path, tracer: Optional[Tracer] = None) -> Episode:
    snapshot_dir = Path(tempfile.mkdtemp(dir=scratch))
    supervisor = make_supervisor(seed, snapshot_dir)
    try:
        return run_episode(supervisor, streams, tracer)
    finally:
        supervisor.close()
        shutil.rmtree(snapshot_dir, ignore_errors=True)


def _same_history(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray], atol: float) -> bool:
    if not (np.array_equal(a["times"], b["times"]) and np.array_equal(a["alerts"], b["alerts"])):
        return False
    return all(
        np.allclose(a[key], b[key], rtol=0.0, atol=atol, equal_nan=True)
        for key in ("scores", "lower", "upper", "gammas")
    )


def _check_replay(out: Outcome, seed: int, streams, episode: Episode) -> None:
    """The batched == sequential contract on one seeded stream."""
    stream = seed % FLEET_STREAMS
    bags, _ = streams[stream]
    with OnlineBagDetector(fleet_config(seed, stream)) as detector:
        for bag in bags:
            detector.push(bag)
        replay = _history_arrays(detector.history)
    out.check(
        _same_history(replay, episode.histories[f"s{stream:02d}"], REPLAY_TOLERANCE),
        f"supervised stream s{stream:02d} differs from its bare push() replay",
        failures=FLEET_ROUNDS,
    )


def _fleet_f1(streams, episode: Episode) -> float:
    scores = [
        match_alarms(history["times"][history["alerts"]], [change], tolerance=F1_TOLERANCE).f1
        for history, (_, change) in zip(episode.histories.values(), streams)
    ]
    return float(np.mean(scores))


def _alert_sets(episode: Episode) -> Dict[str, List[int]]:
    return {name: h["times"][h["alerts"]].tolist() for name, h in episode.histories.items()}


def run_fleet(seed: int, seconds: float, scratch: Path) -> Outcome:
    streams = fleet_streams(seed)
    out = Outcome()
    episodes: List[Episode] = []
    bags_per_episode = FLEET_STREAMS * FLEET_ROUNDS
    clock = HostClock()
    start = time.perf_counter()
    while (
        out.attempted < MIN_OPERATIONS * bags_per_episode
        or time.perf_counter() - start < seconds
    ):
        out.attempted += bags_per_episode
        try:
            episode = _fleet_episode(seed, streams, scratch)
        except Exception as exc:  # a failed episode fails all of its bags
            out.check(False, f"fleet episode raised {exc!r}", failures=bags_per_episode)
            continue
        clock.tick()
        out.failed += episode.failed
        episodes.append(episode)
    rss = peak_rss_mb()
    if not episodes:
        return out

    first = episodes[0]
    _check_replay(out, seed, streams, first)
    for episode in episodes[1:]:
        out.check(
            all(
                _same_history(episode.histories[name], first.histories[name], 0.0)
                for name in first.histories
            ),
            "repeated fleet episode with one seed changed a stream's history",
            failures=bags_per_episode,
        )
    out.metrics.update(
        detect_s=statistics.median(e.wall_s for e in episodes) * clock.scale,
        stream_bags_per_s=statistics.median(
            (bags_per_episode - e.failed) / e.wall_s for e in episodes
        ) / clock.scale,
        alert_f1=_fleet_f1(streams, first),
        peak_rss_mb=rss,
    )
    _latency_metrics(out, [1e3 * t * clock.scale for e in episodes for t in e.latencies_s])
    out.summary.append(
        f"{FLEET}: {len(episodes)} episodes of {FLEET_ROUNDS} rounds x {FLEET_STREAMS} streams, "
        f"raw wall {statistics.median(e.wall_s for e in episodes):.3f} s median, "
        f"{_kernel_note(clock)}"
    )
    return out


def trace_fleet(seed: int, scratch: Path) -> Tuple[Outcome, List[Tracer]]:
    """One untraced episode, then two traced ones with the same seed."""
    streams = fleet_streams(seed)
    bags_per_episode = FLEET_STREAMS * FLEET_ROUNDS
    out = Outcome(attempted=3 * bags_per_episode)
    plain = _fleet_episode(seed, streams, scratch)
    out.failed += plain.failed
    _check_replay(out, seed, streams, plain)
    tracers, walls = [], []
    for _ in range(2):
        with Tracer() as tracer:
            episode = _fleet_episode(seed, streams, scratch, tracer)
        tracers.append(tracer)
        walls.append(episode.wall_s)
        out.failed += episode.failed
        out.check(
            _alert_sets(episode) == _alert_sets(plain),
            "traced alarms differ from untraced",
            failures=bags_per_episode,
        )
    _finish_trace(out, tracers, walls[0] / plain.wall_s - 1.0)
    out.summary.insert(
        0, f"{FLEET}: untraced episode {bags_per_episode / plain.wall_s:.1f} bags/s raw wall"
    )
    return out, tracers


# ---------------------------------------------------------------------- #
# Shared reporting
# ---------------------------------------------------------------------- #
def _kernel_note(clock: HostClock) -> str:
    kernel = clock.kernel_times
    return f"calibration kernel {min(kernel):.3f}-{max(kernel):.3f} s over {len(kernel)} runs"


def _latency_metrics(out: Outcome, latencies_ms: List[float]) -> None:
    top = highest_percentile(len(latencies_ms))
    out.metrics["stream_latency_ms_p50"] = float(np.percentile(latencies_ms, 50))
    if top is not None and top >= 90:
        out.metrics["stream_latency_ms_p90"] = float(np.percentile(latencies_ms, 90))
    if top is not None:
        out.summary.append(
            f"latency: {len(latencies_ms)} samples, "
            f"p{top:g}={np.percentile(latencies_ms, top):.1f} ms"
        )


def _finish_trace(out: Outcome, tracers: List[Tracer], overhead: float) -> None:
    layers = [layer_metrics(tracer.spans) for tracer in tracers]
    for key in ROUTE_COUNTS:
        out.check(
            all(layer[key] == layers[0][key] for layer in layers),
            f"route count {key} differs between two traced runs",
        )
    out.metrics.update(layers[0])
    out.metrics["trace.overhead_frac"] = overhead
    first = layers[0]
    out.summary.append(
        f"emd: {first['emd.pairs_per_pair_lp']} of {first['emd.pairs']} pairs on the per-pair LP, "
        f"{first['emd.pairs_batched']} batched, {first['emd.pairs_fast_path']} fast path; "
        f"trace overhead {100 * overhead:+.1f}%"
    )


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, scratch: Path):
    """Run one workload; returns (outcome, tracers)."""
    if trace:
        if workload == FLEET:
            return trace_fleet(seed, scratch)
        return trace_offline(workload, seed)
    setup = measure_setup(workload, seed, root, scratch)
    out = run_fleet(seed, seconds, scratch) if workload == FLEET else run_offline(workload, seed, seconds)
    out.metrics["setup_s"] = statistics.median(setup)
    out.metrics["completed_frac"] = (out.attempted - out.failed) / out.attempted
    return out, []

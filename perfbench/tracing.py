"""Benchmark-owned spans around the public entry point of each layer.

A :class:`Tracer` patches timing wrappers onto the classes (and the one
module function) that form the layer boundaries of the library, records a
:class:`Span` per call — name, start, end, parent span and the id of the
``detect()`` call or drain round it belongs to — and restores the
originals on exit.  Each wrapper also records counts at its boundary,
most of them diffs of the library's own public ``n_*`` counters taken
around the call.  Nothing here runs unless a tracer is installed, so the
untraced benchmark run executes the library untouched.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Public counters of ``PairwiseEMDEngine`` diffed around ``compute_pairs``.
ENGINE_COUNTERS = (
    "n_evaluations",
    "n_fast_path",
    "n_linprog_batched",
    "n_sinkhorn_batched",
    "n_cost_cache_hits",
)

#: Public counters of ``StreamSupervisor`` diffed around ``drain``.
SUPERVISOR_COUNTERS = ("n_shed", "n_quarantined", "n_degraded_points")


@dataclass
class Span:
    """One timed call at a layer boundary."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    group: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it that child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers.

    Use as a context manager; :meth:`root` opens the benchmark's own span
    for one ``detect()`` call or drain round, and every wrapped layer call
    made inside it becomes its descendant.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._group: Optional[int] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------ #
    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent=parent, group=self._group)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, group: int) -> Iterator[Span]:
        """The benchmark's own span around one operation, tagging its subtree."""
        self._group = group
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self._group = None

    # -- patching ------------------------------------------------------- #
    def _patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(*args) if before is not None else None
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                span.counts = after(args, result, state)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public entry point of every layer."""
        import repro.service.supervisor as supervisor_module
        from repro.core.online import OnlineBagDetector
        from repro.core.score_engine import ScoreEngine
        from repro.core.thresholding import AdaptiveThreshold
        from repro.emd.batch import PairwiseEMDEngine
        from repro.emd.orchestrator import ShardOrchestrator
        from repro.service import StreamSupervisor
        from repro.signatures import SignatureBuilder

        def engine_before(engine: Any, *_: Any) -> Dict[str, int]:
            return {c: getattr(engine, c) for c in ENGINE_COUNTERS}

        def engine_after(args: Any, _result: Any, before: Dict[str, int]) -> Dict[str, float]:
            return {c: getattr(args[0], c) - before[c] for c in ENGINE_COUNTERS}

        def orchestrator_after(args: Any, _result: Any, _state: Any) -> Dict[str, float]:
            # run() resets the orchestrator's counters on entry.
            orchestrator = args[0]
            return {
                "shards": orchestrator.n_shards_computed + orchestrator.n_shards_resumed,
                "retries": orchestrator.n_retries,
            }

        def drain_before(supervisor: Any, *_: Any) -> Dict[str, int]:
            state = {c: getattr(supervisor, c) for c in SUPERVISOR_COUNTERS}
            state["queue_depth"] = max(supervisor.metrics["queue_depths"].values(), default=0)
            return state

        def drain_after(args: Any, _result: Any, before: Dict[str, int]) -> Dict[str, float]:
            counts: Dict[str, float] = {
                c: getattr(args[0], c) - before[c] for c in SUPERVISOR_COUNTERS
            }
            counts["queue_depth"] = before["queue_depth"]
            return counts

        self._patch(SignatureBuilder, "build", "signatures")
        self._patch(PairwiseEMDEngine, "compute_pairs", "emd", engine_before, engine_after)
        self._patch(ShardOrchestrator, "run", "orchestrator", after=orchestrator_after)
        self._patch(ScoreEngine, "point_and_interval", "scoring")
        self._patch(
            AdaptiveThreshold,
            "update",
            "threshold",
            after=lambda _a, result, _s: {"alerts": int(bool(result[1]))},
        )
        self._patch(OnlineBagDetector, "prepare", "online.prepare")
        self._patch(OnlineBagDetector, "commit", "online.commit")
        self._patch(StreamSupervisor, "drain", "service.drain", drain_before, drain_after)
        # The supervisor calls the snapshot writer through its own module
        # namespace, so that is the name to patch.
        self._patch(
            supervisor_module,
            "save_stream_snapshot",
            "snapshot",
            after=lambda _a, path, _s: {"bytes": os.path.getsize(path)},
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Reduce spans to the benchmark's per-layer metrics (busy = self time)."""
    own = self_times(spans)
    busy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    queue_depth = 0.0
    for span in spans:
        busy[span.name] = busy.get(span.name, 0.0) + own[span.id]
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            if key == "queue_depth":
                queue_depth = max(queue_depth, value)
            else:
                counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value

    def count(key: str) -> int:
        return int(counts.get(key, 0))

    pairs = count("emd.n_evaluations")
    fast = count("emd.n_fast_path")
    batched = count("emd.n_linprog_batched") + count("emd.n_sinkhorn_batched")
    bags = calls.get("signatures", 0)
    emd_busy = busy.get("emd", 0.0)
    signatures_busy = busy.get("signatures", 0.0)
    return {
        "emd.busy_s": emd_busy,
        "emd.ms_per_pair": 1e3 * emd_busy / pairs if pairs else 0.0,
        "emd.pairs": pairs,
        "emd.pairs_fast_path": fast,
        "emd.pairs_batched": batched,
        "emd.pairs_per_pair_lp": pairs - fast - batched,
        "emd.batched_share": batched / (pairs - fast) if pairs > fast else 0.0,
        "emd.cost_cache_hits": count("emd.n_cost_cache_hits"),
        "emd.calls": calls.get("emd", 0),
        "signatures.busy_s": signatures_busy,
        "signatures.bags": bags,
        "signatures.ms_per_bag": 1e3 * signatures_busy / bags if bags else 0.0,
        "orchestrator.busy_s": busy.get("orchestrator", 0.0),
        "orchestrator.shards": count("orchestrator.shards"),
        "orchestrator.retries": count("orchestrator.retries"),
        "scoring.busy_s": busy.get("scoring", 0.0),
        "scoring.windows": calls.get("scoring", 0),
        "threshold.busy_s": busy.get("threshold", 0.0),
        "threshold.alerts": count("threshold.alerts"),
        "online.prepare_s": busy.get("online.prepare", 0.0),
        "online.commit_s": busy.get("online.commit", 0.0),
        "service.drain_self_s": busy.get("service.drain", 0.0),
        "service.rounds": calls.get("service.drain", 0),
        "service.max_queue_depth": int(queue_depth),
        "service.shed": count("service.drain.n_shed"),
        "service.quarantined": count("service.drain.n_quarantined"),
        "service.degraded": count("service.drain.n_degraded_points"),
        "snapshot.busy_s": busy.get("snapshot", 0.0),
        "snapshot.writes": calls.get("snapshot", 0),
        "snapshot.bytes": count("snapshot.bytes"),
    }


#: Route counts that must repeat exactly between two traced runs of one seed.
ROUTE_COUNTS = (
    "emd.pairs",
    "emd.pairs_fast_path",
    "emd.pairs_batched",
    "emd.pairs_per_pair_lp",
    "emd.cost_cache_hits",
    "emd.calls",
    "signatures.bags",
    "scoring.windows",
    "threshold.alerts",
    "service.rounds",
    "snapshot.writes",
)

"""Deterministic, seeded fault injection for the shard orchestration stack.

Every injector is a context manager that patches
:meth:`repro.emd.batch.PairwiseEMDEngine.compute_pairs` (the one choke
point every shard solve goes through) with a wrapper that fires a
scripted fault and otherwise delegates to the real solver, restoring the
original on exit.  Faults fire on *deterministic* conditions — pair
counts, call predicates, explicit ``times`` budgets, sentinel files for
cross-process counting — never on wall-clock or randomness, so a faulted
test run replays identically every time.

The injectors cover the orchestrator's whole fault matrix:

* :func:`inject_worker_crash` — a worker dying at pair N (an in-process
  :class:`~repro.emd.orchestrator.WorkerCrash` through the inline
  backend, or a hard ``os._exit`` for real worker processes);
* :func:`inject_worker_hang` — a solve that never returns (the inline
  backend reports the attempt as running until the orchestrator kills
  it, as a timeout or as a straggler);
* :func:`inject_transient_solver_error` — a
  :class:`~repro.exceptions.SolverError` without pair context that
  clears after ``times`` firings (the retry/backoff path);
* :func:`inject_poison_pairs` — specific pairs whose presence makes a
  batched solve fail with ``pair_indices`` (the bisection + quarantine
  path), optionally also failing the singleton re-solve and the
  exact-LP rescue;
* :func:`truncate_checkpoint` / :func:`bitflip_checkpoint` /
  :func:`tamper_payload` — on-disk corruption of checkpoints and
  snapshots (unreadable archive, flipped bits, a valid archive whose
  payload no longer matches its checksum);
* :class:`FakeClock` — an injectable clock/sleep pair so timeout and
  straggler behaviour is driven by simulated time.

Because Linux starts worker processes by forking the patched parent,
the ``compute_pairs`` wrappers are inherited by
:class:`~repro.emd.orchestrator.ProcessWorkerBackend` workers too; their
in-memory counters are per-process, so cross-process ``times`` budgets
use sentinel files instead.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..emd.batch import PairwiseEMDEngine
from ..emd.orchestrator import WorkerCrash, WorkerHang
from ..exceptions import SolverError
from ..signatures import Signature

#: A predicate over the pair list of one ``compute_pairs`` call.
PairsPredicate = Callable[[Sequence[Tuple[Signature, Signature]]], bool]


@dataclass
class InjectionLog:
    """Chronological record of the faults an injector actually fired."""

    events: List[str] = field(default_factory=list)

    def record(self, event: str) -> None:
        self.events.append(event)

    def count(self, prefix: str) -> int:
        """How many recorded events start with ``prefix``."""
        return sum(1 for event in self.events if event.startswith(prefix))


class FakeClock:
    """Deterministic monotonic clock + sleep pair for orchestrator tests.

    Time advances only through :meth:`sleep` (called by the orchestrator
    when no attempt makes progress) and :meth:`advance`, so timeout and
    straggler thresholds are crossed by script, not by host load.  Pass
    ``clock=fake`` and ``sleep=fake.sleep`` to the orchestrator.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self.sleeps: List[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(float(seconds))
        self.now += float(seconds)

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


class _FireBudget:
    """``times`` firings, counted in memory or via cross-process sentinels."""

    def __init__(self, times: int, sentinel: Optional[Union[str, Path]]) -> None:
        self.times = int(times)
        self.sentinel = None if sentinel is None else Path(sentinel)
        self.count = 0

    def _marks(self) -> List[Path]:
        assert self.sentinel is not None
        return sorted(self.sentinel.parent.glob(self.sentinel.name + ".fired.*"))

    def should_fire(self) -> bool:
        if self.sentinel is not None:
            return len(self._marks()) < self.times
        return self.count < self.times

    def fire(self) -> int:
        """Record one firing; returns the 1-based firing number."""
        self.count += 1
        if self.sentinel is not None:
            number = len(self._marks()) + 1
            self.sentinel.parent.mkdir(parents=True, exist_ok=True)
            (self.sentinel.parent / f"{self.sentinel.name}.fired.{number}").touch()
            return number
        return self.count


def _always(pairs: Sequence[Tuple[Signature, Signature]]) -> bool:
    return True


def match_first_row(row: int) -> PairsPredicate:
    """Predicate matching the shard whose first pair starts at ``row``.

    Shard pair lists are enumerated row-major, so the first pair's left
    label identifies the shard — handy for targeting one shard's solve.
    """

    def predicate(pairs: Sequence[Tuple[Signature, Signature]]) -> bool:
        return bool(pairs) and pairs[0][0].label == row

    return predicate


@contextmanager
def _patched_compute_pairs(wrapper: Callable[..., Any]) -> Iterator[None]:
    original = PairwiseEMDEngine.compute_pairs
    PairwiseEMDEngine.compute_pairs = wrapper  # type: ignore[method-assign]
    try:
        yield
    finally:
        PairwiseEMDEngine.compute_pairs = original  # type: ignore[method-assign]


@contextmanager
def inject_worker_crash(
    at_pair: int,
    *,
    times: int = 1,
    hard: bool = False,
    sentinel: Optional[Union[str, Path]] = None,
    log: Optional[InjectionLog] = None,
) -> Iterator[InjectionLog]:
    """Kill the worker once the cumulative pair count crosses ``at_pair``.

    ``hard=False`` raises :class:`~repro.emd.orchestrator.WorkerCrash`
    (the inline backend's crash protocol, which the orchestrator treats
    like a real death mid-run);
    ``hard=True`` calls ``os._exit`` — only meaningful inside a real
    worker process, where the parent observes a dead worker with no
    result.  ``sentinel`` names a file used to count firings across
    process boundaries (fork copies in-memory counters).
    """
    log = log if log is not None else InjectionLog()
    budget = _FireBudget(times, sentinel)
    pairs_seen = {"n": 0}
    original = PairwiseEMDEngine.compute_pairs

    def wrapper(
        self: PairwiseEMDEngine, pairs: Sequence[Tuple[Signature, Signature]]
    ) -> np.ndarray:
        if budget.should_fire() and pairs_seen["n"] + len(pairs) > at_pair:
            number = budget.fire()
            log.record(f"crash:{number}:after_pair:{pairs_seen['n']}")
            if hard:
                os._exit(23)
            raise WorkerCrash(f"injected worker crash #{number} at pair {at_pair}")
        pairs_seen["n"] += len(pairs)
        return original(self, pairs)

    with _patched_compute_pairs(wrapper):
        yield log


@contextmanager
def inject_worker_hang(
    *,
    match: Optional[PairsPredicate] = None,
    times: int = 1,
    log: Optional[InjectionLog] = None,
) -> Iterator[InjectionLog]:
    """Make matching solves hang (never return) for ``times`` firings.

    Raises :class:`~repro.emd.orchestrator.WorkerHang`, which the inline
    backend models as an attempt that stays running until the
    orchestrator kills it — the deterministic stand-in for a hung LP
    solve, driving the timeout and straggler-reclaim paths.
    """
    log = log if log is not None else InjectionLog()
    predicate = match if match is not None else _always
    budget = _FireBudget(times, None)
    original = PairwiseEMDEngine.compute_pairs

    def wrapper(
        self: PairwiseEMDEngine, pairs: Sequence[Tuple[Signature, Signature]]
    ) -> np.ndarray:
        if budget.should_fire() and predicate(pairs):
            number = budget.fire()
            log.record(f"hang:{number}")
            raise WorkerHang(f"injected hang #{number}")
        return original(self, pairs)

    with _patched_compute_pairs(wrapper):
        yield log


@contextmanager
def inject_transient_solver_error(
    *,
    times: int = 1,
    match: Optional[PairsPredicate] = None,
    sentinel: Optional[Union[str, Path]] = None,
    log: Optional[InjectionLog] = None,
) -> Iterator[InjectionLog]:
    """Fail matching solves with a context-free ``SolverError``.

    No ``pair_indices`` are attached, so the orchestrator cannot
    quarantine anything — the whole attempt fails and must be retried
    with backoff; after ``times`` firings the fault clears and the
    retry succeeds.
    """
    log = log if log is not None else InjectionLog()
    predicate = match if match is not None else _always
    budget = _FireBudget(times, sentinel)
    original = PairwiseEMDEngine.compute_pairs

    def wrapper(
        self: PairwiseEMDEngine, pairs: Sequence[Tuple[Signature, Signature]]
    ) -> np.ndarray:
        if budget.should_fire() and predicate(pairs):
            number = budget.fire()
            log.record(f"transient:{number}")
            raise SolverError(
                f"injected transient solver failure #{number} of {times}"
            )
        return original(self, pairs)

    with _patched_compute_pairs(wrapper):
        yield log


def _pair_key(sig_a: Signature, sig_b: Signature) -> Tuple[Any, Any]:
    a, b = sig_a.label, sig_b.label
    try:
        return (a, b) if a <= b else (b, a)
    except TypeError:
        return (a, b)


@contextmanager
def inject_poison_pairs(
    poison: Sequence[Tuple[Any, Any]],
    *,
    fail_singleton: bool = False,
    fail_exact: bool = False,
    report: str = "exact",
    log: Optional[InjectionLog] = None,
) -> Iterator[InjectionLog]:
    """Make specific pairs (by signature label) poison batched solves.

    Any ``compute_pairs`` call whose pair list contains a poisoned pair
    fails with :class:`~repro.exceptions.SolverError` carrying
    ``pair_indices``: the poisoned positions when ``report="exact"``, or
    the whole batch when ``report="batch"`` (forcing the orchestrator to
    bisect its way down).  ``fail_singleton`` extends the fault to
    single-pair solves of a poisoned pair (defeating the engine-retry
    rescue) and ``fail_exact`` also fails the per-pair exact-LP rescue —
    with both set, the pair can only end up quarantined.
    """
    if report not in ("exact", "batch"):
        raise ValueError(f"report must be 'exact' or 'batch', got {report!r}")
    log = log if log is not None else InjectionLog()
    keys: Set[Tuple[Any, Any]] = set()
    for a, b in poison:
        keys.add((a, b))
        keys.add((b, a))
    original = PairwiseEMDEngine.compute_pairs

    def wrapper(
        self: PairwiseEMDEngine, pairs: Sequence[Tuple[Signature, Signature]]
    ) -> np.ndarray:
        positions = [
            k for k, (a, b) in enumerate(pairs) if (a.label, b.label) in keys
        ]
        if positions and (len(pairs) > 1 or fail_singleton):
            reported = (
                tuple(positions) if report == "exact" else tuple(range(len(pairs)))
            )
            log.record(f"poison:batch_of_{len(pairs)}:positions:{positions}")
            raise SolverError(
                f"injected poison pair(s) at batch positions {positions}",
                pair_indices=reported,
            )
        return original(self, pairs)

    from ..emd import orchestrator as orchestrator_module

    original_emd = orchestrator_module.emd

    def emd_wrapper(
        sig_a: Signature, sig_b: Signature, **kwargs: Any
    ) -> float:
        if (sig_a.label, sig_b.label) in keys:
            log.record(f"poison:exact_lp:{_pair_key(sig_a, sig_b)}")
            raise SolverError(
                f"injected exact-LP failure for pair {_pair_key(sig_a, sig_b)}"
            )
        return original_emd(sig_a, sig_b, **kwargs)

    if fail_exact:
        orchestrator_module.emd = emd_wrapper  # type: ignore[assignment]
    try:
        with _patched_compute_pairs(wrapper):
            yield log
    finally:
        if fail_exact:
            orchestrator_module.emd = original_emd  # type: ignore[assignment]


# ---------------------------------------------------------------------- #
# Checkpoint corruption
# ---------------------------------------------------------------------- #
def truncate_checkpoint(path: Union[str, Path], *, keep_fraction: float = 0.5) -> None:
    """Cut a checkpoint file short, as a crash mid-copy would."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(f"keep_fraction must lie in [0, 1), got {keep_fraction}")
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep_fraction)])


def bitflip_checkpoint(
    path: Union[str, Path], *, seed: int = 0, n_bits: int = 1
) -> None:
    """Flip ``n_bits`` seeded-random bits in a checkpoint file."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    rng = np.random.default_rng(seed)
    for _ in range(n_bits):
        index = int(rng.integers(len(data)))
        data[index] ^= 1 << int(rng.integers(8))
    path.write_bytes(bytes(data))


def tamper_payload(path: Union[str, Path], *, key: str, delta: float = 1.0) -> None:
    """Rewrite one payload array of a stamped file, keeping its stamps.

    The archive — a shard checkpoint (``key="values"``) or a stream
    snapshot (e.g. ``key="window_matrix"``) — stays perfectly readable
    and keeps its recorded format version, stamps and checksum, but the
    first element of the named payload array silently differs: the
    corruption class only the sha256 payload checksum of
    :func:`repro._artifacts.load_stamped` can catch, since the zip
    layer's own CRC is recomputed by the rewrite.
    """
    path = Path(path)
    # Deliberately skips checksum/fingerprint validation: this *writes*
    # the corruption the validating loader must catch.
    with np.load(path, allow_pickle=False) as archive:  # reprolint: disable=RL007
        entries = {name: np.asarray(archive[name]) for name in archive.files}
    if key not in entries:
        raise ValueError(f"{path} has no payload array {key!r}")
    values = np.asarray(entries[key], dtype=float).copy()
    if values.size == 0:
        raise ValueError(f"{path} holds no {key!r} values; nothing to tamper with")
    values.flat[0] += delta
    entries[key] = values
    with open(path, "wb") as handle:
        np.savez(handle, **entries)

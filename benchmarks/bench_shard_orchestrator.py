"""Benchmark: fault-tolerant orchestration overhead and recovery cost.

The orchestrator (:mod:`repro.emd.orchestrator`) wraps the sharded band
build in a retry/backoff work queue with straggler reclaiming (a slow
attempt is killed and its shard re-run), poison-pair quarantine and
checkpoint validation.  All of that machinery must be close to free when
nothing goes wrong, and recovery from faults must terminate with the
*same band* the unfaulted build produces — the whole point of
deterministic fault injection is that this is checkable at 1e-12, not
just "looks plausible".

Sections:

* **overhead** — the same band built by a plain per-shard serial loop
  (one engine solve per shard, then :func:`merge_shards`) and by the
  :class:`ShardOrchestrator` (serial mode, no faults); the enforced gate
  is that orchestration adds at most ``--overhead`` relative wall-clock
  (default 25%), with a 1e-12 parity gate.  The baseline solves shard by
  shard like the orchestrator does: the whole-band engine stacks pairs
  across shards and is faster for that reason alone, which would make
  the gate measure batching instead of orchestration;
* **recovery** — the orchestrated build re-run under four injected
  fault classes (worker crash, transient solver error, poison pair in
  degraded mode, and one hung attempt under the default policy, which
  sets no ``shard_timeout``), each measured against the unfaulted
  orchestrated build; every recovered band must match the unfaulted
  band at 1e-12 wherever both are finite, the poison run must mask
  exactly the quarantined entry, and the hung attempt must be reclaimed
  as a straggler.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_shard_orchestrator.py          # full
    PYTHONPATH=src python benchmarks/bench_shard_orchestrator.py --quick  # CI smoke

In full mode the script exits non-zero if orchestration overhead exceeds
``--overhead``.  The parity and masking gates apply in both modes — a
recovery path that changes solved values is a bug, not a trade-off.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.emd import (
    EngineSettings,
    PairwiseEMDEngine,
    RetryPolicy,
    ShardOrchestrator,
    ShardPlan,
    merge_shards,
)
from repro.emd.sharding import _compute_shard_values
from repro.testing import (
    inject_poison_pairs,
    inject_transient_solver_error,
    inject_worker_crash,
    inject_worker_hang,
    match_first_row,
)

PARITY_TOL = 1e-12


def make_signatures(n_bags, side, seed):
    """Histogram signatures on a shared grid (the paper's bag encoding)."""
    rng = np.random.default_rng(seed)
    from repro.signatures import SignatureBuilder

    bags = [rng.normal(0.0, 1.0, size=(40, 2)) for _ in range(n_bags)]
    builder = SignatureBuilder("histogram", bins=side, histogram_range=(-4.0, 4.0))
    return builder.build_sequence(bags)


def timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def make_orchestrator(plan, policy=None):
    return ShardOrchestrator(
        plan, EngineSettings(), policy=policy, mode="serial", n_workers=4
    )


def per_shard_loop(plan, settings, signatures):
    """Baseline: every shard solved in turn on one serial engine, then merged."""
    by_row = dict(enumerate(signatures))
    with settings.make_engine() as engine:
        values = {
            spec.shard_id: _compute_shard_values(engine, by_row, plan, spec.shard_id)
            for spec in plan.shards
        }
    return merge_shards(plan, values)


def band_parity(band, reference):
    """Max |band - reference| over entries finite in both."""
    both = np.isfinite(band.band) & np.isfinite(reference.band)
    return float(np.max(np.abs(band.band[both] - reference.band[both])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bags", type=int, default=80, help="sequence length")
    parser.add_argument("--bandwidth", type=int, default=10, help="band width tau + tau'")
    parser.add_argument("--side", type=int, default=5, help="histogram grid side")
    parser.add_argument("--n-shards", type=int, default=8, help="row-block shard count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--overhead", type=float, default=0.25,
        help="maximum allowed relative orchestration overhead in full mode",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem for CI smoke runs; reports but does not enforce "
        "the overhead gate (the 1e-12 parity gates still apply)",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the key numbers as machine-readable JSON",
    )
    args = parser.parse_args(argv)

    n_bags = 24 if args.quick else args.bags
    bandwidth = 6 if args.quick else args.bandwidth
    n_shards = 4 if args.quick else args.n_shards

    signatures = make_signatures(n_bags, args.side, args.seed)
    plan = ShardPlan.build(n_bags, bandwidth, n_shards)
    settings = EngineSettings()

    # ------------------------------------------------------------------ #
    # Overhead section: plain per-shard loop vs orchestrator, no faults.
    # ------------------------------------------------------------------ #
    serial_time, reference = timed(
        lambda: PairwiseEMDEngine().banded_matrix(signatures, bandwidth)
    )
    loop_time, loop_band = timed(
        lambda: per_shard_loop(plan, settings, signatures)
    )
    orch_time, orch_band = timed(
        lambda: make_orchestrator(plan).run(signatures)
    )

    loop_diff = band_parity(loop_band, reference)
    orch_diff = band_parity(orch_band, reference)
    overhead = (orch_time - loop_time) / loop_time if loop_time > 0 else 0.0

    print(
        f"\noverhead: {plan.n_pairs} band pairs ({n_bags} bags, width "
        f"{bandwidth}), {plan.n_shards} shards, serial workers"
    )
    print(f"{'method':<22}{'seconds':>10}{'vs serial':>12}")
    for label, elapsed in (
        ("serial engine", serial_time),
        ("per-shard loop", loop_time),
        ("orchestrator", orch_time),
    ):
        vs_serial = serial_time / elapsed if elapsed > 0 else float("inf")
        print(f"{label:<22}{elapsed:>10.3f}{vs_serial:>11.2f}x")
    print(f"orchestration overhead vs loop   = {overhead * 100:+.1f}%")
    print(f"max band |loop - serial|         = {loop_diff:.2e}")
    print(f"max band |orchestrator - serial| = {orch_diff:.2e}")

    # ------------------------------------------------------------------ #
    # Recovery section: the same build under four injected fault
    # classes, all driven to completion by the retry/quarantine queue.
    # ------------------------------------------------------------------ #
    kill_at = plan.n_pairs // 2
    rows, cols = plan.pair_indices(1)
    poison_key = (signatures[rows[0]].label, signatures[cols[0]].label)

    recovery = {}

    orch = make_orchestrator(plan)
    with inject_worker_crash(at_pair=kill_at, times=1):
        crash_time, crash_band = timed(lambda: orch.run(signatures))
    recovery["crash"] = {
        "seconds": crash_time,
        "retries": orch.n_retries,
        "parity": band_parity(crash_band, orch_band),
        "n_masked": 0,
    }

    orch = make_orchestrator(plan)
    with inject_transient_solver_error(times=2):
        transient_time, transient_band = timed(lambda: orch.run(signatures))
    recovery["transient"] = {
        "seconds": transient_time,
        "retries": orch.n_retries,
        "parity": band_parity(transient_band, orch_band),
        "n_masked": 0,
    }

    orch = make_orchestrator(
        plan, policy=RetryPolicy(on_poison_pair="degraded", poison_retries=0)
    )
    import warnings

    with inject_poison_pairs([poison_key], fail_singleton=True, fail_exact=True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            poison_time, poison_band = timed(lambda: orch.run(signatures))
    n_masked = int(
        np.sum(np.isnan(poison_band.band) & np.isfinite(orch_band.band))
    )
    recovery["poison-degraded"] = {
        "seconds": poison_time,
        "retries": orch.n_retries,
        "parity": band_parity(poison_band, orch_band),
        "n_masked": n_masked,
    }

    # No shard_timeout: only straggler reclaiming can rescue the build.
    orch = make_orchestrator(plan)
    last_row = plan.shards[-1].row_start
    with inject_worker_hang(times=1, match=match_first_row(last_row)):
        hang_time, hang_band = timed(lambda: orch.run(signatures))
    recovery["hang"] = {
        "seconds": hang_time,
        "retries": orch.n_retries,
        "parity": band_parity(hang_band, orch_band),
        "n_masked": int(np.sum(np.isnan(hang_band.band) & np.isfinite(orch_band.band))),
        "stragglers_redispatched": orch.n_stragglers_redispatched,
    }

    print("\nrecovery: faulted orchestrated builds vs the unfaulted build")
    print(
        f"{'fault':<18}{'seconds':>10}{'vs clean':>10}{'retries':>9}"
        f"{'reclaimed':>11}{'masked':>8}{'parity':>11}"
    )
    for label, stats in recovery.items():
        slowdown = stats["seconds"] / orch_time if orch_time > 0 else float("inf")
        print(
            f"{label:<18}{stats['seconds']:>10.3f}{slowdown:>9.2f}x"
            f"{stats['retries']:>9d}{stats.get('stragglers_redispatched', 0):>11d}"
            f"{stats['n_masked']:>8d}{stats['parity']:>11.2e}"
        )

    max_diff = max(
        loop_diff, orch_diff, *(stats["parity"] for stats in recovery.values())
    )
    parity_ok = max_diff <= PARITY_TOL
    masking_ok = (
        recovery["crash"]["n_masked"] == 0
        and recovery["transient"]["n_masked"] == 0
        and recovery["poison-degraded"]["n_masked"] == 1
        and recovery["hang"]["n_masked"] == 0
    )
    recovered_ok = (
        recovery["crash"]["retries"] >= 1
        and recovery["transient"]["retries"] >= 1
        and recovery["hang"]["stragglers_redispatched"] >= 1
    )
    enforce = not args.quick
    overhead_ok = args.quick or overhead <= args.overhead

    from conftest import write_benchmark_json

    write_benchmark_json(
        args.json,
        "shard_orchestrator",
        {
            "n_bags": n_bags,
            "bandwidth": bandwidth,
            "n_pairs": plan.n_pairs,
            "n_shards": plan.n_shards,
            "serial_seconds": serial_time,
            "loop_seconds": loop_time,
            "orchestrator_seconds": orch_time,
            "orchestration_overhead": overhead,
            "recovery": recovery,
            "max_parity_diff": max_diff,
            "overhead_limit": args.overhead,
            "overhead_enforced": enforce,
        },
        passed=parity_ok and masking_ok and recovered_ok and overhead_ok,
    )

    if not parity_ok:
        print(f"FAIL: recovered band disagrees by {max_diff:.2e} > {PARITY_TOL:.0e}")
        return 1
    if not masking_ok:
        print(
            "FAIL: masking mismatch — crash/transient/hang recovery must mask "
            f"nothing and poison-degraded exactly one entry, got "
            f"{recovery['crash']['n_masked']}/{recovery['transient']['n_masked']}"
            f"/{recovery['hang']['n_masked']}"
            f"/{recovery['poison-degraded']['n_masked']}"
        )
        return 1
    if not recovered_ok:
        print(
            "FAIL: injected faults were not absorbed by the retry queue "
            "or the hung attempt was not reclaimed as a straggler"
        )
        return 1
    if not overhead_ok:
        print(
            f"FAIL: orchestration overhead {overhead * 100:+.1f}% exceeds "
            f"{args.overhead * 100:.0f}%"
        )
        return 1
    print(
        f"OK: orchestration overhead {overhead * 100:+.1f}%, all four fault "
        f"classes recovered to {max_diff:.2e} parity"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mixture_offline --seed 0 --seconds 20 --trace 0

Human-readable summary lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the workload once untraced and twice traced and reports the
per-layer metrics, writing the recorded spans under ``perfbench/_out/``.
The program is imported from ``src/`` of the checkout; the script exits
with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
WORKLOADS = ("mixture_offline", "pamap_offline", "grid_fleet")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # Import the package from this checkout, never from an installed copy.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        outcome, tracers = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if tracers:
        path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(
            json.dumps([[vars(span) for span in tracer.spans] for tracer in tracers])
        )
        outcome.summary.append(f"spans written to {path.relative_to(ROOT)}")

    # Units come from BENCHMARK.json, and every declared metric must appear.
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name in outcome.metrics:
            metrics[name] = {"value": outcome.metrics[name], "unit": metric["unit"]}
        else:
            outcome.problems.append(f"metric {name} was not measured")
    for line in outcome.summary:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

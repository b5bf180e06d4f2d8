#!/usr/bin/env python3
"""The measurement spine's command line.

Two ways in, one harness:

``python -m benchmarks.spine [--seed 1] [--reps 5] [--workloads a,b]
[--traced] [--smoke] [--out FILE]``
    Measure workloads with a fixed repetition count, print every metric
    by name with its unit, and exit non-zero on any failed check.
    ``--compare A.json B.json`` judges two such result files.

``python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S
--trace 0|1``
    The ``BENCHMARK.json`` contract: measure one workload for about S
    seconds and print one JSON object as the last line of stdout — the
    end-to-end metrics (``--trace 0``) or the per-layer ones
    (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.spine import harness  # noqa: E402
from benchmarks.spine.compare import compare  # noqa: E402


def contract_run(args, contract: dict) -> int:
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        print(f"unknown workload: {args.workload}", file=sys.stderr)
        return 2
    result = harness.measure(args.workload, args.seed, contract,
                             seconds=args.seconds, traced=bool(args.trace))
    print(harness.render(args.workload, result))
    if args.trace:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in contract["end_to_end"]}
    correct = not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def package_run(args, contract: dict) -> int:
    known = [w["name"] for w in contract["workloads"]]
    names = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown workloads: {unknown} (known: {known})", file=sys.stderr)
        return 2
    reps = args.reps or (1 if args.smoke else 5)
    out = {
        "meta": dict(harness.environment(), seed=args.seed, reps=reps,
                     smoke=args.smoke, traced=args.traced),
        "workloads": {},
    }
    failed = False
    for name in names:
        result = harness.measure(name, args.seed, contract, smoke=args.smoke,
                                 reps=reps, traced=args.traced)
        out["workloads"][name] = result
        failed |= bool(result["failures"])
        print(harness.render(name, result), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.spine", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per workload (default 5; 1 with --smoke)")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced repetition: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/64-size workloads, one repetition, checks on")
    parser.add_argument("--out", metavar="FILE", help="write results as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    contract = parser.add_argument_group("BENCHMARK.json contract")
    contract.add_argument("--workload")
    contract.add_argument("--seconds", type=float)
    contract.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload and args.seconds is None:
        parser.error("--workload needs --seconds")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        spec = harness.load_contract()
        if args.compare:
            return compare(*args.compare, spec)
        if args.workload:
            return contract_run(args, spec)
        return package_run(args, spec)
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

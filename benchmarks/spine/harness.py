"""The parent: spawn repetitions, check them, aggregate medians.

Closed loop, one workload at a time, one child process per repetition.
This module never imports the program; only the children do.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]

#: Simulated results: identical in every repetition of one seed, so two
#: result files compare by equality, not by a bound.  name -> unit.
EXACT_METRICS = {
    "sim_req_per_cycle": "req/cycle",
    "failed_frac": "fraction",
    "table1_speedup_err_pct": "%",
}

#: Reported beside the end-to-end metrics, never judged: calibration
#: seconds ÷ reference.  Host times are divided by it, so a raw time is
#: the reported one × this.
DRIFT = "machine_drift"

#: Repetitions a time-budgeted run makes at least.
MIN_REPS = 3

#: A child that runs longer than this is a hang, not a slow machine
#: (the longest, serve128_armed traced with its paired run, takes ~10 s).
CHILD_TIMEOUT_S = 90


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spawn(name: str, seed: int, smoke: bool, traced: bool) -> dict:
    """Run one repetition in a fresh interpreter; its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, "-m", "benchmarks.spine.child",
           "--workload", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--traced")
    # Stamped last: set-up time starts here.
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name}: repetition exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list, unit: str) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"unit": unit, "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values}


def measure(name: str, seed: int, contract: dict, smoke: bool = False,
            reps: Optional[int] = None, seconds: Optional[float] = None,
            traced: bool = False) -> dict:
    """Measure one workload: *reps* repetitions, or as many as finish
    within *seconds* (at least ``MIN_REPS``), plus one traced
    repetition first when *traced*."""
    started = time.monotonic()
    trace = spawn(name, seed, smoke, traced=True) if traced else None
    runs: list = []

    def enough() -> bool:
        if reps is not None:
            return len(runs) >= reps
        if len(runs) < MIN_REPS:
            return False
        # Start only a repetition that should end inside the budget.
        spent = time.monotonic() - started
        return spent + spent / (len(runs) + (trace is not None)) > seconds

    while not enough():
        runs.append(spawn(name, seed, smoke, traced=False))

    failures = [f"rep {i}: {what}" for i, r in enumerate(runs)
                for what in r["failures"]]
    for key in ("sim_fingerprint", "sim_cycles", "completed"):
        if len({r[key] for r in runs}) != 1:
            failures.append(f"{key} differs between repetitions")
    if trace is not None:
        failures += [f"traced rep: {what}" for what in trace["failures"]]
        if trace["sim_fingerprint"] != runs[0]["sim_fingerprint"]:
            failures.append("traced repetition changed sim_fingerprint")

    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    units.update(EXACT_METRICS)
    units[DRIFT] = "ratio"
    # Host seconds are drift-corrected: each repetition's times are
    # divided by the machine-speed reading taken around its timed region.
    series = {
        "req_per_s": [r["completed"] * r["drift"] / r["wall_s"] for r in runs],
        "setup_s": [r["setup_s"] / r["drift"] for r in runs],
        DRIFT: [r["drift"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "sim_req_per_cycle": [r["completed"] / r["sim_cycles"] for r in runs],
        "failed_frac": [r["failed"] / r["attempted"] for r in runs],
    }
    for extra in runs[0]["extra"]:
        series[extra] = [r["extra"][extra] for r in runs]
    result = {
        "sizes": runs[0]["sizes"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": {k: summarize(v, units[k]) for k, v in series.items()},
        "sim_fingerprint": runs[0]["sim_fingerprint"],
        "failures": failures,
    }
    if trace is not None:
        layers = dict(trace["layers"], **trace["extra"])
        # Per-layer seconds are raw; this says how fast the machine was.
        layers["harness.calib_s"] = trace["calib_s"]
        layers["harness.trace_overhead_frac"] = (
            trace["wall_s"] / trace["drift"]
            / statistics.median(r["wall_s"] / r["drift"] for r in runs) - 1.0
        )
        declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
        undeclared = sorted(set(layers) - set(declared))
        if undeclared:
            failures.append(f"per-layer metrics not in BENCHMARK.json: {undeclared}")
        # A layer the workload never enters reads 0.
        result["per_layer"] = {
            k: {"unit": unit, "value": layers.get(k, 0)}
            for k, unit in declared.items()
        }
    return result


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def render(name: str, result: dict) -> str:
    lines = [f"{name}  {result['sizes']}"]
    for metric, s in result["end_to_end"].items():
        lines.append(
            f"  {metric:<24} {s['median']:>14.6g} {s['unit']:<10}"
            f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n {s['n']}"
        )
    lines.append(f"  sim_fingerprint          {result['sim_fingerprint']}")
    layers = result.get("per_layer", {})
    for metric, s in layers.items():
        if s["value"]:
            lines.append(f"  {metric:<36} {s['value']:>14.6g} {s['unit']}")
    if layers:
        zeros = sum(1 for s in layers.values() if not s["value"])
        lines.append(f"  ({zeros} per-layer metrics read 0: counts that stayed 0 "
                     "and layers this workload never enters)")
    if result["failures"]:
        lines += [f"  CHECK FAILED: {what}" for what in result["failures"]]
    else:
        lines.append("  checks: ok")
    return "\n".join(lines)

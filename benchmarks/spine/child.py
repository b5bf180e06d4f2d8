"""One repetition, in a fresh single-threaded interpreter.

A fresh process per repetition because the simulator keeps process-
global state (the ``_packet_serial`` counter, the ``ARENA`` packet pool)
that would otherwise carry over and change trace bytes, and because
``ru_maxrss`` is a per-process high-water mark.

Prints one JSON object on the last line of stdout; the parent
(:mod:`benchmarks.spine.harness`) aggregates them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter


#: Seconds :func:`calibrate` takes on the 2-core box this was written on
#: at its quiet speed; the unit drift-corrected times are expressed in.
CALIB_REF_S = 0.2


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (integer arithmetic, dict and
    list churn, small allocations): the machine-speed reading taken right
    before and right after every timed region."""
    t = perf_counter()
    x = 1
    table = {}
    ring = []
    for i in range(750_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 4095] = [i, x]
        ring.append((i, x))
        if len(ring) > 512:
            del ring[:256]
    return perf_counter() - t


def derive(layers: dict, wall_s: float) -> dict:
    """Ratios and self-time attribution from the summed spans and counts."""
    def ratio(num, den):
        return num / den if den else 0.0

    out = dict(layers)
    out["host.send_accept_frac"] = ratio(
        out.pop("_host.sent", 0), out.get("host.send_calls", 0))
    out["core.clock.us_per_tick"] = 1e6 * ratio(
        out.get("core.clock.tick_s", 0.0), out.get("core.clock.ticks", 0))
    issued = out.get("core.vault.issued", 0)
    out["core.vault.issue_frac"] = ratio(
        issued, issued + out.get("core.vault.conflicts", 0))
    transmissions = out.get("faults.transmissions", 0)
    out["faults.retry_frac"] = ratio(
        transmissions - out.pop("_faults.packets", 0), transmissions)
    # Top-level spans under the timed region; everything else nests in
    # them.  Where clock() has no span (serve) the stage buckets stand in.
    attributed = (
        out.get("host.send_s", 0.0)
        + out.get("host.drain_s", 0.0)
        + max(out.get("core.clock.tick_s", 0.0),
              out.pop("_core.clock.staged_s", 0.0))
        + out.get("workloads.gen_s", 0.0)
        + out.get("core.checkpoint.epoch_overhead_s", 0.0)
        + out.pop("_service.spinup_total_s", 0.0)
    )
    out["harness.attributed_frac"] = ratio(attributed, wall_s)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() before the spawn")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    # Importing the program is part of set-up, so it happens here.
    from repro.packets.arena import ARENA

    from benchmarks.spine import probes, workloads

    size = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[
        args.workload]
    arena_before = ARENA.stats()
    calib_before = calibrate()
    rep = workloads.run(args.workload, args.seed, size, args.traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calib_s = (calib_before + calibrate()) / 2
    arena_after = ARENA.stats()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": size,
        "traced": args.traced,
        "wall_s": rep.wall_s,
        # The calibration loop is the harness's, not the program's.
        "setup_s": rep.t_start - args.t0 - calib_before,
        "calib_s": calib_s,
        "drift": calib_s / CALIB_REF_S,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rep.attempted,
        "completed": rep.completed,
        "failed": min(rep.failed, rep.attempted),
        "sim_cycles": rep.sim_cycles,
        "sim_fingerprint": rep.fingerprint,
        "failures": rep.failures,
        "extra": rep.extra,
    }
    if args.traced:
        workload = workloads.WORKLOADS[args.workload]
        layers = dict(rep.layers)
        layers["core.clock.sim_cycles"] = rep.sim_cycles
        for key in ("pooled_builds", "fresh_builds"):
            layers[f"packets.arena_{key}"] = arena_after[key] - arena_before[key]
        if workload.ablation_metric:
            paired = workloads.run(args.workload, args.seed, size,
                                   traced=True, ablate=True)
            layers[workload.ablation_metric] = rep.wall_s - paired.wall_s
        gen_s, requests = probes.generation(workload.stream(args.seed, size))
        layers["workloads.gen_s"] = gen_s
        layers["workloads.requests"] = len(requests)
        layers.update(probes.packets(requests))
        layers.update(probes.bank(rep.probe_sim, requests))
        if workload.checkpoint_probe:
            layers.update(probes.checkpoint(rep.probe_sim))
        out["layers"] = derive(layers, rep.wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

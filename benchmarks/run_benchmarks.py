#!/usr/bin/env python
"""Benchmark runner: scheduler equivalence and loaded-path throughput.

Four scenario suites, selected with ``--suite``:

``engine`` (default)
    The Table I random-access configurations plus the clock-engine
    scenarios (idle stepping, think-time pointer chase, chained drain)
    under both schedulers — writes ``BENCH_clock_engine.json``.

``loaded``
    The loaded-path suite: Table I configurations untraced and with
    full STANDARD-mask tracing into a binary sink plus online stats —
    the workloads the packet fast path, incremental conflict tracking
    and batched trace pipeline target — writes
    ``BENCH_loaded_path.json``.

``hotcore``
    The flat-hot-core suite: the untraced Table I configurations with
    packets/sec and packet-arena allocation counters (pooled vs fresh
    builds) captured around each timed window — writes
    ``BENCH_hot_core.json``.

``service``
    The disaggregated memory service suite: warm vs cold shard spin-up
    latency, and multi-tenant ``serve`` throughput at 1 / 16 / 128
    tenants under both schedulers — writes ``BENCH_service.json``.

Every scenario runs under both schedulers and asserts cycle-count
equivalence (the bit-identical contract that
tests/test_scheduler_equivalence.py enforces in depth).

Regression gate: ``--compare <baseline.json>`` re-reads a previous
report and exits non-zero when any matching (scenario, scheduler)
throughput regressed more than the wall-clock noise threshold.  The
threshold is per-suite (service runs are noisier than single-process
engine loops) with ``--compare-threshold`` overriding; a *cycle-count* mismatch against the baseline is a hard
failure at any threshold — wall time is noisy, simulated time never
is.  ``--baseline <baseline.json>`` embeds a previous report's numbers
and per-scenario speedups into the output instead of gating.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke    # CI
    PYTHONPATH=src python benchmarks/run_benchmarks.py --suite loaded
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke \
        --compare /tmp/prev.json
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.tables import PAPER_CONFIGS  # noqa: E402
from repro.core.config import DeviceConfig, SimConfig  # noqa: E402
from repro.core.simulator import HMCSim  # noqa: E402
from repro.host.host import Host  # noqa: E402
from repro.packets.commands import CMD  # noqa: E402
from repro.packets.packet import build_memrequest  # noqa: E402
from repro.topology.builder import build_chain  # noqa: E402
from repro.trace.binfmt import BinarySink  # noqa: E402
from repro.trace.events import EventType  # noqa: E402
from repro.trace.stats import TraceStats  # noqa: E402
from repro.trace.tracer import StatsSink  # noqa: E402
from repro.workloads.pointer_chase import pointer_chase_run  # noqa: E402
from repro.workloads.random_access import (  # noqa: E402
    RandomAccessConfig,
    random_access_requests,
    run_random_access,
)

SCHEDULERS = ("naive", "active")

# Wall-clock noise tolerance for the --compare gate, per suite.  The
# engine/loaded suites are tight single-process loops; the service
# suite adds checkpoint/pickle costs that wobble much more on shared
# hosts.  --compare-threshold overrides all of these.
SUITE_COMPARE_THRESHOLDS = {
    "engine": 0.10,
    "loaded": 0.10,
    "hotcore": 0.10,
    "service": 0.25,
}


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _timed(fn, repeat: int = 1):
    """Run *fn* *repeat* times; returns (best wall seconds, cycles).

    Min-of-N because shared/virtualised hosts show double-digit-percent
    wall-time noise; the minimum is the least-perturbed sample.  Cycle
    counts must agree across repeats (the simulator is deterministic).
    """
    best = None
    cycles = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        c = fn()
        wall = time.perf_counter() - t0
        if cycles is None:
            cycles = c
        elif c != cycles:
            raise AssertionError(f"non-deterministic cycle count: {c} != {cycles}")
        if best is None or wall < best:
            best = wall
    return best, cycles


# ----------------------------------------------------------------------
# Scenarios.  Each returns total simulated cycles so the runner can
# assert scheduler equivalence.
# ----------------------------------------------------------------------

def _table1_scenario(label: str, device: DeviceConfig, num_requests: int):
    def run(scheduler: str) -> int:
        scfg = SimConfig(device=device, scheduler=scheduler)
        result = run_random_access(
            device, RandomAccessConfig(num_requests=num_requests),
            sim_config=scfg,
        )
        return result.cycles

    return run


def _idle_scenario(cycles: int):
    """Pure idle stepping: the fast-forward best case."""

    def run(scheduler: str) -> int:
        scfg = SimConfig(
            device=DeviceConfig(num_links=4, num_banks=8, capacity=2),
            scheduler=scheduler,
        )
        sim = HMCSim(scfg)
        sim.attach_host(0, 0)
        sim.run(cycles)
        return sim.clock_value

    return run


def _pointer_chase_scenario(hops: int, think_cycles: int):
    """Dependent loads with host think time (latency-bound pattern)."""

    def run(scheduler: str) -> int:
        scfg = SimConfig(
            device=DeviceConfig(num_links=4, num_banks=8, capacity=2),
            scheduler=scheduler,
        )
        sim = HMCSim(scfg)
        for link in range(4):
            sim.attach_host(0, link)
        host = Host(sim)
        pointer_chase_run(
            sim, host, num_nodes=256, hops=hops, think_cycles=think_cycles
        )
        return sim.clock_value

    return run


def _chained_drain_scenario(num_devs: int, num_requests: int):
    """Pre-loaded chain drained to quiescence via clock_until."""

    def run(scheduler: str) -> int:
        scfg = SimConfig(
            device=DeviceConfig(num_links=4, num_banks=8, capacity=2),
            num_devs=num_devs,
            scheduler=scheduler,
        )
        sim = HMCSim(scfg)
        build_chain(sim, host_links=1)
        for i in range(num_requests):
            pkt = build_memrequest(
                i % num_devs, (i * 977 % 4096) * 64, i % 512, CMD.RD64, link=0
            )
            while not sim.try_send(pkt):
                sim.clock()
                sim.recv_all()

        # The predicate drains host-visible responses each cycle (the
        # host-link response queue is finite; an undrained host would
        # back-pressure the chain and never quiesce).
        def drained_and_quiescent(s):
            s.recv_all()
            return s.is_quiescent

        sim.clock_until(drained_and_quiescent, max_cycles=100_000)
        return sim.clock_value

    return run


def _table1_fulltrace_scenario(label: str, device: DeviceConfig, num_requests: int):
    """Table I run with full STANDARD-mask tracing to binary + stats.

    The heaviest realistic trace configuration: every request/stall/
    conflict event is serialised to the binary stream AND aggregated
    online — the workload the batched trace pipeline targets.
    """

    def run(scheduler: str) -> int:
        scfg = SimConfig(device=device, scheduler=scheduler)
        sim = HMCSim(scfg)
        for link in range(device.num_links):
            sim.attach_host(0, link)
        sim.set_trace_mask(EventType.STANDARD)
        buf = io.BytesIO()
        sink = sim.add_trace_sink(BinarySink(buf, num_vaults=device.num_vaults))
        stats = TraceStats(num_vaults=device.num_vaults)
        sim.add_trace_sink(StatsSink(stats))
        host = Host(sim)
        cfg = RandomAccessConfig(num_requests=num_requests)
        res = host.run(random_access_requests(device.capacity_bytes, cfg), cub=0)
        if sink.records != stats.events_seen:
            raise AssertionError(
                f"sink/stats divergence: {sink.records} binary records vs "
                f"{stats.events_seen} aggregated events"
            )
        return res.cycles

    return run


def build_scenarios(smoke: bool):
    reqs = 256 if smoke else 8192
    scenarios = []
    for label, device in PAPER_CONFIGS.items():
        scenarios.append(
            (f"table1_random_access[{label}]", _table1_scenario(label, device, reqs))
        )
    scenarios.append(
        ("idle_clock", _idle_scenario(10_000 if smoke else 1_000_000))
    )
    scenarios.append(
        (
            "pointer_chase_think200",
            _pointer_chase_scenario(
                hops=64 if smoke else 512, think_cycles=200
            ),
        )
    )
    scenarios.append(
        ("chained_drain", _chained_drain_scenario(4, 64 if smoke else 256))
    )
    return scenarios


def build_loaded_scenarios(smoke: bool):
    """Loaded-path suite: Table I untraced and fully traced."""
    reqs = 256 if smoke else 8192
    scenarios = []
    for label, device in PAPER_CONFIGS.items():
        scenarios.append(
            (f"loaded_notrace[{label}]", _table1_scenario(label, device, reqs))
        )
    for label, device in PAPER_CONFIGS.items():
        scenarios.append(
            (f"loaded_fulltrace[{label}]",
             _table1_fulltrace_scenario(label, device, reqs))
        )
    return scenarios


def _service_config(smoke: bool, **overrides):
    from repro.service import ServiceConfig

    base = dict(
        device=DeviceConfig(num_links=4, num_banks=8, capacity=2),
        devs_per_shard=2,
        slots_per_shard=2,
        max_shards=4,
        provision_requests=64 if smoke else 512,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def run_service_suite(smoke: bool, repeat: int, report: dict) -> int:
    """Service suite: spin-up latency and multi-tenant throughput.

    Returns the number of scheduler-equivalence failures.  Rows carry
    ``requests_per_sec`` (the headline service metric) alongside the
    standard ``cycles_per_sec`` so the ``--compare`` gate applies.
    """
    from repro.service import MemoryService, SessionPool, specs_from_profiles
    from repro.workloads.mixes import tenant_mix_profiles

    # -- spin-up: warm (checkpoint restore) vs cold (rebuild + provision)
    pool = SessionPool(_service_config(smoke))
    pool.template_blob()  # template built once; excluded from warm cost
    samples = 3 if smoke else 10
    for _ in range(samples):
        pool.spin_up("warm")[0].free()
        pool.spin_up("cold")[0].free()
    warm_ms = min(pool.stats.warm_ms)
    cold_ms = min(pool.stats.cold_ms)
    report["spin_up"] = {
        "samples": samples,
        "provision_requests": pool.config.provision_requests,
        "template_ms": round(pool.stats.template_ms, 3),
        "warm_ms": round(warm_ms, 3),
        "cold_ms": round(cold_ms, 3),
        "warm_speedup": round(cold_ms / warm_ms, 2) if warm_ms else None,
    }
    print(
        f"{'spin_up_warm_vs_cold':42s} warm {warm_ms:8.2f}ms  "
        f"cold {cold_ms:8.2f}ms  speedup {report['spin_up']['warm_speedup']}x"
    )

    # -- serve throughput at 1 / 16 / 128 tenants, both schedulers.
    failures = 0
    base_requests = 8 if smoke else 64
    for tenants in (1, 16, 128):
        row = {"name": f"service_tenants[{tenants}]", "runs": {}}
        cycles_seen = {}
        for sched in SCHEDULERS:
            cfg = _service_config(smoke, scheduler=sched)
            profiles = tenant_mix_profiles(
                tenants, seed=1, base_requests=base_requests
            )
            state = {}

            def run_once(cfg=cfg, profiles=profiles, state=state):
                service = MemoryService(cfg)
                rep = service.serve_sync(specs_from_profiles(profiles, cfg))
                failed = [k for k, ok in rep["consistency"].items()
                          if k.endswith("_match") and not ok]
                if failed:
                    raise AssertionError(f"consistency failed: {failed}")
                state["report"] = rep
                return sum(s["sim_cycles"] for s in rep["shards"])

            wall, cycles = _timed(run_once, repeat)
            cycles_seen[sched] = cycles
            totals = state["report"]["accounting"]["totals"]
            row["runs"][sched] = {
                "wall_s": round(wall, 4),
                "cycles": cycles,
                "cycles_per_sec": round(cycles / wall, 1) if wall else None,
                "requests": totals["requests_sent"],
                "requests_per_sec": (
                    round(totals["requests_sent"] / wall, 1) if wall else None
                ),
            }
        row["cycles_match"] = len(set(cycles_seen.values())) == 1
        if not row["cycles_match"]:
            failures += 1
            print(f"FAIL {row['name']}: scheduler cycle mismatch {cycles_seen}",
                  file=sys.stderr)
        naive_w = row["runs"]["naive"]["wall_s"]
        active_w = row["runs"]["active"]["wall_s"]
        row["speedup_active_vs_naive"] = (
            round(naive_w / active_w, 2) if active_w else None
        )
        report["scenarios"].append(row)
        print(
            f"{row['name']:42s} naive {naive_w:8.3f}s  active {active_w:8.3f}s  "
            f"req/s {row['runs']['active']['requests_per_sec']:,}  "
            f"cycles={cycles_seen['active']}"
        )

    # -- resilience: armed-but-idle overhead and recovery cost per crash.
    from repro.faults.chaos import ChaosEvent, ChaosSchedule

    # Mirror the CLI's --chaos auto-arm defaults (serve --chaos).
    armed_knobs = dict(checkpoint_interval=256, failover_retries=2,
                       breaker_threshold=3)
    campaign = ChaosSchedule([
        ChaosEvent(at=40, kind="shard_crash", shard=0),
        ChaosEvent(at=90, kind="watchdog_trip", shard=0),
        ChaosEvent(at=140, kind="shard_crash", shard=0),
    ])
    chaos_tenants = 16

    def serve_once(state, **overrides):
        cfg = _service_config(smoke, **overrides)
        profiles = tenant_mix_profiles(
            chaos_tenants, seed=1, base_requests=base_requests
        )
        service = MemoryService(cfg)
        rep = service.serve_sync(specs_from_profiles(profiles, cfg))
        failed = [k for k, ok in rep["consistency"].items()
                  if k.endswith("_match") and not ok]
        if failed:
            raise AssertionError(f"consistency failed: {failed}")
        if not rep["audit"]["ok"]:
            raise AssertionError(f"audit failed: {rep['audit']['violations']}")
        state["report"] = rep
        return sum(s["sim_cycles"] for s in rep["shards"])

    variants = (
        ("service_resilience[disarmed]", {}),
        ("service_resilience[armed_idle]", dict(armed_knobs)),
        ("service_resilience[chaos_3crash]",
         dict(armed_knobs, chaos=campaign)),
    )
    walls = {}
    for name, overrides in variants:
        state = {}
        wall, cycles = _timed(
            lambda state=state, overrides=overrides:
                serve_once(state, **overrides),
            repeat,
        )
        walls[name] = wall
        rep = state["report"]
        totals = rep["accounting"]["totals"]
        row = {
            "name": name,
            "runs": {
                "active": {
                    "wall_s": round(wall, 4),
                    "cycles": cycles,
                    "cycles_per_sec":
                        round(cycles / wall, 1) if wall else None,
                    "requests": totals["requests_sent"],
                }
            },
        }
        rec = rep.get("recovery", {})
        if rec.get("crashes"):
            row["crashes"] = rec["crashes"]
            row["recoveries"] = rec["recoveries"]
            row["failovers"] = rec["failovers"]
            row["replayed_requests"] = rec["replayed_requests"]
            # Recovery cost per crash: wall time beyond the armed
            # fault-free run, split across the campaign's crashes.
            idle_wall = walls["service_resilience[armed_idle]"]
            row["recovery_cost_ms_per_crash"] = round(
                max(0.0, wall - idle_wall) * 1000.0 / rec["crashes"], 3
            )
        report["scenarios"].append(row)
        extra = ""
        if "crashes" in row:
            extra = (f"  crashes={row['crashes']} "
                     f"recoveries={row['recoveries']} "
                     f"cost {row['recovery_cost_ms_per_crash']:.1f}ms/crash")
        print(f"{name:42s} active {wall:8.3f}s  cycles={cycles}{extra}")
    disarmed_w = walls["service_resilience[disarmed]"]
    armed_w = walls["service_resilience[armed_idle]"]
    report["armed_overhead"] = round(
        armed_w / disarmed_w, 3
    ) if disarmed_w else None
    print(f"{'service_armed_overhead':42s} "
          f"{report['armed_overhead']}x (armed-idle vs disarmed wall)")
    return failures


def run_hotcore_suite(smoke: bool, repeat: int, report: dict) -> int:
    """Flat-hot-core suite: loaded Table I plus allocation accounting.

    The untraced Table I configurations (the packet arena + paged bank
    storage's target workload) under both schedulers, with packets/sec
    and the arena's allocation counters captured around each timed
    window — ``pooled_builds`` vs ``fresh_builds`` shows how much
    construction traffic the arena absorbed (a healthy steady state is
    ~100% pooled).  Returns the number of equivalence failures.
    """
    from repro.packets.arena import ARENA

    reqs = 256 if smoke else 8192
    failures = 0
    for label, device in PAPER_CONFIGS.items():
        row = {"name": f"hotcore_notrace[{label}]", "runs": {}}
        cycles_seen = {}
        for sched in SCHEDULERS:
            state = {}

            def run_once(device=device, sched=sched, state=state):
                scfg = SimConfig(device=device, scheduler=sched)
                sim = HMCSim(scfg)
                for link in range(device.num_links):
                    sim.attach_host(0, link)
                host = Host(sim)
                cfg = RandomAccessConfig(num_requests=reqs)
                before = ARENA.stats()
                res = host.run(
                    random_access_requests(device.capacity_bytes, cfg), cub=0
                )
                after = ARENA.stats()
                state["packets"] = sim.packets_sent + sim.packets_received
                state["arena_before"] = before
                state["arena_after"] = after
                return res.cycles

            wall, cycles = _timed(run_once, repeat)
            cycles_seen[sched] = cycles
            before = state["arena_before"]
            after = state["arena_after"]
            pooled = after["pooled_builds"] - before["pooled_builds"]
            fresh = after["fresh_builds"] - before["fresh_builds"]
            released = after["released"] - before["released"]
            packets = state["packets"]
            row["runs"][sched] = {
                "wall_s": round(wall, 4),
                "cycles": cycles,
                "cycles_per_sec": round(cycles / wall, 1) if wall else None,
                "packets": packets,
                "packets_per_sec": round(packets / wall, 1) if wall else None,
                "arena": {
                    "pooled_builds": pooled,
                    "fresh_builds": fresh,
                    "released": released,
                    "pooled_fraction": (
                        round(pooled / (pooled + fresh), 4)
                        if pooled + fresh else None
                    ),
                },
            }
        row["cycles_match"] = len(set(cycles_seen.values())) == 1
        if not row["cycles_match"]:
            failures += 1
            print(f"FAIL {row['name']}: scheduler cycle mismatch {cycles_seen}",
                  file=sys.stderr)
        naive_w = row["runs"]["naive"]["wall_s"]
        active_w = row["runs"]["active"]["wall_s"]
        row["speedup_active_vs_naive"] = (
            round(naive_w / active_w, 2) if active_w else None
        )
        arena = row["runs"]["active"]["arena"]
        report["scenarios"].append(row)
        print(
            f"{row['name']:42s} naive {naive_w:8.3f}s  active {active_w:8.3f}s  "
            f"pkt/s {row['runs']['active']['packets_per_sec']:,.0f}  "
            f"pooled {arena['pooled_fraction']:.0%}  "
            f"cycles={cycles_seen['active']}"
        )
    return failures


def _compare_reports(report: dict, baseline: dict, threshold: float):
    """Compare against a baseline report.

    Returns ``(regressions, cycle_mismatches)``: regressions are
    (scenario, run) pairs slower than baseline by more than *threshold*
    (fractional cycles/sec drop); cycle mismatches are pairs whose
    simulated cycle count changed at all.  The caller treats the latter
    as a hard failure at any threshold — wall time is noisy, simulated
    time never is.
    """
    base_rows = {r["name"]: r for r in baseline.get("scenarios", [])}
    regressions = 0
    cycle_mismatches = 0
    for row in report["scenarios"]:
        base = base_rows.get(row["name"])
        if base is None:
            continue
        for sched, run in row["runs"].items():
            bres = base.get("runs", {}).get(sched)
            if not bres:
                continue
            cur_cycles = run.get("cycles")
            base_cycles = bres.get("cycles")
            if (cur_cycles is not None and base_cycles is not None
                    and cur_cycles != base_cycles):
                cycle_mismatches += 1
                print(
                    f"CYCLE MISMATCH {row['name']} [{sched}]: baseline "
                    f"{base_cycles} -> {cur_cycles} simulated cycles",
                    file=sys.stderr,
                )
            cur_cps = run.get("cycles_per_sec")
            base_cps = bres.get("cycles_per_sec")
            if not cur_cps or not base_cps:
                continue
            drop = 1.0 - cur_cps / base_cps
            if drop > threshold:
                regressions += 1
                print(
                    f"REGRESSION {row['name']} [{sched}]: "
                    f"{base_cps:,.0f} -> {cur_cps:,.0f} cycles/sec "
                    f"({drop:.0%} slower, threshold {threshold:.0%})",
                    file=sys.stderr,
                )
    return regressions, cycle_mismatches


def _embed_baseline(report: dict, baseline: dict) -> None:
    """Attach baseline numbers and per-scheduler speedups to the report."""
    report["baseline_git_rev"] = baseline.get("git_rev", "unknown")
    base_rows = {r["name"]: r for r in baseline.get("scenarios", [])}
    for row in report["scenarios"]:
        base = base_rows.get(row["name"])
        if base is None:
            continue
        row["baseline"] = base.get("runs", {})
        speedups = {}
        for sched, run in row["runs"].items():
            bres = base.get("runs", {}).get(sched)
            if bres and run.get("wall_s") and bres.get("wall_s"):
                speedups[sched] = round(bres["wall_s"] / run["wall_s"], 2)
        row["speedup_vs_baseline"] = speedups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--smoke", action="store_true",
        help="small request counts for CI (seconds, not minutes)",
    )
    ap.add_argument(
        "--suite",
        choices=("engine", "loaded", "hotcore", "service"),
        default="engine",
        help="scenario suite: clock-engine set, loaded-path "
        "(traced/untraced Table I) set, the flat-hot-core set (untraced "
        "Table I with packet/allocation accounting), or the multi-tenant "
        "service set",
    )
    ap.add_argument(
        "--out", type=Path, default=None,
        help="output JSON path (default: BENCH_<suite>.json at the repo "
        "root)",
    )
    ap.add_argument(
        "--repeat", type=int, default=None,
        help="samples per (scenario, scheduler); wall time is the best "
        "sample (default: 3 full, 1 smoke)",
    )
    ap.add_argument(
        "--compare", type=Path, default=None,
        help="previous report JSON; exit non-zero when any matching "
        "scenario's throughput regressed beyond the threshold",
    )
    ap.add_argument(
        "--compare-threshold", type=float, default=None,
        help="fractional cycles/sec drop that counts as a regression "
        "for --compare (default: per-suite, 10%% for engine/loaded, "
        "higher for the noisier service suite; cycle-count "
        "mismatches fail at any threshold)",
    )
    ap.add_argument(
        "--baseline", type=Path, default=None,
        help="previous report JSON to embed (baseline numbers plus "
        "speedup_vs_baseline per scenario) without gating",
    )
    args = ap.parse_args(argv)
    repeat = args.repeat if args.repeat is not None else (1 if args.smoke else 3)
    threshold = (
        args.compare_threshold if args.compare_threshold is not None
        else SUITE_COMPARE_THRESHOLDS[args.suite]
    )
    if args.out is None:
        args.out = REPO_ROOT / {
            "engine": "BENCH_clock_engine.json",
            "loaded": "BENCH_loaded_path.json",
            "hotcore": "BENCH_hot_core.json",
            "service": "BENCH_service.json",
        }[args.suite]

    report = {
        "benchmark": {
            "engine": "clock_engine",
            "loaded": "loaded_path",
            "hotcore": "hot_core",
            "service": "service",
        }[args.suite],
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": args.smoke,
        "repeat": repeat,
        "generated_unix": int(time.time()),
        "scenarios": [],
    }
    if args.suite == "service":
        failures = run_service_suite(args.smoke, repeat, report)
    elif args.suite == "hotcore":
        failures = run_hotcore_suite(args.smoke, repeat, report)
    else:
        scenarios = (
            build_loaded_scenarios(args.smoke) if args.suite == "loaded"
            else build_scenarios(args.smoke)
        )
        failures = 0
        for name, scenario in scenarios:
            row = {"name": name, "runs": {}}
            cycles_seen = {}
            for sched in SCHEDULERS:
                wall, cycles = _timed(lambda s=sched: scenario(s), repeat)
                cycles_seen[sched] = cycles
                row["runs"][sched] = {
                    "wall_s": round(wall, 4),
                    "cycles": cycles,
                    "cycles_per_sec": round(cycles / wall, 1) if wall else None,
                }
            row["cycles_match"] = len(set(cycles_seen.values())) == 1
            if not row["cycles_match"]:
                failures += 1
                print(f"FAIL {name}: scheduler cycle mismatch {cycles_seen}",
                      file=sys.stderr)
            naive_w = row["runs"]["naive"]["wall_s"]
            active_w = row["runs"]["active"]["wall_s"]
            row["speedup_active_vs_naive"] = (
                round(naive_w / active_w, 2) if active_w else None
            )
            report["scenarios"].append(row)
            print(
                f"{name:42s} naive {naive_w:8.3f}s  active {active_w:8.3f}s  "
                f"speedup {row['speedup_active_vs_naive']}x  "
                f"cycles={cycles_seen['active']}"
            )

    if args.baseline is not None:
        _embed_baseline(report, json.loads(args.baseline.read_text()))
        for row in report["scenarios"]:
            sp = row.get("speedup_vs_baseline")
            if sp:
                print(f"{row['name']:42s} speedup vs baseline: {sp}")

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        print(f"{failures} scenario(s) broke run equivalence",
              file=sys.stderr)
        return 1
    if args.compare is not None:
        regressions, cycle_mismatches = _compare_reports(
            report, json.loads(args.compare.read_text()), threshold
        )
        if cycle_mismatches:
            print(f"{cycle_mismatches} simulated-cycle mismatch(es) vs "
                  f"baseline (hard failure)", file=sys.stderr)
            return 1
        if regressions:
            print(f"{regressions} throughput regression(s) beyond "
                  f"{threshold:.0%}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

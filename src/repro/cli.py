"""Command-line interface: ``python -m repro <command>``.

Exposes the evaluation harness and common utilities without writing any
Python:

* ``table1`` — regenerate Table I (scaled request count);
* ``fig5`` — regenerate the Figure 5 series for one configuration;
* ``topology`` — build and diagnose a Figure 1 topology;
* ``bandwidth`` — delivered-vs-raw bandwidth for a random-access run;
* ``faults`` — drive traffic through a noisy link and report recovery;
* ``replay`` — replay a flat ``R/W <hex-addr> [size]`` address trace;
* ``ras`` — in-DRAM reliability sweep (fault rate × scrub interval);
* ``serve`` — multi-tenant disaggregated memory service run;
* ``tenants`` — render per-tenant accounting from a ``serve`` report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import bandwidth as bw
from repro.analysis.figures import run_figure5
from repro.analysis.latency import LatencyDistribution, render as render_latency
from repro.analysis.report import render_figure5_summary, render_table1
from repro.analysis.tables import run_table1
from repro.core.config import DeviceConfig, PAPER_CONFIGS, paper_config_pairs
from repro.core.errors import InitError
from repro.core.simulator import HMCSim
from repro.host.host import Host, LinkPolicy
from repro.topology import builder as topo
from repro.topology.route import host_distance
from repro.topology.validate import diagnose
from repro.workloads.random_access import RandomAccessConfig, random_access_requests


def _device_from_args(args) -> DeviceConfig:
    return DeviceConfig(
        num_links=args.links, num_banks=args.banks, capacity=args.capacity
    )


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"want a positive integer, got {text!r}")
    return int(text)


def _add_device_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--links", type=int, default=4, choices=(4, 8))
    p.add_argument("--banks", type=int, default=8, choices=(8, 16))
    p.add_argument("--capacity", type=int, default=2, help="GB (power of two)")
    p.add_argument("--requests", type=_positive_int, default=4096)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--stats-json", type=str, default=None,
                   help="write the full statistics tree to this file")


def _add_link_fault_args(p: argparse.ArgumentParser) -> None:
    """In-band link fault / watchdog knobs shared by workload runners."""
    p.add_argument("--link-ber", type=float, default=0.0,
                   help="per-bit error rate on every configured link")
    p.add_argument("--link-drop-rate", type=float, default=0.0,
                   help="whole-packet drop probability on every link")
    p.add_argument("--link-seed", type=int, default=1,
                   help="seed for the per-link fault RNGs")
    p.add_argument("--watchdog-cycles", type=int, default=0,
                   help="abort when no forward progress for this many "
                        "cycles (0 = watchdog off)")


def _add_profile_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", action="store_true",
                   help="attach the engine profiler and print per-stage "
                        "wall time plus allocation statistics "
                        "(tracemalloc top sites) after the run")
    p.add_argument("--profile-alloc-top", type=int, default=10,
                   metavar="N",
                   help="number of allocation sites the --profile "
                        "summary lists (default 10)")


def _maybe_profile(args, sim):
    if getattr(args, "profile", False):
        from repro.analysis.profiling import attach

        return attach(
            sim,
            allocations=True,
            top_n=getattr(args, "profile_alloc_top", 10),
        )
    return None


def _print_profile(prof, sim) -> None:
    if prof is not None:
        from repro.analysis.profiling import render as render_profile

        print(render_profile(prof, sim.engine.stage_counts))


def _link_fault_kwargs(args) -> dict:
    """SimConfig keyword overrides from the link-fault CLI flags."""
    kw = {}
    if getattr(args, "link_ber", 0.0):
        kw["link_ber"] = args.link_ber
    if getattr(args, "link_drop_rate", 0.0):
        kw["link_drop_rate"] = args.link_drop_rate
    if getattr(args, "link_seed", 1) != 1:
        kw["link_seed"] = args.link_seed
    if getattr(args, "watchdog_cycles", 0):
        kw["watchdog_cycles"] = args.watchdog_cycles
    return kw


def _run_guarded(host, stream, sim, cub: int = 0):
    """Drive the host loop, converting typed engine aborts into a
    diagnostic dump plus a nonzero exit instead of a traceback."""
    from repro.core.errors import LinkDeadError, WatchdogError

    try:
        return host.run(stream, cub=cub), 0
    except (LinkDeadError, WatchdogError) as exc:
        import json

        kind = "watchdog" if isinstance(exc, WatchdogError) else "link failure"
        print(f"aborted ({kind}): {exc}", file=sys.stderr)
        print(json.dumps(exc.report, indent=2, default=str), file=sys.stderr)
        return None, 3


def _print_link_fault_summary(sim) -> None:
    faults = sim.stats().get("link_faults")
    if not faults:
        return
    print("in-band link fault summary:")
    for key, st in sorted(faults.items()):
        print(f"  {key}: health={st['health']} "
              f"tx={st['transmissions']:,} crc={st['crc_failures']:,} "
              f"drops={st['drops']:,} irtry={st['irtry_events']:,} "
              f"recovered={st['recovered']:,} "
              f"recovery_cycles={st['recovery_cycles']:,}")
    if sim.link_failures or sim.watchdog_trips:
        print(f"  link_failures={sim.link_failures} "
              f"watchdog_trips={sim.watchdog_trips}")


def _maybe_dump(args, sim) -> None:
    if getattr(args, "stats_json", None):
        from repro.analysis.statdump import to_json

        with open(args.stats_json, "w") as fh:
            fh.write(to_json(sim))
        print(f"wrote statistics tree to {args.stats_json}")


def cmd_table1(args) -> int:
    rows = run_table1(num_requests=args.requests, seed=args.seed)
    print(render_table1(rows, num_requests=args.requests))
    return 0


def cmd_fig5(args) -> int:
    device = _device_from_args(args)
    data = run_figure5(device, RandomAccessConfig(num_requests=args.requests,
                                                  seed=args.seed))
    print(render_figure5_summary(data))
    res = data.result
    print(f"\nsimulated runtime: {res.cycles:,} cycles "
          f"({res.requests_per_cycle:.2f} req/cycle, "
          f"{res.requests_per_sec:,.0f} req/sec wall-clock)")
    return 0


def cmd_topology(args) -> int:
    builders = {
        "simple": lambda s: topo.build_simple(s),
        "chain": lambda s: topo.build_chain(s),
        "ring": lambda s: topo.build_ring(s),
        "mesh": lambda s: topo.build_mesh(s),
        "torus": lambda s: topo.build_torus_2d(s),
    }
    sim = HMCSim(num_devs=args.devices, num_links=args.links,
                 num_banks=args.banks, capacity=args.capacity)
    builders[args.shape](sim)
    try:
        distances = host_distance(sim)
    except ImportError as exc:  # networkx is a dev extra
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = diagnose(sim)
    print(f"{args.shape}: {rep.num_devices} devices, "
          f"{rep.chain_links} chain links, {rep.host_links} host links, "
          f"ok={rep.ok}")
    for dev, dist in sorted(distances.items()):
        print(f"  cube {dev}: {dist} hop(s) from the host")
    for warning in rep.warnings:
        print(f"  warning: {warning}")
    return 0 if rep.ok else 1


def cmd_bandwidth(args) -> int:
    device = _device_from_args(args)
    sim = topo.build_simple(HMCSim(
        num_devs=1, num_links=device.num_links,
        num_banks=device.num_banks, capacity=device.capacity,
        **_link_fault_kwargs(args)))
    host = Host(sim)
    prof = _maybe_profile(args, sim)
    cfg = RandomAccessConfig(num_requests=args.requests, seed=args.seed)
    import time

    wall_start = time.perf_counter()
    res, rc = _run_guarded(
        host, random_access_requests(device.capacity_bytes, cfg), sim)
    wall = time.perf_counter() - wall_start
    if res is None:
        _maybe_dump(args, sim)
        return rc
    report = bw.measure(sim, cycle_ghz=args.ghz)
    print(bw.render(report))
    dist = LatencyDistribution.from_samples(res.latencies)
    print(render_latency(dist))
    from repro.analysis.energy import estimate, render as render_energy

    print(render_energy(estimate(sim)))
    print(f"host throughput: {res.requests_sent / wall:,.0f} requests/sec "
          f"(wall-clock, {wall:.2f}s)")
    _print_profile(prof, sim)
    _print_link_fault_summary(sim)
    _maybe_dump(args, sim)
    return 0


def cmd_faults(args) -> int:
    # The fault states ride every link of a chain of --devices cubes
    # (one cube: one noisy host link); retries, degradation and the
    # watchdog all consume simulated cycles inside the engine.
    device = _device_from_args(args)
    cfg = RandomAccessConfig(num_requests=args.requests, seed=args.seed)
    sim = topo.build_chain(HMCSim(
        num_devs=args.devices, num_links=args.links,
        num_banks=args.banks, capacity=args.capacity,
        link_max_retries=args.max_retries,
        **_link_fault_kwargs(args)))
    host = Host(sim)
    prof = _maybe_profile(args, sim)
    # Target the far end of the chain so every request and response
    # crosses the chain links (and their fault gates).
    far = args.devices - 1
    res, rc = _run_guarded(
        host, random_access_requests(device.capacity_bytes, cfg), sim, cub=far)
    if res is None:
        _maybe_dump(args, sim)
        return rc
    print(f"requests: {res.requests_sent:,}  "
          f"responses: {res.responses_received:,} "
          f" errors: {res.errors_received}  cycles: {res.cycles:,}")
    _print_profile(prof, sim)
    _print_link_fault_summary(sim)
    _maybe_dump(args, sim)
    return 0


def cmd_ras(args) -> int:
    from repro.analysis.reliability import ras_sweep, render_reliability

    device = _device_from_args(args)
    try:
        rates = [float(x) for x in args.fit_rates.split(",")]
        intervals = [int(x) for x in args.scrub_intervals.split(",")]
    except ValueError:
        print(f"ras: invalid sweep list (want comma-separated numbers): "
              f"--fit-rates {args.fit_rates!r} "
              f"--scrub-intervals {args.scrub_intervals!r}", file=sys.stderr)
        return 2
    cfg = RandomAccessConfig(num_requests=args.requests, seed=args.seed)
    cells = ras_sweep(device, rates, intervals, cfg, ras_seed=args.ras_seed)
    print(f"{device.label()}: {args.requests:,} requests, "
          f"FIT rates {rates} x scrub intervals {intervals}")
    print(render_reliability(cells))
    return 0


def cmd_replay(args) -> int:
    from repro.workloads.trace_replay import replay_address_trace

    device = _device_from_args(args)
    sim = topo.build_simple(HMCSim(
        num_devs=1, num_links=device.num_links,
        num_banks=device.num_banks, capacity=device.capacity,
        **_link_fault_kwargs(args)))
    host = Host(sim)
    prof = _maybe_profile(args, sim)
    try:
        with open(args.trace) as fh:
            stream = list(replay_address_trace(fh, device.capacity_bytes))
    except (OSError, ValueError) as exc:  # unreadable file, malformed line
        print(f"repro replay: {exc}", file=sys.stderr)
        return 2
    res, rc = _run_guarded(host, stream, sim)
    if res is None:
        return rc
    print(f"replayed {res.requests_sent:,} trace records in {res.cycles:,} cycles "
          f"({res.throughput:.2f} req/cycle), "
          f"mean latency {res.mean_latency:.1f}")
    _print_profile(prof, sim)
    _print_link_fault_summary(sim)
    return 0


def cmd_serve(args) -> int:
    import json

    from repro.analysis.tenants import (
        check_consistency,
        render_class_rollup,
        render_service_summary,
        render_tenant_table,
    )
    from repro.service import MemoryService, ServiceConfig, specs_from_profiles
    from repro.workloads.mixes import tenant_mix_profiles

    device = _device_from_args(args)
    chaos = None
    if args.chaos:
        from repro.faults.chaos import ChaosSchedule

        try:
            chaos = ChaosSchedule.from_json(args.chaos)
        except Exception as exc:
            print(f"serve: bad chaos spec: {exc}", file=sys.stderr)
            return 2
    # A chaos campaign without resilience knobs would just kill shards;
    # arm sensible recovery defaults unless the user set them.
    checkpoint_interval = args.checkpoint_interval
    failover_retries = args.failover_retries
    breaker_threshold = args.breaker_threshold
    if chaos is not None:
        if checkpoint_interval == 0:
            checkpoint_interval = 256
        if failover_retries == 0:
            failover_retries = 2
        if breaker_threshold == 0:
            breaker_threshold = 3
    try:
        config = ServiceConfig(
            device=device,
            devs_per_shard=args.devices,
            slots_per_shard=args.slots,
            initial_shards=min(args.shards, args.max_shards),
            max_shards=args.max_shards,
            provision_requests=args.provision_requests,
            max_waiting=args.max_waiting,
            checkpoint_interval=checkpoint_interval,
            max_shard_recoveries=args.max_shard_recoveries,
            failover_retries=failover_retries,
            failover_backoff=args.failover_backoff,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            chaos=chaos,
            **_link_fault_kwargs(args),
        )
    except Exception as exc:
        print(f"serve: invalid configuration: {exc}", file=sys.stderr)
        return 2
    profiles = tenant_mix_profiles(
        args.tenants, seed=args.seed, base_requests=args.requests_per_tenant
    )
    service = MemoryService(config)
    report = service.serve_sync(specs_from_profiles(profiles, config))
    service.close()
    print(render_service_summary(report))
    print()
    print(render_class_rollup(report))
    if args.table or args.tenants <= 16:
        print()
        print(render_tenant_table(report, limit=args.table_limit))
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"\nwrote service report to {args.stats_json}")
    audit_ok = report.get("audit", {}).get("ok", True)
    return 1 if (check_consistency(report) or not audit_ok) else 0


def cmd_tenants(args) -> int:
    import json

    from repro.analysis.tenants import (
        check_consistency,
        render_class_rollup,
        render_service_summary,
        render_tenant_table,
    )

    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"tenants: cannot read report {args.report!r}: {exc}",
              file=sys.stderr)
        return 2
    if "accounting" not in report or "consistency" not in report:
        print(f"tenants: {args.report!r} is not a serve report "
              f"(missing accounting/consistency sections)", file=sys.stderr)
        return 2
    print(render_service_summary(report))
    print()
    print(render_class_rollup(report))
    print()
    print(render_tenant_table(report, limit=args.limit))
    return 1 if check_consistency(report) else 0


def _package_version() -> str:
    """Installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate Table I")
    p.add_argument("--requests", type=_positive_int, default=4096)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fig5", help="regenerate the Figure 5 series")
    _add_device_args(p)
    p.set_defaults(func=cmd_fig5)

    p = sub.add_parser("topology", help="build and diagnose a topology")
    p.add_argument("shape", choices=("simple", "chain", "ring", "mesh", "torus"))
    p.add_argument("--devices", type=int, default=4)
    p.add_argument("--links", type=int, default=4, choices=(4, 8))
    p.add_argument("--banks", type=int, default=8, choices=(8, 16))
    p.add_argument("--capacity", type=int, default=2)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("bandwidth", help="bandwidth/latency for a random run")
    _add_device_args(p)
    _add_link_fault_args(p)
    _add_profile_arg(p)
    p.add_argument("--ghz", type=float, default=bw.DEFAULT_CYCLE_GHZ)
    p.set_defaults(func=cmd_bandwidth)

    p = sub.add_parser("faults", help="error-simulation run over a noisy link")
    _add_device_args(p)
    _add_link_fault_args(p)
    _add_profile_arg(p)
    p.set_defaults(link_ber=1e-4)
    p.add_argument("--max-retries", type=int, default=16)
    p.add_argument("--devices", type=int, default=2,
                   help="chain length (1: one noisy host link)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("replay", help="replay a flat R/W address trace file")
    _add_device_args(p)
    _add_link_fault_args(p)
    _add_profile_arg(p)
    p.add_argument("trace", help="path to a 'R/W <hex-addr> [size]' trace file")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("ras", help="reliability sweep: fault rate x scrub interval")
    _add_device_args(p)
    p.add_argument("--fit-rates", type=str, default="0,2e5,1e6",
                   help="comma-separated upset rates (per bank per 1e9 cycles)")
    p.add_argument("--scrub-intervals", type=str, default="0,64,1024",
                   help="comma-separated patrol intervals in cycles (0 = off)")
    p.add_argument("--ras-seed", type=int, default=1)
    p.set_defaults(func=cmd_ras)

    p = sub.add_parser("serve", help="multi-tenant disaggregated memory "
                                     "service over a chained-cube pool")
    _add_link_fault_args(p)
    p.add_argument("--tenants", type=int, default=16,
                   help="number of simulated tenants in the mix")
    p.add_argument("--seed", type=int, default=1,
                   help="tenant-mix scenario seed")
    p.add_argument("--requests-per-tenant", type=int, default=64,
                   help="base request count per tenant (scaled by class)")
    p.add_argument("--devices", type=int, default=2,
                   help="cubes chained per shard")
    p.add_argument("--slots", type=int, default=2,
                   help="tenant slots (host links) per shard")
    p.add_argument("--shards", type=int, default=1,
                   help="shards spun up before serving")
    p.add_argument("--max-shards", type=int, default=4,
                   help="pool growth ceiling")
    p.add_argument("--links", type=int, default=4, choices=(4, 8))
    p.add_argument("--banks", type=int, default=8, choices=(8, 16))
    p.add_argument("--capacity", type=int, default=2, help="GB per cube")
    p.add_argument("--provision-requests", type=int, default=256,
                   help="provisioning traffic baked into the warm template")
    p.add_argument("--max-waiting", type=int, default=0,
                   help="reject tenants beyond this queue depth (0 = unbounded)")
    p.add_argument("--chaos", type=str, default=None, metavar="SPEC.JSON",
                   help="inject a deterministic chaos campaign from this "
                        "JSON spec (arms recovery defaults unless set)")
    p.add_argument("--checkpoint-interval", type=int, default=0,
                   help="cycles between shard epoch checkpoints "
                        "(0 disarms crash recovery)")
    p.add_argument("--max-shard-recoveries", type=int, default=2,
                   help="epoch restores per shard before a crash is terminal")
    p.add_argument("--failover-retries", type=int, default=0,
                   help="times a displaced tenant is re-placed "
                        "(0 disarms failover)")
    p.add_argument("--failover-backoff", type=int, default=64,
                   help="base failover backoff in simulated cycles "
                        "(doubles per attempt)")
    p.add_argument("--breaker-threshold", type=int, default=0,
                   help="consecutive failures that open a shard's circuit "
                        "breaker (0 disables breakers)")
    p.add_argument("--breaker-cooldown", type=int, default=1024,
                   help="simulated cycles an open breaker waits before "
                        "its half-open probe")
    p.add_argument("--table", action="store_true",
                   help="print the per-tenant table even for large fleets")
    p.add_argument("--table-limit", type=int, default=32,
                   help="max rows in the per-tenant table (0 = all)")
    p.add_argument("--stats-json", type=str, default=None,
                   help="write the full service report to this file")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("tenants", help="render per-tenant accounting from a "
                                       "saved serve report")
    p.add_argument("report", help="path to a --stats-json file from serve")
    p.add_argument("--limit", type=int, default=0,
                   help="max rows in the per-tenant table (0 = all)")
    p.set_defaults(func=cmd_tenants)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InitError as exc:  # a device the configuration rules forbid
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

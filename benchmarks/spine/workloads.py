"""The five workloads: inputs from the seed, one timed region, checks.

Every workload is a function ``run(rep, seed, size, traced, ablate)``
that builds its simulator, runs the timed region, checks the outputs
and folds the simulated results into ``rep``'s fingerprint.  *traced*
swaps in the timed subclasses of :mod:`benchmarks.spine.timed` and
collects per-layer metrics; *ablate* switches off the one layer the
workload exists to stress (trace sinks, link faults, epoch checkpoints)
for the paired-ablation overhead figures.

Only the seed reaches the generators (``RandomAccessConfig.seed``,
``Host(seed=)``, ``link_seed``, ``build_chase_table(seed=)``,
``tenant_mix_profiles(seed=)``); the program sees generated inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from time import perf_counter
from typing import Callable, Iterable, Optional

from repro.analysis.profiling import attach
from repro.analysis.tables import PAPER_SPEEDUPS, Table1Row, speedups
from repro.analysis.tenants import check_consistency, deterministic_view
from repro.core.config import PAPER_CONFIGS, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import READ_CMD_FOR_BYTES, WRITE_CMD_FOR_BYTES
from repro.service import MemoryService, ServiceConfig, specs_from_profiles
from repro.topology.builder import build_chain
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from repro.trace.stats import TraceStats
from repro.trace.tracer import StatsSink
from repro.workloads.mixes import tenant_mix_profiles, tenant_requests
from repro.workloads.pointer_chase import build_chase_table, pointer_chase_run
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
    request_batches,
    run_random_access,
)

from benchmarks.spine.timed import ProfiledPool, TimedHost, TimedSim, TimedSink

#: The Figure 5 device; also the cube of the chain, chase and serve runs.
BASE_DEVICE = PAPER_CONFIGS["4-Link; 8-Bank; 2GB"]

#: A quarter of ISSUE 11's request counts: the contract's total-time cap
#: leaves ~30 s per run, so every count was halved together, twice —
#: and chain4_ber once more: at 2^13 its repetition took 3 s, a run held
#: four of them, and its medians spread past a third of the bound.
SIZES = {
    "table1_untraced": {"requests_per_config": 1 << 13},
    "fig5_fulltrace": {"requests": 1 << 14},
    "chain4_ber": {"requests": 1 << 12},
    "chase_think64": {"nodes": 4096, "hops": 25_000},
    "serve128_armed": {"tenants": 128, "requests_per_tenant": 16},
}

#: ``--smoke``: 1/64 of ISSUE 11's counts, for CI.
SMOKE_SIZES = {
    "table1_untraced": {"requests_per_config": 1 << 9},
    "fig5_fulltrace": {"requests": 1 << 10},
    "chain4_ber": {"requests": 1 << 9},
    "chase_think64": {"nodes": 256, "hops": 1563},
    "serve128_armed": {"tenants": 16, "requests_per_tenant": 8},
}


class Rep:
    """What one repetition measured."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        #: ``time.monotonic()`` at the start of the first timed region.
        self.t_start: Optional[float] = None
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.sim_cycles = 0
        #: Output checks that failed (fatal for the run).
        self.failures: list = []
        #: End-to-end metrics only some workloads have.
        self.extra: dict = {}
        #: Per-layer sums (traced repetitions only).
        self.layers: Counter = Counter()
        #: The first simulator, kept for the post-run probes (keeping
        #: them all would add table1's four cubes into one peak RSS).
        self.probe_sim = None
        self._hash = hashlib.sha256()

    @contextmanager
    def timed(self):
        if self.t_start is None:
            self.t_start = time.monotonic()
        t = perf_counter()
        try:
            yield
        finally:
            self.wall_s += perf_counter() - t

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def fold(self, *parts) -> None:
        """Fold simulated results into the fingerprint."""
        for part in parts:
            if isinstance(part, (bytes, memoryview)):
                self._hash.update(part)
            else:
                self._hash.update(
                    json.dumps(part, sort_keys=True, default=str).encode()
                )

    @property
    def fingerprint(self) -> str:
        return self._hash.hexdigest()

    def host_run(self, sim, run, requested: int) -> None:
        """Account one finished ``Host.run`` of *requested* requests."""
        self.attempted += requested
        self.completed += run.responses_received
        self.failed += (requested - run.responses_received) + run.errors_received
        self.sim_cycles += run.cycles
        self.check(
            run.requests_sent == run.responses_received == requested,
            f"sent {run.requests_sent} / received {run.responses_received} "
            f"of {requested} requests",
        )
        self.check(run.errors_received == 0,
                   f"{run.errors_received} error responses")
        self.fold_sim(sim)

    def fold_sim(self, sim) -> None:
        self.fold(sim.clock_value, sim.stats(), sim.engine.stage_counts)
        if self.probe_sim is None:
            self.probe_sim = sim

    def trace(self, sim: TimedSim, host: TimedHost, prof) -> None:
        """Add one traced simulator's spans and counts to the layer sums."""
        self.layers.update(host_layers(sim, host))
        self.layers.update(engine_layers(sim, prof))


# -- per-layer collection (traced repetitions) -------------------------------


def host_layers(sim: TimedSim, host: TimedHost) -> dict:
    return {
        "host.send_s": host.send_s,
        "host.send_calls": host.send_calls,
        "_host.sent": host.sent,
        "host.drain_s": host.drain_s,
        "host.responses": host.received,
        "core.simulator.send_s": sim.send_s,
        "core.simulator.recv_s": sim.recv_s,
        "core.clock.tick_s": sim.clock_s,
    }


def engine_layers(sim, prof) -> dict:
    """Stage buckets and exact work counts of one simulator."""
    ns = prof.stage_ns
    counts = sim.engine.stage_counts
    stats = sim.stats()
    banks = [b for d in sim.devices for v in d.vaults for b in v.banks]
    return {
        "core.clock.ticks": prof.ticks,
        "core.clock.ff_cycles": prof.ff_cycles,
        "core.clock.rsp_s": ns[5] / 1e9,
        "core.clock.update_s": ns[6] / 1e9,
        "_core.clock.staged_s": prof.total_stage_ns() / 1e9,
        "core.crossbar.route_s": (ns[1] + ns[2]) / 1e9,
        "core.crossbar.moved": counts[1] + counts[2],
        "core.crossbar.stalls": stats["xbar_stalls"],
        "core.crossbar.latency_penalties": stats["latency_penalties"],
        "core.vault.stage34_s": (ns[3] + ns[4]) / 1e9,
        "core.vault.issued": counts[4],
        "core.vault.conflicts": counts[3],
        "core.bank.accesses": sum(b.total_accesses for b in banks),
        "core.bank.touched_mb": sum(b.touched_bytes for b in banks) / 2**20,
    }


def single_device(device, seed: int, traced: bool):
    """One cube, every link on the host — what ``run_random_access``
    builds, with the timed classes swapped in when *traced*."""
    sim = (TimedSim if traced else HMCSim)(SimConfig(device=device))
    for link in range(device.num_links):
        sim.attach_host(0, link)
    return sim, (TimedHost if traced else Host)(sim, seed=seed)


# -- the workloads -----------------------------------------------------------


def table1_untraced(rep: Rep, seed: int, size: dict, traced: bool,
                    ablate: bool) -> None:
    cfg = RandomAccessConfig(num_requests=size["requests_per_config"], seed=seed)
    rows = []
    for label, device in PAPER_CONFIGS.items():
        if traced:
            sim, host = single_device(device, seed, traced=True)
            prof = attach(sim)
            with rep.timed():
                run = host.run(
                    random_access_requests(device.capacity_bytes, cfg),
                    cub=0, max_cycles=50_000_000,
                )
            rep.trace(sim, host, prof)
        else:
            # The library's own timed region is the Host.run call.
            res = run_random_access(device, cfg, keep_sim=True)
            if rep.t_start is None:
                rep.t_start = time.monotonic() - res.wall_seconds
            rep.wall_s += res.wall_seconds
            sim, run = res.sim, res.run
        rep.host_run(sim, run, cfg.num_requests)
        rows.append(Table1Row(label, run.cycles, None, None))
    ours = speedups(rows)
    rep.extra["table1_speedup_err_pct"] = 100.0 * sum(
        abs(ours[k] - ref) / ref for k, ref in PAPER_SPEEDUPS.items()
    ) / len(PAPER_SPEEDUPS)


def fig5_fulltrace(rep: Rep, seed: int, size: dict, traced: bool,
                   ablate: bool) -> None:
    device = BASE_DEVICE
    sim, host = single_device(device, seed, traced)
    buf = io.BytesIO()
    binsink = stats = None
    sinks = []
    if not ablate:
        sim.set_trace_mask(EventType.STANDARD)
        binsink = BinarySink(buf, num_vaults=device.num_vaults)
        stats = TraceStats(num_vaults=device.num_vaults)
        sinks = [binsink, StatsSink(stats)]
        if traced:
            sinks = [TimedSink(s) for s in sinks]
        for sink in sinks:
            sim.add_trace_sink(sink)
    prof = attach(sim) if traced else None
    cfg = RandomAccessConfig(num_requests=size["requests"], seed=seed)
    with rep.timed():
        run = host.run(random_access_requests(device.capacity_bytes, cfg), cub=0)
    rep.host_run(sim, run, cfg.num_requests)
    if not ablate:
        rep.check(binsink.records == stats.events_seen,
                  f"{binsink.records} binary records vs "
                  f"{stats.events_seen} aggregated events")
        rep.fold(buf.getbuffer())
    if traced:
        rep.trace(sim, host, prof)
        if not ablate:
            rep.layers.update({
                "trace.binsink_s": sinks[0].seconds,
                "trace.statsink_s": sinks[1].seconds,
                "trace.events": binsink.records,
                "trace.bytes": binsink.bytes_written,
            })


_LINK_COUNTERS = ("packets", "transmissions", "crc_failures", "recovered",
                  "failed")


def chain4_ber(rep: Rep, seed: int, size: dict, traced: bool,
               ablate: bool) -> None:
    device = BASE_DEVICE
    scfg = SimConfig(
        device=device, num_devs=4, link_ber=0.0 if ablate else 1e-5,
        link_max_retries=16, link_seed=seed,
    )
    sim = build_chain((TimedSim if traced else HMCSim)(scfg), host_links=1)
    host = (TimedHost if traced else Host)(sim, seed=seed)
    prof = attach(sim) if traced else None
    cfg = RandomAccessConfig(num_requests=size["requests"], seed=seed)
    far = scfg.num_devs - 1  # every request crosses every chain link
    with rep.timed():
        run = host.run(random_access_requests(device.capacity_bytes, cfg), cub=far)
    rep.host_run(sim, run, cfg.num_requests)
    links = Counter()
    for link in sim.stats().get("link_faults", {}).values():
        links.update({k: link[k] for k in _LINK_COUNTERS})
    if not ablate:
        rep.check(links["crc_failures"] > 0, "no CRC failure was injected")
        rep.check(links["failed"] == 0,
                  f"{links['failed']} packets abandoned after max retries")
        rep.failed += links["failed"]
    if traced:
        rep.trace(sim, host, prof)
        rep.layers.update({
            "faults.transmissions": links["transmissions"],
            "_faults.packets": links["packets"],
            "faults.crc_failures": links["crc_failures"],
            "faults.recovered": links["recovered"],
        })


def chase_think64(rep: Rep, seed: int, size: dict, traced: bool,
                  ablate: bool) -> None:
    sim, host = single_device(BASE_DEVICE, seed, traced)
    prof = attach(sim) if traced else None
    hops = size["hops"]
    with rep.timed():
        res = pointer_chase_run(
            sim, host, num_nodes=size["nodes"], hops=hops,
            think_cycles=64, seed=seed,
        )
    # The timed region writes the table and then chases it, so requests
    # and cycles count both phases.
    rep.attempted += size["nodes"] + hops
    rep.completed += host.received
    rep.failed += (rep.attempted - host.received) + host.errors
    rep.sim_cycles += sim.clock_value
    rep.check(res.hops == hops and len(res.latencies) == hops,
              f"{len(res.latencies)} of {hops} hops completed")
    rep.check(host.sent == host.received == rep.attempted,
              f"sent {host.sent} / received {host.received} "
              f"of {rep.attempted} requests")
    rep.check(host.errors == 0, f"{host.errors} error responses")
    rep.fold_sim(sim)
    rep.fold(res.cycles)
    if traced:
        rep.trace(sim, host, prof)


def serve_profiles(seed: int, size: dict) -> list:
    return tenant_mix_profiles(
        size["tenants"], seed=seed, base_requests=size["requests_per_tenant"]
    )


def serve128_armed(rep: Rep, seed: int, size: dict, traced: bool,
                   ablate: bool) -> None:
    # What `repro serve --tenants N --requests-per-tenant M
    # --checkpoint-interval 256` builds: every other knob is the CLI
    # default, which is the ServiceConfig default.
    cfg = ServiceConfig(
        device=BASE_DEVICE, link_seed=seed,
        checkpoint_interval=0 if ablate else 256,
    )
    profiles = serve_profiles(seed, size)
    service = MemoryService(cfg)
    if traced:
        service.pool = ProfiledPool(cfg)
    specs = specs_from_profiles(profiles, cfg)
    service.pool.template_blob()  # warm template: set-up, not serving
    with rep.timed():
        report = service.serve_sync(specs)
    totals = report["accounting"]["totals"]
    rep.attempted += sum(int(p["requests"]) for p in profiles)
    rep.completed += totals["responses"]
    rep.failed += (
        (rep.attempted - totals["responses"]) + totals["errors"]
    )
    rep.sim_cycles += sum(s["sim_cycles"] for s in report["shards"])
    bad = check_consistency(report)
    rep.check(not bad, f"accounting consistency failed: {bad}")
    rep.check(report["audit"]["ok"],
              f"audit violations: {report['audit'].get('violations')}")
    rep.check(totals["requests_sent"] == rep.attempted,
              f"tenants sent {totals['requests_sent']} of {rep.attempted}")
    rep.fold(deterministic_view(report))
    rep.probe_sim = service.shards[0].sim
    if traced:
        for shard, prof in zip(service.shards, service.pool.profilers):
            rep.layers.update(engine_layers(shard.sim, prof))
        warm = report["spin_up"]["warm"]
        rep.layers.update({
            "service.serve_s": rep.wall_s,
            "service.ticks": report["ticks"],
            "service.template_ms": report["spin_up"]["template_ms"],
            "service.spinup_warm_ms": warm.get("mean_ms", 0.0),
            "_service.spinup_total_s": warm.get("total_ms", 0.0) / 1e3,
            "service.shards": len(report["shards"]),
            "service.slot_cycles": totals["slot_cycles"],
            "service.rejected": report["admission"]["rejected"],
        })


# -- the request streams the isolated probes replay --------------------------


def _random_stream(*devices) -> Callable:
    def stream(seed: int, size: dict) -> Iterable:
        n = size.get("requests", size.get("requests_per_config"))
        cfg = RandomAccessConfig(num_requests=n, seed=seed)
        return chain.from_iterable(
            batch
            for device in devices
            for batch in request_batches(device.capacity_bytes, cfg)
        )
    return stream


def _chase_stream(seed: int, size: dict) -> Iterable:
    """Table writes, then the reads the chase will issue."""
    table = build_chase_table(size["nodes"], node_bytes=16, seed=seed)
    wr, rd = WRITE_CMD_FOR_BYTES[16], READ_CMD_FOR_BYTES[16]
    for idx, nxt in enumerate(table):
        yield (wr, idx * 16, [nxt, 0])
    addr = 0
    for _ in range(size["hops"]):
        yield (rd, addr, None)
        addr = table[addr // 16]


def _serve_stream(seed: int, size: dict) -> Iterable:
    capacity = 2 * BASE_DEVICE.capacity_bytes  # devs_per_shard cubes
    return chain.from_iterable(
        tenant_requests(p, capacity) for p in serve_profiles(seed, size)
    )


@dataclass(frozen=True)
class Workload:
    run: Callable
    #: Regenerates the request stream, for the generation/packet/bank probes.
    stream: Callable
    #: Per-layer metric that receives (wall − ablated wall), if any.
    ablation_metric: Optional[str] = None
    #: Probe snapshot/restore of the post-run simulator.
    checkpoint_probe: bool = False


WORKLOADS = {
    "table1_untraced": Workload(
        table1_untraced, _random_stream(*PAPER_CONFIGS.values())),
    "fig5_fulltrace": Workload(
        fig5_fulltrace, _random_stream(BASE_DEVICE), "trace.overhead_s"),
    "chain4_ber": Workload(
        chain4_ber, _random_stream(BASE_DEVICE), "faults.overhead_s"),
    "chase_think64": Workload(chase_think64, _chase_stream),
    "serve128_armed": Workload(
        serve128_armed, _serve_stream, "core.checkpoint.epoch_overhead_s",
        checkpoint_probe=True),
}


def run(name: str, seed: int, size: dict, traced: bool = False,
        ablate: bool = False) -> Rep:
    rep = Rep()
    WORKLOADS[name].run(rep, seed, size, traced, ablate)
    return rep

"""Python calls per request: a deterministic work counter.

Runs a request stream under ``cProfile`` and prints the Python-level
calls the drive loop made per request.  Only ``Host.run`` is profiled:
building the simulator is set-up, not per-request work.  Unlike a wall
time, the count does not move with the machine, so a bound on it gates
what a noisy wall cannot.  Three streams:

* ``table1`` (default): the paper's Table I stream — the four
  ``PAPER_CONFIGS``, random 64-byte requests, every link on the host;
* ``chain4``: the spine's ``chain4_ber`` shape — a 4-cube chain with one
  host link, link BER 1e-5, ``link_max_retries=16``, every request to
  the far cube, so each one crosses three faulty chain links and the
  faulty host link both ways;
* ``fig5``: the spine's ``fig5_fulltrace`` shape — one 4-Link/8-Bank
  cube, every link on the host, the ``STANDARD`` trace mask into a
  ``BinarySink`` over ``BytesIO`` and a ``StatsSink``, so the count
  includes every Python call the trace pipeline makes per request;
* ``chase``: the spine's ``chase_think64`` shape — one 4-Link/8-Bank
  cube, every link on the host, a pointer chase over ``CHASE_NODES``
  nodes for ``CHASE_HOPS`` dependent reads (the spine's sizes) with 64
  think cycles between them; only ``pointer_chase_run`` is profiled,
  and the count is per request, the table writes included (as the
  spine counts them);
* ``serve``: the spine's ``serve128_armed`` shape — ``repro serve``
  with ``checkpoint_interval=256`` over a seed-1 tenant mix; only
  ``serve_sync`` is profiled (the shard template is set-up), and the
  count is per served request.  ``--tenants`` / ``--requests-per-tenant``
  size it.  The process pins itself to one CPU first, so the shards
  pump in it (``repro.service.handle``) and cProfile counts their work,
  not an idle driver waiting on shard processes.

    PYTHONPATH=src python benchmarks/calls_per_request.py \
        [--workload table1|chain4|fig5|chase|serve] [--requests-log2 11] \
        [--tenants 32] [--requests-per-tenant 8] [--max N]

Exits 1 when the count exceeds ``--max``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os

from repro.core.config import PAPER_CONFIGS, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.service import MemoryService, ServiceConfig, specs_from_profiles
from repro.topology.builder import build_chain
from repro.trace import BinarySink, EventType, StatsSink, TraceStats
from repro.workloads.mixes import tenant_mix_profiles
from repro.workloads.pointer_chase import pointer_chase_run
from repro.workloads.random_access import RandomAccessConfig, random_access_requests


def calls_of(prof: cProfile.Profile) -> int:
    """Every call *prof* saw.  ``getstats()`` keeps one entry per code
    object; ``pstats`` keys functions by (file, line, name) and so merges
    every dataclass ``__init__`` (all ``<string>``, line 2) into one."""
    return sum(entry.callcount for entry in prof.getstats())


def _profiled_calls(host: Host, stream, cub: int) -> int:
    prof = cProfile.Profile()
    prof.runcall(host.run, stream, cub=cub, max_cycles=50_000_000)
    return calls_of(prof)


def table1(requests: int, seed: int = 1) -> float:
    """Profiled calls per request over the four Table I configurations."""
    cfg = RandomAccessConfig(num_requests=requests, seed=seed)
    calls = 0
    for device in PAPER_CONFIGS.values():
        sim = HMCSim(SimConfig(device=device))
        for link in range(device.num_links):
            sim.attach_host(0, link)
        stream = random_access_requests(device.capacity_bytes, cfg)
        calls += _profiled_calls(Host(sim, seed=seed), stream, cub=0)
    return calls / (requests * len(PAPER_CONFIGS))


def chain4(requests: int, seed: int = 1) -> float:
    """Profiled calls per request on the faulty 4-cube chain."""
    device = PAPER_CONFIGS["4-Link; 8-Bank; 2GB"]
    scfg = SimConfig(device=device, num_devs=4, link_ber=1e-5,
                     link_max_retries=16, link_seed=seed)
    sim = build_chain(HMCSim(scfg), host_links=1)
    cfg = RandomAccessConfig(num_requests=requests, seed=seed)
    stream = random_access_requests(device.capacity_bytes, cfg)
    calls = _profiled_calls(Host(sim, seed=seed), stream, cub=scfg.num_devs - 1)
    return calls / requests


def fig5(requests: int, seed: int = 1) -> float:
    """Profiled calls per request of the fully traced Figure 5 run."""
    device = PAPER_CONFIGS["4-Link; 8-Bank; 2GB"]
    sim = HMCSim(SimConfig(device=device))
    for link in range(device.num_links):
        sim.attach_host(0, link)
    sim.set_trace_mask(EventType.STANDARD)
    sim.add_trace_sink(BinarySink(io.BytesIO(), num_vaults=device.num_vaults))
    sim.add_trace_sink(StatsSink(TraceStats(num_vaults=device.num_vaults)))
    cfg = RandomAccessConfig(num_requests=requests, seed=seed)
    stream = random_access_requests(device.capacity_bytes, cfg)
    return _profiled_calls(Host(sim, seed=seed), stream, cub=0) / requests


CHASE_NODES, CHASE_HOPS = 4096, 25_000


def chase(nodes: int, hops: int, seed: int = 1) -> float:
    """Profiled calls per request of the think-time pointer chase."""
    device = PAPER_CONFIGS["4-Link; 8-Bank; 2GB"]
    sim = HMCSim(SimConfig(device=device))
    for link in range(device.num_links):
        sim.attach_host(0, link)
    prof = cProfile.Profile()
    prof.runcall(pointer_chase_run, sim, Host(sim, seed=seed), num_nodes=nodes,
                 hops=hops, think_cycles=64, seed=seed)
    return calls_of(prof) / (nodes + hops)


def serve(tenants: int, per_tenant: int, seed: int = 1) -> float:
    """Profiled calls per served request of an armed ``repro serve``."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cfg = ServiceConfig(device=PAPER_CONFIGS["4-Link; 8-Bank; 2GB"],
                        link_seed=seed, checkpoint_interval=256)
    profiles = tenant_mix_profiles(tenants, seed=seed, base_requests=per_tenant)
    service = MemoryService(cfg)
    specs = specs_from_profiles(profiles, cfg)
    service.pool.template_blob()
    prof = cProfile.Profile()
    report = prof.runcall(service.serve_sync, specs)
    return calls_of(prof) / report["accounting"]["totals"]["responses"]


WORKLOADS = {
    "table1": (lambda a: table1(1 << a.requests_log2),
               "4 configs x 2^{requests_log2} requests"),
    "chain4": (lambda a: chain4(1 << a.requests_log2),
               "4-cube chain at BER 1e-5, 2^{requests_log2} requests"),
    "fig5": (lambda a: fig5(1 << a.requests_log2),
             "traced 4-Link/8-Bank, 2^{requests_log2} requests"),
    "chase": (lambda a: chase(CHASE_NODES, CHASE_HOPS),
              "pointer chase, 64 think cycles"),
    "serve": (lambda a: serve(a.tenants, a.requests_per_tenant),
              "armed serve, {tenants} tenants x {requests_per_tenant} requests"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="table1", help="request stream to profile")
    parser.add_argument("--requests-log2", type=int, default=11,
                        help="requests (per configuration), as a power of two")
    parser.add_argument("--tenants", type=int, default=32,
                        help="serve: tenants in the mix")
    parser.add_argument("--requests-per-tenant", type=int, default=8,
                        help="serve: base requests per tenant")
    parser.add_argument("--max", type=float, default=None,
                        help="fail when calls per request exceed this")
    args = parser.parse_args(argv)
    count, shape = WORKLOADS[args.workload]
    per_request = count(args)
    print(f"calls per request: {per_request:.2f} ({shape.format(**vars(args))})")
    if args.max is not None and per_request > args.max:
        print(f"FAIL: above the bound {args.max}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

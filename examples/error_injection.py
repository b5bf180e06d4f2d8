#!/usr/bin/env python
"""Error simulation: traffic over a noisy link with CRC + retry.

HMC-Sim's goals include "error simulation" (paper §IV.5).  This example
attaches a bit-error fault model to a host link, drives the random
workload through it, and shows (a) no corrupted packet is ever accepted,
(b) everything recovers through the IRTRY/replay protocol, and (c) what
the noise costs in simulated cycles: every replay holds the link for
real cycles, so a clean twin run gives the price.

Usage::

    python examples/error_injection.py [--ber 1e-4] [--requests N]
"""

import argparse
import sys

from repro.core.simulator import HMCSim
from repro.faults.link_model import LinkFaultModel
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.topology.builder import build_simple
from repro.workloads.random_access import RandomAccessConfig, random_access_requests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ber", type=float, default=1e-4,
                        help="bit error rate on the host link")
    parser.add_argument("--drop", type=float, default=0.0,
                        help="whole-packet drop rate")
    parser.add_argument("--requests", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sim, host, cycles, corrupt = run(
        args, LinkFaultModel(ber=args.ber, drop_rate=args.drop, seed=args.seed))
    clean_cycles = run(args, LinkFaultModel())[2]
    s = sim.link_report()["links"]["dev0.link0"]
    print(f"link BER {args.ber:g}, drop rate {args.drop:g}:")
    print(f"  logical packets          : {s['packets']:,}")
    print(f"  physical transmissions   : {s['transmissions']:,}")
    print(f"  CRC failures detected    : {s['crc_failures']:,}")
    print(f"  whole packets dropped    : {s['drops']:,}")
    print(f"  IRTRY retry exchanges    : {s['irtry_events']:,}")
    print(f"  replay windows           : {s['recovery_cycles']:,} cycles")
    print(f"  run length               : {cycles:,} cycles "
          f"({clean_cycles:,} on a clean link)")
    print(f"  spot-checked blocks corrupt: {corrupt}  (must be 0)")
    print(f"  host-visible errors      : {host.errors}  (must be 0)")
    if corrupt or host.errors or s["health"] != "FULL":
        print("FAILED: noise leaked through the CRC/retry protocol")
        return 1
    print("\nAll traffic delivered bit-exact despite the noise — every "
          "corruption was caught by the tail CRC and replayed.")
    return 0


def run(args, model):
    """Write a signature into every block, read it back; return
    ``(sim, host, cycles, corrupt blocks among four spot checks)``."""
    sim = build_simple(
        HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2),
        host_links=1,
    )
    sim.attach_link_fault(0, 0, model, max_retries=64)
    host = Host(sim)

    # Phase 1: signature writes through the noisy link.
    n = args.requests // 2
    writes = [(CMD.WR64, i * 64, [i ^ 0xA5A5] * 8) for i in range(n)]
    host.run(writes)

    # Phase 2: read back, then spot-check four blocks' storage.
    corrupt = 0
    reads = [(CMD.RD64, i * 64, None) for i in range(n)]
    host.run(reads)
    for i in (0, n // 4, n // 2, n - 1):
        dev = sim.devices[0]
        d = dev.amap.decode(i * 64)
        rel = d.dram * dev.amap.block_size + d.offset
        if dev.vaults[d.vault].banks[d.bank].read(rel, 64) != [i ^ 0xA5A5] * 8:
            corrupt += 1

    return sim, host, sim.clock_value, corrupt


if __name__ == "__main__":
    sys.exit(main())

"""Python calls per Table I request: a deterministic work counter.

Runs the paper's Table I stream (the four ``PAPER_CONFIGS``, random
64-byte requests, every link on the host) under ``cProfile`` and prints
the Python-level calls the drive loop made per request.  Only
``Host.run`` is profiled: building the simulator is set-up, not
per-request work.  Unlike a wall time, the count does not move with the
machine, so a bound on it gates what a noisy wall cannot.

    PYTHONPATH=src python benchmarks/calls_per_request.py [--requests-log2 11] [--max N]

Exits 1 when the count exceeds ``--max``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats

from repro.core.config import PAPER_CONFIGS, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.workloads.random_access import RandomAccessConfig, random_access_requests


def calls_per_request(requests: int, seed: int = 1) -> float:
    """Profiled calls per request over the four Table I configurations."""
    cfg = RandomAccessConfig(num_requests=requests, seed=seed)
    calls = 0
    for device in PAPER_CONFIGS.values():
        sim = HMCSim(SimConfig(device=device))
        for link in range(device.num_links):
            sim.attach_host(0, link)
        host = Host(sim, seed=seed)
        stream = random_access_requests(device.capacity_bytes, cfg)
        prof = cProfile.Profile()
        prof.runcall(host.run, stream, cub=0, max_cycles=50_000_000)
        calls += pstats.Stats(prof).total_calls
    return calls / (requests * len(PAPER_CONFIGS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests-log2", type=int, default=11,
                        help="requests per configuration, as a power of two")
    parser.add_argument("--max", type=float, default=None,
                        help="fail when calls per request exceed this")
    args = parser.parse_args(argv)
    per_request = calls_per_request(1 << args.requests_log2)
    print(f"calls per request: {per_request:.2f} "
          f"(4 configs x 2^{args.requests_log2} requests)")
    if args.max is not None and per_request > args.max:
        print(f"FAIL: above the bound {args.max}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

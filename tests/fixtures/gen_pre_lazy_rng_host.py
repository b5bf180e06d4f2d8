"""Generate the pre-lazy-generator ``Host`` checkpoint fixture.

This script was run against the tree *before* ``Host`` made its RANDOM
policy's ``numpy.random.Generator`` on the first pick and ``TagPool``
pickled its free list as a tuple (commit 4637b8f), producing:

- ``pre_lazy_rng_host.bin`` — a :func:`snapshot_bundle` of a mid-flight
  simulation plus a RANDOM-policy host: its generator already advanced
  by the first phase's picks, tags outstanding, the free list a deque.
- ``pre_lazy_rng_host_expect.json`` — what a continuation on a restored
  copy observes: the ``(dev, link, tag)`` of every send, the final
  cycle, and the host's counters and latency sum.

``tests/test_host.py`` restores the committed blob on the current tree
and replays the same continuation.  Re-running this script on a later
tree would overwrite the fixture with a new-shape blob and defeat the
test — the committed outputs are historical artifacts, keep them.

    PYTHONPATH=<tree>/src python tests/fixtures/gen_pre_lazy_rng_host.py
"""

from __future__ import annotations

import json
import os

from repro.core.checkpoint import restore_bundle, snapshot_bundle
from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.workloads.random_access import RandomAccessConfig, random_access_requests

HERE = os.path.dirname(os.path.abspath(__file__))
BLOB_PATH = os.path.join(HERE, "pre_lazy_rng_host.bin")
EXPECT_PATH = os.path.join(HERE, "pre_lazy_rng_host_expect.json")

#: Phase A runs before the snapshot, phase B is the continuation.
PHASE_A = RandomAccessConfig(num_requests=96, read_fraction=0.5, seed=21)
PHASE_B = RandomAccessConfig(num_requests=160, read_fraction=0.5, seed=22)


def build():
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2, queue_depth=32)
    sim = HMCSim(SimConfig(device=device))
    for link in range(device.num_links):
        sim.attach_host(0, link)
    return sim, Host(sim, policy="random", seed=5)


def drive(sim: HMCSim, host: Host, cfg: RandomAccessConfig, drain: bool) -> list:
    """Send *cfg*'s stream one request per cycle, stalls retried; with
    *drain*, clock until every response is home.  Returns the
    ``(dev, link, tag)`` of every send, in order."""
    sends = []
    for cmd, addr, payload in random_access_requests(
            sim.config.device.capacity_bytes, cfg):
        while host.send_request(cmd, addr, payload=payload) is None:
            sim.clock()
            host.drain_responses()
        sends.append(list(host.last_send))
        sim.clock()
        host.drain_responses()
    while drain and host.outstanding:
        sim.clock()
        host.drain_responses()
    return sends


def run_continuation(sim: HMCSim, host: Host) -> dict:
    sends = drive(sim, host, PHASE_B, drain=True)
    return {
        "sends": sends,
        "cycle": sim.clock_value,
        "sent": host.sent,
        "received": host.received,
        "latency_sum": sum(host.latencies),
    }


def main() -> None:
    sim, host = build()
    drive(sim, host, PHASE_A, drain=False)
    assert host.outstanding, "the snapshot should hold requests in flight"
    blob = snapshot_bundle(sim, host)
    sim2, (host2,) = restore_bundle(blob)
    expect = run_continuation(sim2, host2)
    expect["blob_bytes"] = len(blob)
    with open(BLOB_PATH, "wb") as fh:
        fh.write(blob)
    with open(EXPECT_PATH, "w") as fh:
        json.dump(expect, fh)
        fh.write("\n")
    print(f"wrote {BLOB_PATH} ({len(blob)} bytes) and {EXPECT_PATH}")


if __name__ == "__main__":
    main()

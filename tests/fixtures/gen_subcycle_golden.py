"""Record the SUBCYCLE-marked golden fingerprints.

This script was run at commit 900a02c, the last tree in which a
SUBCYCLE-marked tick drove the separate ``Vault.recognize_conflicts`` /
``Vault.process_requests`` walks, from a second checkout of that
commit::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q 900a02c
    PYTHONPATH=/tmp/parent/src:. python -m tests.fixtures.gen_subcycle_golden

producing ``subcycle_golden.json``: for every case in :data:`CASES`,
both marked trace masks and both schedulers that tree still shipped,
the simulated cycles, the engine's ``stage_counts``, and the record
count and sha256 of the ``BinarySink`` byte stream.  On the current
tree the ``naive`` half is replayed on the tests' full-walk reference
(``tests/reference/full_walk.py``), the ``active`` half on the engine.

``tests/test_subcycle_golden.py`` replays the same runs on the current
tree, where one ``Vault.stage34`` walk serves both stage markers, and
requires every fingerprint to match.  Re-running this script on a later
tree would record that tree's behaviour and defeat the test — the
committed JSON is a historical artifact.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os

import repro.packets.packet as packet_mod
from repro.core.config import DeviceConfig, SimConfig
from repro.host.host import Host
from repro.topology.builder import build_chain
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
)
from tests.reference.full_walk import BUILD

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "subcycle_golden.json")

_SMALL = dict(num_links=4, num_banks=8, capacity=2)

#: name -> (DeviceConfig kwargs, num_devs, requests, SimConfig kwargs).
#: Multi-device cases are chains with one host link; requests alternate
#: between the root and the far cube.
CASES = {
    "4L8B2G": (_SMALL, 1, 400, {}),
    "4L16B4G": (dict(num_links=4, num_banks=16, capacity=4), 1, 400, {}),
    "8L8B4G": (dict(num_links=8, num_banks=8, capacity=4), 1, 400, {}),
    "8L16B8G": (dict(num_links=8, num_banks=16, capacity=8), 1, 400, {}),
    "chain3": (_SMALL, 3, 300, {}),
    "kitchen_sink": (dict(_SMALL, queue_depth=4, xbar_depth=8), 1, 400, dict(
        row_policy="open", refresh_interval=40, refresh_cycles=8,
        vault_issue_width=2, conflict_window=4, xbar_arbitration="rotating",
    )),
    "ecc": (dict(_SMALL, ecc_enabled=True), 1, 300,
            dict(ras_seed=11, ras_fit_rate=1e6, ras_scrub_interval=16)),
    "chain2_ber": (_SMALL, 2, 300, dict(link_ber=1e-5, link_seed=3)),
}

MASKS = {
    "ALL": EventType.ALL,
    "SUBCYCLE|BANK_CONFLICT": EventType.SUBCYCLE | EventType.BANK_CONFLICT,
}

SCHEDULERS = ("active", "naive")


def drive(case: str, scheduler: str, mask: EventType):
    """Run *case* to completion; returns ``(sim, binary_sink, buf, events)``.

    The trace goes to a ``BinarySink`` over *buf* and to a ``MemorySink``
    whose event list is returned.  The process-global packet serial
    counter is reset first so traces are comparable across runs.
    """
    dev_kw, num_devs, requests, sim_kw = CASES[case]
    device = DeviceConfig(**dev_kw)
    packet_mod._packet_serial = itertools.count()
    sim = BUILD[scheduler](
        SimConfig(device=device, num_devs=num_devs, **sim_kw))
    if num_devs > 1:
        build_chain(sim, host_links=1)
    else:
        for link in range(device.num_links):
            sim.attach_host(0, link)
    buf = io.BytesIO()
    sink = BinarySink(buf, num_vaults=device.num_vaults)
    memory = MemorySink()
    sim.tracer.mask = mask
    sim.tracer.add_sink(sink)
    sim.tracer.add_sink(memory)
    host = Host(sim)
    reqs = list(random_access_requests(
        device.capacity_bytes, RandomAccessConfig(num_requests=requests, seed=7)
    ))
    if num_devs > 1:
        host.run(iter(reqs[::2]), cub=0)
        host.run(iter(reqs[1::2]), cub=num_devs - 1)
    else:
        host.run(iter(reqs), cub=0)
    sim.run(64)  # idle tail: fast-forwarded only when no markers are on
    return sim, sink, buf, memory.events


def fingerprint(case: str, scheduler: str, mask: EventType) -> dict:
    sim, sink, buf, _ = drive(case, scheduler, mask)
    return {
        "cycles": sim.clock_value,
        "stage_counts": list(sim.engine.stage_counts),
        "trace_records": sink.records,
        "trace_sha256": hashlib.sha256(buf.getvalue()).hexdigest(),
    }


def main() -> None:
    golden = {
        f"{case}/{mask_name}/{scheduler}": fingerprint(case, scheduler, mask)
        for case in CASES
        for mask_name, mask in MASKS.items()
        for scheduler in SCHEDULERS
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} fingerprints -> {GOLDEN_PATH}")


if __name__ == "__main__":
    main()

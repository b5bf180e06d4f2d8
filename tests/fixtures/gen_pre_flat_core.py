"""Generate the pre-flat-core checkpoint compatibility fixture.

This script was run against the tree *before* the flat-core overhaul
changed ``Bank``'s pickled storage layout, producing:

- ``pre_flat_core_snapshot.bin`` — a :func:`snapshot_bundle` of a
  mid-flight simulation + host (queues loaded, banks dirty, tags
  outstanding) whose pickle stream still contains the dict-of-atoms
  bank storage.
- ``pre_flat_core_expect.json`` — the observable outcome of a
  deterministic continuation run performed on a *restored* copy of
  that snapshot: final cycle count, host counters, a fingerprint of
  the continuation's trace bytes, and a fingerprint of the final bank
  contents.

``tests/test_checkpoint_compat.py`` restores the committed blob on the
current tree and replays the same continuation; matching fingerprints
prove old blobs load into the new storage format and resume
bit-identically.  Re-running this script on a post-flat-core tree
would overwrite the fixture with a new-format blob and defeat the
test — the committed outputs are historical artifacts, keep them.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.core.checkpoint import restore_bundle, snapshot_bundle
from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BLOB_PATH = os.path.join(HERE, "pre_flat_core_snapshot.bin")
EXPECT_PATH = os.path.join(HERE, "pre_flat_core_expect.json")

#: Phase A (pre-snapshot): write-heavy so the banks hold real content.
PHASE_A = RandomAccessConfig(num_requests=768, read_fraction=0.25, seed=11)
#: Phase B (the continuation the compatibility test replays).
PHASE_B = RandomAccessConfig(num_requests=256, read_fraction=0.5, seed=12)


def build_sim():
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2, queue_depth=32)
    sim = HMCSim(SimConfig(device=device))
    for link in range(device.num_links):
        sim.attach_host(0, link)
    return sim, Host(sim)


def storage_fingerprint(sim: HMCSim) -> str:
    """sha256 over every materialised atom, in canonical order."""
    h = hashlib.sha256()
    for dev in sim.devices:
        for vault in dev.vaults:
            for bank in vault.banks:
                for atom in bank.touched_atoms():
                    w0, w1 = bank.atom_words(atom)
                    h.update(
                        f"{dev.dev_id}/{vault.vault_id}/{bank.bank_id}/"
                        f"{atom}:{w0}:{w1};".encode()
                    )
    return h.hexdigest()


def trace_fingerprint(events) -> str:
    """sha256 over the canonical dict form of every trace event."""
    h = hashlib.sha256()
    for ev in events:
        h.update(repr(sorted(ev.to_dict().items())).encode())
    return h.hexdigest()


#: The committed blob predates the serial counter in the snapshot (it
#: resumes past the serials it holds); the continuation numbers its new
#: packets from here, as the expectations were recorded.
CONTINUATION_SERIAL_BASE = 1 << 20


def run_continuation(sim: HMCSim, host: Host) -> dict:
    """Drive phase B on a restored (sim, host) and record observables."""
    sim.tracer.next_serial = CONTINUATION_SERIAL_BASE
    sim.set_trace_mask(EventType.STANDARD)
    sink = sim.add_trace_sink(MemorySink())
    stream = random_access_requests(sim.config.device.capacity_bytes, PHASE_B)
    result = host.run(stream, cub=0)
    return {
        "final_cycle": sim.clock_value,
        "packets_sent": sim.packets_sent,
        "packets_received": sim.packets_received,
        "requests_sent": result.requests_sent,
        "responses_received": result.responses_received,
        "errors_received": result.errors_received,
        "trace_events": len(sink.events),
        "trace_sha256": trace_fingerprint(sink.events),
        "storage_sha256": storage_fingerprint(sim),
    }


def main() -> None:
    sim, host = build_sim()
    stream = random_access_requests(sim.config.device.capacity_bytes, PHASE_A)
    # drain=False: leave requests in flight so the snapshot carries
    # loaded queues and outstanding tags, not just bank contents.
    host.run(stream, cub=0, drain=False)
    blob = snapshot_bundle(sim, host)
    with open(BLOB_PATH, "wb") as fh:
        fh.write(blob)

    # Replay the continuation on a *restored* copy — exactly what the
    # compatibility test does — so the expectations match its flow.
    sim2, (host2,) = restore_bundle(blob)
    expect = run_continuation(sim2, host2)
    expect["snapshot_cycle"] = sim.clock_value
    expect["blob_bytes"] = len(blob)
    with open(EXPECT_PATH, "w") as fh:
        json.dump(expect, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(expect, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()

"""Isolated probes: layers the drive loops give no boundary to time.

Each probe replays the workload's own request stream against one layer
in isolation, after the timed region, in the traced repetition only.
A probe's figure is a per-operation cost beside the layer's exact work
count, not a share of the timed wall (the same work also runs inside
the spans of :mod:`benchmarks.spine.timed`).
"""

from __future__ import annotations

from time import perf_counter

from repro.core.bank import Bank
from repro.core.checkpoint import restore, snapshot
from repro.packets.commands import REQUEST_DATA_BYTES, is_write
from repro.packets.crc import crc_words
from repro.packets.packet import build_memrequest

#: Requests the packet and bank probes replay.
PROBE_REQUESTS = 20_000


def generation(stream) -> tuple:
    """Drain the workload's request stream; ``(seconds, requests)``."""
    t = perf_counter()
    requests = list(stream)
    return perf_counter() - t, requests


def packets(requests: list) -> dict:
    requests = requests[:PROBE_REQUESTS]
    t = perf_counter()
    encoded = [
        build_memrequest(0, addr, i & 0x1FF, cmd, payload=payload).encode()
        for i, (cmd, addr, payload) in enumerate(requests)
    ]
    build_encode_s = perf_counter() - t
    t = perf_counter()
    for words in encoded:
        crc_words(words)
    crc_s = perf_counter() - t
    return {
        "packets.build_encode_us": build_encode_s / len(requests) * 1e6,
        "packets.crc_us": crc_s / len(requests) * 1e6,
    }


def bank(sim, requests: list) -> dict:
    """Standalone ``Bank.read``/``Bank.write`` over the decoded addresses."""
    device = sim.devices[0]
    amap = device.amap
    standalone = Bank(0, device.vaults[0].banks[0].capacity_bytes)
    ops = []
    for cmd, addr, payload in requests[:PROBE_REQUESTS]:
        d = amap.decode(addr % amap.capacity_bytes)
        rel = d.dram * amap.block_size + d.offset
        nbytes = REQUEST_DATA_BYTES[cmd]
        if is_write(cmd):
            ops.append((rel, list(payload or [0] * (nbytes // 8))))
        else:
            ops.append((rel, nbytes))
    t = perf_counter()
    for rel, arg in ops:
        if arg.__class__ is list:
            standalone.write(rel, arg)
        else:
            standalone.read(rel, arg)
    return {"core.bank.rw_us": (perf_counter() - t) / len(ops) * 1e6}


def checkpoint(sim) -> dict:
    t = perf_counter()
    blob = snapshot(sim)
    snapshot_s = perf_counter() - t
    t = perf_counter()
    restore(blob).free()
    restore_s = perf_counter() - t
    return {
        "core.checkpoint.snapshot_s": snapshot_s,
        "core.checkpoint.restore_s": restore_s,
        "core.checkpoint.blob_mb": len(blob) / 2**20,
    }

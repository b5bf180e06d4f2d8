"""The checkpoint format: ``HMCSNAP\\x02`` + CRC-32, one state shape per
class, version-1 blobs through ``repro.core.migrate``, and a restore
bounded by the simulation's own config.

* a version-1 blob (``tests/checkpoint_blobs.py::legacy_blob``) of a
  generated simulation — 1 or 2 cubes, link BER 0 or 2e-4, ECC on or
  off, traffic in flight — continues exactly like the current blob of
  the same state: cycles, ``stats()``, ``stage_counts``, trace bytes and
  storage, and it re-snapshots as the current version;
* a flipped payload bit fails the CRC; a flip the CRC does not see (a
  re-stamped blob) that moves a bank's DRAM count is refused by the
  config bounds, and so is a count no DRAM list could hold, at once;
* the packet serial counter travels in the blob, a blob without it
  resumes one past the largest serial it holds, and a counter that is
  not an int in [0, 2**62) is refused;
* both committed version-1 fixtures re-snapshot as version 2 and
  continue identically after that round trip.
"""

from __future__ import annotations

import hashlib
import io
import json
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import (
    MAGIC,
    _banks,
    restore,
    restore_bundle,
    snapshot,
    snapshot_bundle,
)
from repro.core.config import DeviceConfig, SimConfig
from repro.core.errors import CheckpointError
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.topology.builder import build_chain, build_simple
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from tests.checkpoint_blobs import V1, legacy_blob, restamp
from tests.fixtures import gen_page4k, gen_pre_flat_core

_RETIRED = {"workers", "shard_strategy", "scheduler"}

_REQUEST = st.tuples(
    st.sampled_from([CMD.WR16, CMD.RD16, CMD.WR64]),
    st.integers(0, 4095).map(lambda a: a * 64),
)

_CONTINUATION = [
    (CMD.WR16 if i % 3 else CMD.RD64, (i * 37 % 2048) * 64,
     [i, i + 1] if i % 3 else None)
    for i in range(64)
]


def _payload(cmd, addr):
    if cmd is CMD.RD16:
        return None
    return [addr, 1] if cmd is CMD.WR16 else [addr] * 8


def _sim(cubes: int, ber: float, ecc: bool, seed: int, requests) -> tuple:
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2, ecc_enabled=ecc)
    config = SimConfig(device=device, num_devs=cubes, link_ber=ber,
                       link_seed=seed, **(dict(ras_fit_rate=1e6,
                                               ras_scrub_interval=16)
                                          if ecc else {}))
    sim = HMCSim(config)
    sim = build_chain(sim, host_links=2) if cubes > 1 else build_simple(sim)
    host = Host(sim, seed=seed)
    host.run([(cmd, addr, _payload(cmd, addr)) for cmd, addr in requests],
             cub=cubes - 1, drain=False)
    return sim, host


def _continue(blob: bytes) -> dict:
    sim, (host,) = restore_bundle(blob)
    assert not _RETIRED & set(vars(sim.config))
    assert all(d.ras is None or d.ras.tracer is sim.tracer
               for d in sim.devices)
    # A legacy blob carries no serial counter: both resume from one pin.
    sim.tracer.next_serial = 1 << 20
    storage = hashlib.sha256()
    buf = io.BytesIO()
    sim.set_trace_mask(EventType.STANDARD)
    sim.add_trace_sink(BinarySink(buf, num_vaults=sim.config.device.num_vaults))
    host.run(_CONTINUATION, cub=0)
    sim.tracer.flush()
    for i, bank in enumerate(_banks(sim)):
        for pg, words, touched in bank.export_storage():
            storage.update(f"{i}/{pg}:".encode() + words.tobytes()
                           + touched.tobytes())
    return {
        "cycles": sim.clock_value,
        "stats": sim.stats(),
        "stage_counts": list(sim.engine.stage_counts),
        "trace": hashlib.sha256(buf.getvalue()).hexdigest(),
        "storage": storage.hexdigest(),
        "v2": snapshot_bundle(sim, host).startswith(MAGIC),
    }


@settings(max_examples=12, deadline=None)
@given(cubes=st.integers(1, 2), ber=st.sampled_from([0.0, 2e-4]),
       ecc=st.booleans(), seed=st.integers(1, 1 << 16),
       requests=st.lists(_REQUEST, min_size=1, max_size=40))
def test_legacy_blob_continues_like_the_current_blob(
    cubes, ber, ecc, seed, requests
):
    sim, host = _sim(cubes, ber, ecc, seed, requests)
    old = legacy_blob(sim, host)
    assert old.startswith(V1) and b"_storage_v2" in old
    want = _continue(snapshot_bundle(sim, host))
    assert _continue(old) == want and want["v2"]


def _cube() -> HMCSim:
    sim = build_simple(HMCSim(SimConfig(device=DeviceConfig(
        num_links=4, num_banks=8, capacity=2))))
    Host(sim).run([(CMD.WR16, a * 64, [a, a]) for a in range(16)])
    return sim


def test_a_flipped_payload_bit_fails_the_crc():
    blob = snapshot(_cube())
    assert restore(blob).clock_value > 0
    for pos in (len(MAGIC) + 4, len(blob) // 2, len(blob) - 1):
        bad = bytearray(blob)
        bad[pos] ^= 0x01
        with pytest.raises(CheckpointError, match="CRC-32"):
            restore(bytes(bad))


def test_flips_the_crc_does_not_see_are_caught_by_the_config_bounds():
    sim = _cube()
    blob = snapshot(sim)
    # A bank's flat state: ... num_drams (8), _page_words (16), ...
    pos = blob.index(b"K\x08K\x10") + 1
    bad = bytearray(blob)
    bad[pos] ^= 0x80  # 8 DRAMs -> 136: the stream still parses
    with pytest.raises(CheckpointError, match="bank #0 holds .* in 136 DRAMs"):
        restore(restamp(bytes(bad)))
    # A count no DRAM list could hold: nothing is built from it.
    _banks(sim)[3].num_drams = 1 << 40
    t0 = time.perf_counter()
    with pytest.raises(CheckpointError, match="bank #3 holds"):
        restore(snapshot(sim))
    assert time.perf_counter() - t0 < 1.0


def test_the_serial_counter_travels_and_an_old_blob_resumes_past_its_packets():
    sim, host = _sim(1, 0.0, False, 1, [(CMD.RD16, a * 64) for a in range(40)])
    held = [p.serial for d in sim.devices for unit in (*d.xbars, *d.vaults)
            for q in (unit.rqst, unit.rsp) for p in q]
    assert held
    sim.tracer.next_serial = 1000  # more numbered than still held
    assert restore(snapshot(sim)).tracer.next_serial == 1000
    old, _ = restore_bundle(legacy_blob(sim, host))
    assert old.tracer.next_serial == max(held) + 1


@pytest.mark.parametrize("counter", [True, -1, 2.0, "7", 1 << 62, 1 << 63])
def test_a_serial_counter_that_is_not_a_non_negative_int_is_refused(counter):
    sim = _cube()
    sim.tracer.next_serial = counter
    for load, blob in ((restore, snapshot(sim)),
                       (restore_bundle, snapshot_bundle(sim))):
        with pytest.raises(CheckpointError, match="serial counter"):
            load(blob)


@pytest.mark.parametrize("gen", [gen_pre_flat_core, gen_page4k],
                         ids=["pre_flat_core", "page4k"])
def test_v1_fixture_resnapshots_as_v2_and_continues_identically(gen):
    with open(gen.BLOB_PATH, "rb") as fh:
        blob = fh.read()
    with open(gen.EXPECT_PATH) as fh:
        expect = json.load(fh)
    assert blob.startswith(V1)
    sim, (host,) = restore_bundle(blob)
    again = snapshot_bundle(sim, host)
    assert again.startswith(MAGIC)
    sim, (host,) = restore_bundle(again)
    got = gen_pre_flat_core.run_continuation(sim, host)
    for key, want in expect.items():
        if key not in ("blob_bytes", "snapshot_cycle", "page_words"):
            assert got[key] == want, key


"""Generated vault states, for the tests that walk ``Vault.stage34``
over them: tests/test_vault_walk_reference.py (the C walk against the
reference walk) and tests/test_vault.py (one call against its halves).

:func:`cases` draws a vault: a request queue of every kind a vault
queue can hold, on either address-map class (the C computes the classic
map's fields itself and calls a custom map back), with page-crossing
offsets and payload words outside [0, 2**64); busy banks; a response
queue from full to empty; ECC on or off; a tracer mask.  :func:`build`
makes it and :func:`state` reads back everything a walk may change.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from hypothesis import strategies as st

from repro.addressing.address_map import AddressMap
from repro.addressing.custom import BitPermutationMap
from repro.core.bank import Bank
from repro.core.vault import Vault
from repro.packets.commands import CMD
from repro.packets.packet import Packet, build_memrequest
from repro.ras.controller import RasController
from repro.registers.regdefs import index_by_name, physical_index
from repro.registers.regfile import RegisterFile
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink, Sink, Tracer

_SHAPE = dict(num_vaults=16, num_banks=8, block_size=64, capacity_bytes=2 << 30)
#: The classic map (the C walk's own arithmetic) and a custom bit
#: permutation (``bank_of`` / ``decode`` / ``dram_of`` called back).
AMAPS = {
    "classic": AddressMap(**_SHAPE),
    "custom": BitPermutationMap.from_field_order(
        ("offset", "bank", "vault", "dram"), **_SHAPE),
}
#: Four 64-byte rows per bank, two 128-byte pages: rows 4 and 5 fall
#: past the bank's end, and a 64-byte access at offset 16-48 of row 1
#: crosses into the second page.
_BANK_BYTES = 256
_ROWS = 6
DEPTH = 6
_EDR0 = physical_index(index_by_name("EDR0"))
#: A cube id the replies must echo (0 is also the packet default).
_CUB = 3
MASKS = {
    "off": EventType.NONE,
    "conflict": EventType.BANK_CONFLICT,
    "all": EventType.ALL,
}

#: kind -> (command, payload words); every kind a vault queue can hold.
_KINDS = {
    "read16": (CMD.RD16, None),
    "read64": (CMD.RD64, None),
    "write16": (CMD.WR16, [3, 4]),
    "write64": (CMD.WR64, [7] * 8),
    "posted_write": (CMD.P_WR32, [9] * 4),
    "atomic": (CMD.ADD16, [3, 4]),
    "twoadd8": (CMD.TWOADD8, [1, 2]),
    "posted_atomic": (CMD.P_2ADD8, [5, 6]),
    "bwr": (CMD.BWR, [0x1122334455667788, 0x0F]),
    "posted_bwr": (CMD.P_BWR, [0xFFFF, 0xF0]),
    "mode_read": (CMD.MD_RD, None),
    "mode_write": (CMD.MD_WR, [0xBEEF, 0]),
    "flow": (None, None),
}
#: Words a payload may carry past the builder's mask: the bank stores
#: each one mod 2**64.
_WILD = [-1, -(1 << 64) - 5, 1 << 64, (1 << 70) + 3, (1 << 64) - 1]

FIELDS = tuple(f.name for f in dataclasses.fields(Packet))
VAULT_SCALARS = tuple(n for n in Vault.__slots__
                      if n not in ("device", "banks", "rqst", "rsp"))


@st.composite
def cases(draw, masks=tuple(sorted(MASKS))):
    requests = draw(st.lists(
        st.tuples(
            st.sampled_from(sorted(_KINDS)),
            st.integers(0, 7),  # bank
            st.integers(0, _ROWS - 1),  # row (4, 5: past the bank's end)
            # byte offset: 8 and 24 misaligned; 16-48 cross a page
            # boundary for a 64-byte access at row 1
            st.sampled_from([0, 0, 0, 8, 16, 24, 32, 48]),
            # payload words past [0, 2**64), or the kind's own
            st.none() | st.lists(st.sampled_from(_WILD), min_size=1,
                                 max_size=2),
        ),
        min_size=1, max_size=DEPTH,
    ))
    return {
        "requests": requests,
        "busy": draw(st.dictionaries(st.integers(0, 7), st.integers(1, 6),
                                     max_size=8)),
        "cycle": draw(st.integers(0, 6)),
        # Response queue full, 1 or 2 slots from full, half full or empty.
        "rsp_room": draw(st.sampled_from([0, 1, 2, DEPTH // 2, DEPTH])),
        "width": draw(st.integers(1, 4)),
        "window": draw(st.integers(1, 8)),
        "row_timing": draw(st.sampled_from([None, (4, 16)])),
        "cycles": draw(st.integers(1, 4)),
        "amap": draw(st.sampled_from(sorted(AMAPS))),
        "ras": draw(st.booleans()),
        "mask": draw(st.sampled_from(masks)),
    }


class _Batches(Sink):
    """Records the size of every batch the tracer delivers."""

    def __init__(self) -> None:
        self.sizes = []

    def emit_tuples(self, entries: list) -> None:
        self.sizes.append(len(entries))


def _attach_ras(v, tracer):
    """ECC on every bank, with seeded stuck cells and a failed row that
    land inside these small banks."""
    device = SimpleNamespace(
        vaults=[v], dev_id=0,
        config=SimpleNamespace(num_vaults=1, num_banks=len(v.banks),
                               bank_bytes=_BANK_BYTES))
    config = SimpleNamespace(ras_scrub_interval=0, ras_scrub_rows=1,
                             ras_seed=7, ras_fit_rate=0.0,
                             ras_stuck_cells=6, ras_row_faults=1)
    return RasController(device, config, tracer)


def build(cls, case):
    """A *cls* vault in the drawn state plus the tracer recording its walk."""
    amap = AMAPS[case["amap"]]
    v = cls(vault_id=0, quad_id=0, num_banks=8, bank_bytes=_BANK_BYTES,
            num_drams=8, queue_depth=DEPTH,
            device=SimpleNamespace(regs=RegisterFile()))
    tracer = Tracer(mask=MASKS[case["mask"]])
    tracer.add_sink(MemorySink())
    tracer.add_sink(_Batches())
    if case["ras"]:
        _attach_ras(v, tracer)
    for bank, cycles in case["busy"].items():
        v.banks[bank].occupy(0, cycles)
    for tag, (kind, bank, row, offset, wild) in enumerate(case["requests"]):
        cmd, payload = _KINDS[kind]
        if cmd is None:
            pkt = Packet(cmd=CMD.NULL)
        elif kind.startswith("mode"):
            pkt = build_memrequest(_CUB, _EDR0, tag, cmd, payload=payload)
        else:
            addr = amap.encode(0, bank, row, 0) + offset
            pkt = build_memrequest(_CUB, addr, tag, cmd, payload=payload,
                                   link=tag % 4)
            if wild and pkt.payload:
                words = list(pkt.payload)
                words[: len(wild)] = wild
                pkt.payload = tuple(words)
        # As a chained injection leaves it: numbered, two route records.
        pkt.serial = tracer.next_serial
        tracer.next_serial += 1
        pkt.route_stack = [(1, tag % 4), (0, 2)]
        pkt.injected_at = tag
        pkt.ingress_link = tag % 4
        pkt.hops = 1
        assert v.rqst.push(pkt)
    for tag in range(DEPTH - case["rsp_room"]):
        filler = build_memrequest(0, 0, 100 + tag, CMD.RD16)
        filler.route_stack = [(0, 0)]
        assert v.rsp.push(filler)
    return v, amap, tracer


def _bank_state(b: Bank):
    return (
        Bank._ints(b),
        sorted(b._dirty),
        [(pg, w.tolist(), t.tolist()) for pg, w, t in b.export_storage()],
        None if b.ras is None else sorted(b.ras.checks.items()),
    )


def state(v, tracer) -> dict:
    """The queues, replies, counters, banks, registers and trace of *v*."""
    return {
        "rqst": [p.serial for p in v.rqst],
        "rqst_queue": v.rqst.__getstate__()[3:],
        "rsp": [tuple(getattr(p, f) for f in FIELDS) for p in v.rsp],
        "rsp_queue": v.rsp.__getstate__()[3:],
        "serial_next": tracer.next_serial,
        "vault": tuple(getattr(v, n) for n in VAULT_SCALARS),
        "banks": [_bank_state(b) for b in v.banks],
        "regs": v.device.regs.snapshot(),
        "events": [(e.type, e.cycle, e.dev, e.quad, e.vault, e.bank, e.serial,
                    e.extra) for e in tracer.sinks[0].events],
        "emitted": (tracer.emitted, tracer.dropped),
        "batches": tracer.sinks[1].sizes,
    }

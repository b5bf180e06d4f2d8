"""The engine's vault walk vs the reference walk (tests/reference/vault_walk.py).

``Vault.stage34`` builds READ / WRITE replies from the response layout
table, tracks response-queue room as a local and pushes replies without
``PacketQueue.push``; :class:`ReferenceVault` is the walk as it stood
before, every reply through ``build_response``.  Driven over generated
queues for several cycles, the two must leave identical request and
response queues (every reply slot, serials included), counters, trace
events and bank state.
"""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import repro.packets.packet as packet_mod
from repro.addressing.address_map import AddressMap
from repro.core.vault import Vault
from repro.packets.commands import CMD
from repro.packets.flow import make_null
from repro.packets.packet import Packet, build_memrequest
from repro.registers.regdefs import index_by_name, physical_index
from repro.registers.regfile import RegisterFile
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink, Tracer
from tests.reference.vault_walk import ReferenceVault

_AMAP = AddressMap(num_vaults=16, num_banks=8, block_size=64,
                   capacity_bytes=2 << 30)
#: Four 64-byte rows per bank: rows 4 and 5 fall past the bank's end.
_BANK_BYTES = 256
_ROWS = 6
_DEPTH = 6
_EDR0 = physical_index(index_by_name("EDR0"))
#: A cube id the replies must echo (0 is also the packet default).
_CUB = 3

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

_FIELDS = tuple(f.name for f in dataclasses.fields(Packet))


@st.composite
def _cases(draw):
    requests = draw(st.lists(
        st.tuples(
            st.sampled_from(sorted(_KINDS)),
            st.integers(0, 7),  # bank
            st.integers(0, _ROWS - 1),  # row (4, 5: past the bank's end)
            st.sampled_from([0, 0, 0, 8, 24]),  # byte offset (8, 24: misaligned)
        ),
        min_size=1, max_size=_DEPTH,
    ))
    return {
        "requests": requests,
        "busy": draw(st.dictionaries(st.integers(0, 7), st.integers(1, 6),
                                     max_size=8)),
        "cycle": draw(st.integers(0, 6)),
        # Response queue 0, 1 or 2 slots from full.
        "rsp_room": draw(st.integers(0, 2)),
        "width": draw(st.integers(1, 4)),
        "window": draw(st.integers(1, 8)),
        "row_timing": draw(st.sampled_from([None, (4, 16)])),
        "cycles": draw(st.integers(1, 4)),
    }


def _build(cls, case):
    """A *cls* vault in the drawn state plus the tracer recording its walk."""
    packet_mod._packet_serial = itertools.count()
    v = cls(vault_id=0, quad_id=0, num_banks=8, bank_bytes=_BANK_BYTES,
            num_drams=8, queue_depth=_DEPTH,
            device=SimpleNamespace(regs=RegisterFile()))
    for bank, cycles in case["busy"].items():
        v.banks[bank].occupy(0, cycles)
    for tag, (kind, bank, row, offset) in enumerate(case["requests"]):
        cmd, payload = _KINDS[kind]
        if cmd is None:
            pkt = make_null()
        elif kind.startswith("mode"):
            pkt = build_memrequest(_CUB, _EDR0, tag, cmd, payload=payload)
        else:
            addr = _AMAP.encode(0, bank, row, 0) + offset
            pkt = build_memrequest(_CUB, addr, tag, cmd, payload=payload,
                                   link=tag % 4)
        # As a chained injection leaves it: two route records.
        pkt.route_stack = [(1, tag % 4), (0, 2)]
        pkt.injected_at = tag
        pkt.ingress_link = tag % 4
        pkt.hops = 1
        assert v.rqst.push(pkt)
    for tag in range(_DEPTH - case["rsp_room"]):
        filler = build_memrequest(0, 0, 100 + tag, CMD.RD16)
        filler.route_stack = [(0, 0)]
        assert v.rsp.push(filler)
    tracer = Tracer(mask=EventType.ALL)
    tracer.add_sink(MemorySink())
    return v, tracer


def _run(cls, case):
    """Walk *cls*'s vault for the drawn cycles; return what it left behind.

    Between cycles the oldest reply leaves, so later cycles find room.
    """
    v, tracer = _build(cls, case)
    requests = list(v.rqst)
    walks = []
    for step in range(case["cycles"]):
        walks.append(v.stage34(case["cycle"] + step, _AMAP, case["window"],
                               case["width"], 3, tracer, 0,
                               case["row_timing"]))
        if step % 2 and v.rsp._q:
            v.rsp.pop()
    left = {
        "walks": walks,
        "rqst": [p.serial for p in v.rqst], "rqst_stamps": list(v.rqst._stamps),
        "rsp": [tuple(getattr(p, f) for f in _FIELDS) for p in v.rsp],
        "rsp_stamps": list(v.rsp._stamps),
        "rsp_queue": (v.rsp.total_enqueued, v.rsp.total_dequeued,
                      v.rsp.high_water),
        "serial_next": next(packet_mod._packet_serial),
        "counters": (v.conflict_count, v.issue_stall_cycles, v.rsp_stall_count,
                     v.rd_count, v.wr_count, v.atomic_count, v.mode_count,
                     v._busy_mask, v._next_free),
        "banks": [
            (b.busy_until, b.open_row, b.reads, b.writes, b.atomics,
             b.row_hits, b.row_misses, b.conflicts,
             [(pg, w.tolist(), t.tolist()) for pg, w, t in b.export_storage()])
            for b in v.banks
        ],
        "regs": v.device.regs.snapshot(),
        "events": [(e.type, e.cycle, e.dev, e.quad, e.vault, e.bank, e.serial,
                    e.extra) for e in tracer.sinks[0].events],
    }
    # Stage 5 pops each reply's route record; a reply holds a copy of
    # its request's stack, so the requests keep theirs.
    for rsp in v.rsp:
        rsp.route_stack.pop()
    left["request_stacks"] = [p.route_stack for p in requests]
    return left


class TestEngineWalkEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(case=_cases())
    def test_generated_queues(self, case):
        assert _run(Vault, case) == _run(ReferenceVault, case)

    def test_cases_reach_every_reply_shape(self):
        """The strategy's corners the property relies on, pinned once."""
        case = {
            "requests": [("read64", 0, 0, 0), ("write16", 1, 0, 0),
                         ("read16", 2, 5, 0), ("write64", 3, 0, 8),
                         ("bwr", 4, 0, 8), ("mode_read", 0, 0, 0)],
            "busy": {}, "cycle": 0, "rsp_room": 2, "width": 4, "window": 8,
            "row_timing": None, "cycles": 3,
        }
        ours = _run(Vault, case)
        assert ours == _run(ReferenceVault, case)
        cmds = [rsp[_FIELDS.index("cmd")] for rsp in ours["rsp"]]
        # A read and a write reply from the layout table, an out-of-range
        # read, a misaligned write and an aligned BWR after them.
        assert CMD.RD_RS in cmds and CMD.WR_RS in cmds and CMD.ERROR in cmds
        assert all(stack == [(1, i % 4), (0, 2)]
                   for i, stack in enumerate(ours["request_stacks"]))

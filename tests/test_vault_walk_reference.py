"""The engine's vault walk vs the reference walk (tests/reference/vault_walk.py).

``Vault.stage34`` is C (``_vaultwalk.c``): it builds READ / WRITE
replies from per-command prototypes, tracks response-queue room as a
local, pushes replies without ``PacketQueue.push`` and reads and writes
bank rows through the buffer protocol; :class:`ReferenceVault` is the
walk as it stood in Python, every reply through ``build_response`` and
every bank row through the Python ``Bank.read`` / ``Bank.write``.
Driven over generated queues for several cycles, the two must leave
identical request and response queues (every reply slot, serials
included), vault and bank slots, dirty pages, ECC check bits, trace
events and bank contents.

The strategy covers both address-map classes (the C computes the
classic map's fields itself and calls a custom map back), ECC-enabled
banks, payload words outside [0, 2**64), page-crossing offsets and three
tracer masks.  Tier-1 runs 300 examples; ``--hypothesis-profile=deep``
runs 1,000.
"""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import repro.packets.packet as packet_mod
from repro.addressing.address_map import AddressMap
from repro.addressing.custom import BitPermutationMap
from repro.core.bank import Bank
from repro.core.vault import Vault
from repro.packets.commands import CMD
from repro.packets.flow import make_null
from repro.packets.packet import Packet, build_memrequest
from repro.ras.controller import RasController
from repro.registers.regdefs import index_by_name, physical_index
from repro.registers.regfile import RegisterFile
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink, Tracer
from tests.reference.vault_walk import ReferenceVault

_SHAPE = dict(num_vaults=16, num_banks=8, block_size=64, capacity_bytes=2 << 30)
#: The classic map (the C walk's own arithmetic) and a custom bit
#: permutation (``bank_of`` / ``decode`` / ``dram_of`` called back).
_AMAPS = {
    "classic": AddressMap(**_SHAPE),
    "custom": BitPermutationMap.from_field_order(
        ("offset", "bank", "vault", "dram"), **_SHAPE),
}
#: Four 64-byte rows per bank, two 128-byte pages: rows 4 and 5 fall
#: past the bank's end, and a 64-byte access at offset 16-48 of row 1
#: crosses into the second page.
_BANK_BYTES = 256
_ROWS = 6
_DEPTH = 6
_EDR0 = physical_index(index_by_name("EDR0"))
#: A cube id the replies must echo (0 is also the packet default).
_CUB = 3
_MASKS = {
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

_FIELDS = tuple(f.name for f in dataclasses.fields(Packet))
_VAULT_SCALARS = tuple(n for n in Vault.__slots__
                       if n not in ("device", "banks", "rqst", "rsp"))


@st.composite
def _cases(draw):
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
        "amap": draw(st.sampled_from(sorted(_AMAPS))),
        "ras": draw(st.booleans()),
        "mask": draw(st.sampled_from(sorted(_MASKS))),
    }


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


def _build(cls, case):
    """A *cls* vault in the drawn state plus the tracer recording its walk."""
    packet_mod._packet_serial = itertools.count()
    amap = _AMAPS[case["amap"]]
    v = cls(vault_id=0, quad_id=0, num_banks=8, bank_bytes=_BANK_BYTES,
            num_drams=8, queue_depth=_DEPTH,
            device=SimpleNamespace(regs=RegisterFile()))
    tracer = Tracer(mask=_MASKS[case["mask"]])
    tracer.add_sink(MemorySink())
    if case["ras"]:
        _attach_ras(v, tracer)
    for bank, cycles in case["busy"].items():
        v.banks[bank].occupy(0, cycles)
    for tag, (kind, bank, row, offset, wild) in enumerate(case["requests"]):
        cmd, payload = _KINDS[kind]
        if cmd is None:
            pkt = make_null()
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
    return v, amap, tracer


def _bank_state(b: Bank):
    return (
        Bank._ints(b),
        sorted(b._dirty),
        [(pg, w.tolist(), t.tolist()) for pg, w, t in b.export_storage()],
        None if b.ras is None else sorted(b.ras.checks.items()),
    )


def _run(cls, case):
    """Walk *cls*'s vault for the drawn cycles; return what it left behind.

    Between cycles the oldest reply leaves, so later cycles find room.
    """
    v, amap, tracer = _build(cls, case)
    requests = list(v.rqst)
    walks = []
    for step in range(case["cycles"]):
        walks.append(v.stage34(case["cycle"] + step, amap, case["window"],
                               case["width"], 3, tracer, 0,
                               case["row_timing"]))
        if step % 2 and v.rsp._q:
            v.rsp.pop()
    left = {
        "walks": walks,
        "rqst": [p.serial for p in v.rqst],
        "rqst_queue": v.rqst.__getstate__()[3:],
        "rsp": [tuple(getattr(p, f) for f in _FIELDS) for p in v.rsp],
        "rsp_queue": v.rsp.__getstate__()[3:],
        "serial_next": next(packet_mod._packet_serial),
        "vault": tuple(getattr(v, n) for n in _VAULT_SCALARS),
        "banks": [_bank_state(b) for b in v.banks],
        "regs": v.device.regs.snapshot(),
        "events": [(e.type, e.cycle, e.dev, e.quad, e.vault, e.bank, e.serial,
                    e.extra) for e in tracer.sinks[0].events],
        "emitted": (tracer.emitted, tracer.dropped),
    }
    # Stage 5 pops each reply's route record; a reply holds a copy of
    # its request's stack, so the requests keep theirs.
    for rsp in v.rsp:
        rsp.route_stack.pop()
    left["request_stacks"] = [p.route_stack for p in requests]
    return left


class TestEngineWalkEqualsReference:
    # 300 examples, or the loaded profile's count when it asks for more
    # (``--hypothesis-profile=deep``: 1,000; tests/conftest.py).
    @settings(max_examples=max(300, settings.default.max_examples),
              deadline=None)
    @given(case=_cases())
    def test_generated_queues(self, case):
        assert _run(Vault, case) == _run(ReferenceVault, case)

    def test_cases_reach_every_reply_shape(self):
        """The strategy's corners the property relies on, pinned once."""
        case = {
            "requests": [("read64", 0, 0, 0, None), ("write16", 1, 0, 0, None),
                         ("read16", 2, 5, 0, None), ("write64", 3, 0, 8, None),
                         ("bwr", 4, 0, 8, None), ("mode_read", 0, 0, 0, None)],
            "busy": {}, "cycle": 0, "rsp_room": 2, "width": 4, "window": 8,
            "row_timing": None, "cycles": 3, "amap": "classic", "ras": False,
            "mask": "all",
        }
        ours = _run(Vault, case)
        assert ours == _run(ReferenceVault, case)
        cmds = [rsp[_FIELDS.index("cmd")] for rsp in ours["rsp"]]
        # A read and a write reply from the layout table, an out-of-range
        # read, a misaligned write and an aligned BWR after them.
        assert CMD.RD_RS in cmds and CMD.WR_RS in cmds and CMD.ERROR in cmds
        assert all(stack == [(1, i % 4), (0, 2)]
                   for i, stack in enumerate(ours["request_stacks"]))

    def test_cases_reach_the_wider_corners(self):
        """A page-crossing write of out-of-range words and a
        page-crossing read, on ECC banks behind the custom map."""
        case = {
            "requests": [("write64", 1, 1, 32, [-1, 1 << 64]),
                         ("read64", 2, 1, 16, None)],
            "busy": {}, "cycle": 0, "rsp_room": 2, "width": 4, "window": 8,
            "row_timing": (4, 16), "cycles": 1, "amap": "custom", "ras": True,
            "mask": "conflict",
        }
        ours = _run(Vault, case)
        assert ours == _run(ReferenceVault, case)
        written = ours["banks"][1]
        assert written[1] == [0, 1]  # both pages dirty
        words = [w for _, page, _ in written[2] for w in page]
        assert (1 << 64) - 1 in words and words.count(0) >= 1
        assert written[3]  # ECC check bits were encoded
        fields = dict(zip(Bank._INT_SLOTS, written[0]))
        assert fields["column_fetches"] == 2 and fields["dram_access_count"] == 1

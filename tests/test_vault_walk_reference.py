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
events, ``Tracer.emitted`` and bank contents.  The C walk appends its
events to the tracer's buffer itself: outside a batch window each one
must reach the sinks as a batch of its own, as ``emit_fast`` delivers.

The vault states are drawn by tests/vault_states.py.  Tier-1 runs 300
examples; ``--hypothesis-profile=deep`` runs 1,000.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.bank import Bank
from repro.core.vault import Vault
from repro.packets.commands import CMD
from tests.reference.vault_walk import ReferenceVault
from tests.vault_states import FIELDS, build, cases, state


def _run(cls, case):
    """Walk *cls*'s vault for the drawn cycles; return what it left behind.

    Between cycles the oldest reply leaves, so later cycles find room.
    """
    v, amap, tracer = build(cls, case)
    requests = list(v.rqst)
    walks = []
    for step in range(case["cycles"]):
        walks.append(v.stage34(case["cycle"] + step, amap, case["window"],
                               case["width"], 3, tracer, 0,
                               case["row_timing"]))
        if step % 2 and v.rsp._q:
            v.rsp.pop()
    left = {"walks": walks, **state(v, tracer)}
    # Outside a batch window (``_limit == 1``) each event the walk
    # appends to the tracer's buffer is flushed on its own.
    assert tracer._limit == 1 and not tracer._buf
    assert left["batches"] == [1] * tracer.emitted
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
    @given(case=cases())
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
        cmds = [rsp[FIELDS.index("cmd")] for rsp in ours["rsp"]]
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

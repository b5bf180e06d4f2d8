"""Unit tests for vault logic (repro.core.vault): conflict recognition
(stage 3) and request processing (stage 4), both driven through the one
walk the engine runs, ``Vault.stage34``."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.packets.packet as packet_mod

from repro.addressing.address_map import AddressMap
from repro.core.vault import Vault
from repro.packets.commands import CMD
from repro.packets.flow import make_null
from repro.packets.packet import ErrStat, build_memrequest
from repro.registers.regdefs import physical_index, index_by_name
from repro.registers.regfile import RegisterFile
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink, Tracer

GB = 1 << 30


@pytest.fixture
def amap():
    return AddressMap(num_vaults=16, num_banks=8, block_size=64, capacity_bytes=2 * GB)


@pytest.fixture
def tracer():
    t = Tracer(mask=EventType.ALL)
    t.add_sink(MemorySink())
    return t


def mk_vault(queue_depth=8, banks=8, device=None):
    return Vault(
        vault_id=0, quad_id=0, num_banks=banks, bank_bytes=16 << 20,
        num_drams=8, queue_depth=queue_depth, device=device,
    )


def recognize(v, cycle, amap, window, tracer, dev_id):
    """Stage 3 alone: the walk with issue width 0."""
    return v.stage34(cycle, amap, window, 0, 0, tracer, dev_id)[0]


def process(v, cycle, amap, issue_width, bank_busy_cycles, tracer, dev_id):
    """Stage 4 alone: the walk with a conflict window of 0."""
    return v.stage34(cycle, amap, 0, issue_width, bank_busy_cycles, tracer,
                     dev_id)[1]


def addr_for_bank(amap, bank, dram=0):
    return amap.encode(0, bank, dram, 0)


def rd(amap, bank, tag=0, dram=0):
    return build_memrequest(0, addr_for_bank(amap, bank, dram), tag, CMD.RD64)


def wr(amap, bank, tag=0, data=None, dram=0):
    return build_memrequest(
        0, addr_for_bank(amap, bank, dram), tag, CMD.WR64, payload=data or [1] * 8
    )


class TestConflictRecognition:
    def test_no_conflicts_across_distinct_banks(self, amap, tracer):
        v = mk_vault()
        for b in range(4):
            v.rqst.push(rd(amap, b))
        assert recognize(v, 0, amap, window=8, tracer=tracer, dev_id=0) == 0

    def test_same_bank_in_window_conflicts(self, amap, tracer):
        v = mk_vault()
        v.rqst.push(rd(amap, 3))
        v.rqst.push(rd(amap, 3, dram=1))
        n = recognize(v, 0, amap, window=8, tracer=tracer, dev_id=0)
        assert n == 1
        sink = tracer.sinks[0]
        events = [e for e in sink.events if e.type is EventType.BANK_CONFLICT]
        assert len(events) == 1
        assert events[0].bank == 3
        assert events[0].vault == 0

    def test_busy_bank_conflicts(self, amap, tracer):
        v = mk_vault()
        v.banks[2].occupy(cycle=0, busy_cycles=5)
        v.rqst.push(rd(amap, 2))
        assert recognize(v, 3, amap, 8, tracer, 0) == 1

    def test_window_limits_scan(self, amap, tracer):
        v = mk_vault()
        v.rqst.push(rd(amap, 0))
        v.rqst.push(rd(amap, 1))
        v.rqst.push(rd(amap, 0, dram=1))  # conflicts with head, outside window 2
        assert recognize(v, 0, amap, window=2, tracer=tracer, dev_id=0) == 0
        assert recognize(v, 0, amap, window=3, tracer=tracer, dev_id=0) == 1

    def test_read_only_pass(self, amap, tracer):
        """Paper IV.C.3: stage 3 does not modify internal data."""
        v = mk_vault()
        v.rqst.push(rd(amap, 0))
        v.rqst.push(rd(amap, 0, dram=1))
        before = list(v.rqst)
        recognize(v, 0, amap, 8, tracer, 0)
        assert list(v.rqst) == before
        assert len(v.rsp) == 0

    def test_empty_queue(self, amap, tracer):
        v = mk_vault()
        assert recognize(v, 0, amap, 8, tracer, 0) == 0


class TestRequestProcessing:
    def test_read_generates_response(self, amap, tracer):
        v = mk_vault()
        v.rqst.push(rd(amap, 1, tag=42))
        n = process(v, 0, amap, issue_width=4, bank_busy_cycles=2,
                    tracer=tracer, dev_id=0)
        assert n == 1
        assert v.rd_count == 1
        rsp = v.rsp.pop()
        assert rsp.cmd is CMD.RD_RS
        assert rsp.tag == 42

    def test_write_then_read_data(self, amap, tracer):
        v = mk_vault()
        data = list(range(8))
        v.rqst.push(wr(amap, 1, tag=1, data=data))
        process(v, 0, amap, 4, 0, tracer, 0)
        v.rqst.push(rd(amap, 1, tag=2))
        process(v, 1, amap, 4, 0, tracer, 0)
        v.rsp.pop()  # write response
        rsp = v.rsp.pop()
        assert list(rsp.payload) == data

    def test_issue_width_caps_per_cycle(self, amap, tracer):
        v = mk_vault()
        for b in range(6):
            v.rqst.push(rd(amap, b))
        assert process(v, 0, amap, issue_width=2, bank_busy_cycles=0,
                       tracer=tracer, dev_id=0) == 2
        assert len(v.rqst) == 4

    def test_busy_bank_blocks_issue(self, amap, tracer):
        v = mk_vault()
        v.banks[0].occupy(0, busy_cycles=4)
        v.rqst.push(rd(amap, 0))
        assert process(v, 0, amap, 4, 4, tracer, 0) == 0
        assert v.issue_stall_cycles == 1
        # After the busy window the packet issues.
        assert process(v, 4, amap, 4, 4, tracer, 0) == 1

    def test_same_bank_packets_never_reorder(self, amap, tracer):
        """Spec: reorder points must preserve the stream order from a
        link to a specific bank."""
        v = mk_vault()
        v.rqst.push(wr(amap, 0, tag=1, data=[111] * 8))
        v.rqst.push(wr(amap, 0, tag=2, data=[222] * 8))
        v.rqst.push(rd(amap, 0, tag=3))
        # With busy banks, at most one same-bank packet per cycle, in order.
        cycle = 0
        tags = []
        while len(tags) < 3 and cycle < 50:
            process(v, cycle, amap, 4, 2, tracer, 0)
            while not v.rsp.is_empty:
                tags.append(v.rsp.pop().tag)
            cycle += 1
        assert tags == [1, 2, 3]

    def test_different_banks_issue_in_parallel(self, amap, tracer):
        v = mk_vault()
        for b in range(4):
            v.rqst.push(rd(amap, b))
        assert process(v, 0, amap, 4, 8, tracer, 0) == 4

    def test_blocked_head_does_not_block_other_banks(self, amap, tracer):
        v = mk_vault()
        v.banks[0].occupy(0, busy_cycles=10)
        v.rqst.push(rd(amap, 0, tag=1))
        v.rqst.push(rd(amap, 1, tag=2))
        assert process(v, 0, amap, 4, 10, tracer, 0) == 1
        assert v.rsp.pop().tag == 2

    def test_full_response_queue_stalls_issue(self, amap, tracer):
        v = mk_vault(queue_depth=2)
        v.rqst.push(rd(amap, 0, tag=1))
        v.rqst.push(rd(amap, 1, tag=2))
        process(v, 0, amap, 4, 0, tracer, 0)
        assert v.rsp.is_full  # both responses registered
        v.rqst.push(rd(amap, 2, tag=3))
        process(v, 1, amap, 4, 0, tracer, 0)
        assert len(v.rqst) == 1  # stuck behind the full response queue
        assert v.rsp_stall_count == 1
        v.rsp.pop()
        process(v, 2, amap, 4, 0, tracer, 0)
        assert len(v.rqst) == 0

    def test_posted_write_yields_no_response(self, amap, tracer):
        v = mk_vault()
        pkt = build_memrequest(0, addr_for_bank(amap, 0), 0, CMD.P_WR64,
                               payload=[9] * 8)
        v.rqst.push(pkt)
        process(v, 0, amap, 4, 0, tracer, 0)
        assert v.wr_count == 1
        assert v.rsp.is_empty

    def test_atomic_returns_old_value(self, amap, tracer):
        v = mk_vault()
        v.rqst.push(wr(amap, 0, tag=1, data=[5, 6] + [0] * 6))
        process(v, 0, amap, 4, 0, tracer, 0)
        v.rsp.pop()
        atomic = build_memrequest(0, addr_for_bank(amap, 0), 2, CMD.ADD16,
                                  payload=[10, 10])
        v.rqst.push(atomic)
        process(v, 1, amap, 4, 0, tracer, 0)
        rsp = v.rsp.pop()
        assert rsp.cmd is CMD.RD_RS
        assert list(rsp.payload) == [5, 6]
        assert v.atomic_count == 1

    def test_flow_packets_consumed_silently(self, amap, tracer):
        from repro.packets.flow import make_null
        v = mk_vault()
        v.rqst.push(make_null())
        v.rqst.push(rd(amap, 0, tag=1))
        assert process(v, 0, amap, 4, 0, tracer, 0) == 1
        assert v.rqst.is_empty

    def test_out_of_bank_range_yields_error_response(self, amap, tracer):
        # A 64-byte read whose bank-relative range exceeds bank capacity.
        v = mk_vault()
        v.banks[0].capacity_bytes = 32  # shrink to force the error
        v.rqst.push(rd(amap, 0, tag=7))
        process(v, 0, amap, 4, 0, tracer, 0)
        rsp = v.rsp.pop()
        assert rsp.cmd is CMD.ERROR
        assert rsp.errstat is ErrStat.INVALID_ADDRESS
        assert rsp.dinv == 1


class TestModeAccess:
    def test_mode_write_then_read(self, amap, tracer):
        dev = SimpleNamespace(regs=RegisterFile())
        v = mk_vault(device=dev)
        reg = physical_index(index_by_name("EDR0"))
        v.rqst.push(build_memrequest(0, reg, 1, CMD.MD_WR, payload=[0xBEEF, 0]))
        process(v, 0, amap, 4, 0, tracer, 0)
        assert v.rsp.pop().cmd is CMD.MD_WR_RS
        v.rqst.push(build_memrequest(0, reg, 2, CMD.MD_RD))
        process(v, 1, amap, 4, 0, tracer, 0)
        rsp = v.rsp.pop()
        assert rsp.cmd is CMD.MD_RD_RS
        assert rsp.payload[0] == 0xBEEF
        assert v.mode_count == 2

    def test_mode_access_unknown_register_errors(self, amap, tracer):
        dev = SimpleNamespace(regs=RegisterFile())
        v = mk_vault(device=dev)
        v.rqst.push(build_memrequest(0, 0x123, 1, CMD.MD_RD))
        process(v, 0, amap, 4, 0, tracer, 0)
        rsp = v.rsp.pop()
        assert rsp.cmd is CMD.ERROR
        assert rsp.errstat is ErrStat.INVALID_ADDRESS

    def test_mode_write_to_readonly_errors(self, amap, tracer):
        dev = SimpleNamespace(regs=RegisterFile())
        v = mk_vault(device=dev)
        reg = physical_index(index_by_name("ERR"))
        v.rqst.push(build_memrequest(0, reg, 1, CMD.MD_WR, payload=[1, 0]))
        process(v, 0, amap, 4, 0, tracer, 0)
        assert v.rsp.pop().cmd is CMD.ERROR

    def test_mode_without_device_errors(self, amap, tracer):
        v = mk_vault(device=None)
        v.rqst.push(build_memrequest(0, 0x2B0000, 1, CMD.MD_RD))
        process(v, 0, amap, 4, 0, tracer, 0)
        rsp = v.rsp.pop()
        assert rsp.errstat is ErrStat.DEVICE_CRITICAL


class TestLifecycle:
    def test_reset(self, amap, tracer):
        v = mk_vault()
        v.rqst.push(rd(amap, 0))
        process(v, 0, amap, 4, 2, tracer, 0)
        v.reset()
        assert v.rqst.is_empty and v.rsp.is_empty
        assert v.rd_count == 0
        assert v.total_requests == 0
        assert not v.banks[0].is_busy(0)

    def test_total_requests(self, amap, tracer):
        v = mk_vault()
        v.rqst.push(rd(amap, 0))
        v.rqst.push(wr(amap, 1))
        process(v, 0, amap, 4, 0, tracer, 0)
        assert v.total_requests == 2


# -- one call (window, width) == the two calls (window, 0) then (0, width) ----

_AMAP = AddressMap(num_vaults=16, num_banks=8, block_size=64,
                   capacity_bytes=2 * GB)
_EDR0 = physical_index(index_by_name("EDR0"))

#: kind -> (command, payload words); every kind a vault queue can hold.
_KINDS = {
    "read": (CMD.RD64, None),
    "write": (CMD.WR64, [7] * 8),
    "posted_write": (CMD.P_WR64, [9] * 8),
    "atomic": (CMD.ADD16, [3, 4]),
    "posted_atomic": (CMD.P_2ADD8, [5, 6]),
    "bwr": (CMD.BWR, [0x1122334455667788, 0x0F]),
    "mode_read": (CMD.MD_RD, None),
    "mode_write": (CMD.MD_WR, [0xBEEF, 0]),
    "flow": (None, None),
}

_DEPTH = 8


@st.composite
def _walk_cases(draw):
    requests = draw(st.lists(
        st.tuples(st.sampled_from(sorted(_KINDS)),
                  st.integers(0, 7), st.integers(0, 3)),  # kind, bank, row
        min_size=1, max_size=_DEPTH,
    ))
    return {
        "requests": requests,
        # bank -> busy cycles occupied at cycle 0; the walk runs at `cycle`.
        "busy": draw(st.dictionaries(st.integers(0, 7), st.integers(1, 6),
                                     max_size=8)),
        "cycle": draw(st.integers(0, 6)),
        "rsp_fill": draw(st.sampled_from([0, _DEPTH // 2, _DEPTH - 1, _DEPTH])),
        "width": draw(st.integers(1, 4)),
        "window": draw(st.integers(1, _DEPTH)),
        "row_timing": draw(st.sampled_from([None, (4, 16)])),
    }


def _build(case):
    """A vault in the drawn state plus the tracer that records its walk."""
    packet_mod._packet_serial = itertools.count()
    v = mk_vault(queue_depth=_DEPTH, device=SimpleNamespace(regs=RegisterFile()))
    for bank, cycles in case["busy"].items():
        v.banks[bank].occupy(0, cycles)
    for tag, (kind, bank, row) in enumerate(case["requests"]):
        cmd, payload = _KINDS[kind]
        if cmd is None:
            pkt = make_null()
        elif kind.startswith("mode"):
            pkt = build_memrequest(0, _EDR0, tag, cmd, payload=payload)
        else:
            pkt = build_memrequest(0, addr_for_bank(_AMAP, bank, row), tag,
                                   cmd, payload=payload)
        assert v.rqst.push(pkt)
    for tag in range(case["rsp_fill"]):
        assert v.rsp.push(rd(_AMAP, 0, tag=100 + tag))
    tracer = Tracer(mask=EventType.ALL)
    tracer.add_sink(MemorySink())
    return v, tracer


def _banks(v):
    """Everything a bank holds except its conflict counter."""
    return [
        (b.busy_until, b.open_row, b.reads, b.writes, b.atomics,
         b.row_hits, b.row_misses,
         [(pg, w.tolist(), t.tolist()) for pg, w, t in b.export_storage()])
        for b in v.banks
    ]


def _queues(v):
    def key(p):
        return (p.cmd, p.addr, p.tag, tuple(p.payload or ()), p.serial)
    return ([key(p) for p in v.rqst], list(v.rqst._stamps),
            [key(p) for p in v.rsp], v.device.regs.snapshot())


def _observables(v, tracer):
    return {
        "counters": (v.conflict_count, v.issue_stall_cycles, v.rsp_stall_count,
                     v.rd_count, v.wr_count, v.atomic_count, v.mode_count),
        "bank_conflicts": [b.conflicts for b in v.banks],
        "banks": _banks(v),
        "queues": _queues(v),
        "events": [(e.type, e.cycle, e.dev, e.quad, e.vault, e.bank, e.serial,
                    e.extra) for e in tracer.sinks[0].events],
    }


class TestOneCallEqualsTwoCalls:
    """The marked engine mode runs the walk as two halves; they must add
    up to the one call every unmarked run makes."""

    @given(_walk_cases())
    @settings(max_examples=300, deadline=None)
    def test_halves_compose_and_recognition_is_read_only(self, case):
        cycle, window, width = case["cycle"], case["window"], case["width"]
        rest = dict(bank_busy_cycles=5, dev_id=0, row_timing=case["row_timing"])

        one, one_tracer = _build(case)
        counts = one.stage34(cycle, _AMAP, window, width, tracer=one_tracer, **rest)

        two, two_tracer = _build(case)
        banks, queues = _banks(two), _queues(two)
        stalls = (two.issue_stall_cycles, two.rsp_stall_count)
        conflicts, zero = two.stage34(cycle, _AMAP, window, 0, tracer=two_tracer,
                                      **rest)
        # §IV.C.3: recognition "does not modify any internal data
        # representations" — only the conflict counters may have moved.
        assert zero == 0
        assert _banks(two) == banks and _queues(two) == queues
        assert (two.issue_stall_cycles, two.rsp_stall_count) == stalls
        assert two.total_requests == 0
        none, issued = two.stage34(cycle, _AMAP, 0, width, tracer=two_tracer,
                                   **rest)
        assert none == 0

        assert (conflicts, issued) == counts
        assert _observables(two, two_tracer) == _observables(one, one_tracer)

"""Unit tests for vault logic (repro.core.vault): conflict recognition
(stage 3) and request processing (stage 4), both driven through the one
walk the engine runs, ``Vault.stage34``."""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from repro.addressing.address_map import AddressMap
from repro.core.bank import Bank
from repro.core.vault import Vault
from repro.packets.commands import CMD
from repro.packets.flow import make_null
from repro.packets.packet import ErrStat, build_memrequest
from repro.registers.regdefs import physical_index, index_by_name
from repro.registers.regfile import RegisterFile
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink, Tracer
from tests.vault_states import VAULT_SCALARS, build, cases, state

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

    def test_foreign_objects_are_refused_not_read(self, amap, tracer):
        """The C walk reads packet, queue, bank and tracer slots by
        offset: any other object where one belongs is a TypeError."""
        v = mk_vault()
        v.rqst._q.append(SimpleNamespace(is_special=False, dec_bank=0))
        v.rqst._stamps.append(0)
        with pytest.raises(TypeError, match="Packet"):
            v.stage34(0, amap, 8, 4, 1, tracer, 0)
        v = mk_vault()
        v.rqst.push(rd(amap, 1))
        v.banks[1] = SimpleNamespace(busy_until=0)
        with pytest.raises(TypeError, match="Bank"):
            v.stage34(0, amap, 8, 4, 1, tracer, 0)
        with pytest.raises(TypeError):
            v._push_response(object(), rd(amap, 1), 0)
        v = mk_vault()
        v.rqst.push(rd(amap, 1))
        with pytest.raises(TypeError, match="Tracer"):
            v.stage34(0, amap, 8, 4, 1, SimpleNamespace(live_mask=-1), 0)

    def test_total_requests(self, amap, tracer):
        v = mk_vault()
        v.rqst.push(rd(amap, 0))
        v.rqst.push(wr(amap, 1))
        process(v, 0, amap, 4, 0, tracer, 0)
        assert v.total_requests == 2


# -- one call (window, width) == the two calls (window, 0) then (0, width) ----


def _fixed(left: dict) -> dict:
    """*left* less what recognition may move: conflict counts, the
    trace and the busy-bank cache it re-validates."""
    vault = [x for n, x in zip(VAULT_SCALARS, left["vault"])
             if n not in ("conflict_count", "_busy_mask", "_next_free")]
    banks = [([x for n, x in zip(Bank._INT_SLOTS, ints) if n != "conflicts"], *rest)
             for ints, *rest in left["banks"]]
    return {**left, "vault": vault, "banks": banks, "events": None,
            "emitted": None, "batches": None}


class TestOneCallEqualsTwoCalls:
    """The marked engine mode runs the walk as two halves; they must add
    up to the one call every unmarked run makes.  Vault states come from
    tests/vault_states.py, traced with every event type."""

    @given(cases(masks=["all"]))
    @settings(max_examples=300, deadline=None)
    def test_halves_compose_and_recognition_is_read_only(self, case):
        def walk(v, amap, tracer, window, width):
            return v.stage34(case["cycle"], amap, window, width, 5, tracer, 0,
                             case["row_timing"])

        one, amap, one_tracer = build(Vault, case)
        counts = walk(one, amap, one_tracer, case["window"], case["width"])
        two, _, two_tracer = build(Vault, case)
        before = copy.deepcopy(_fixed(state(two, two_tracer)))
        conflicts, zero = walk(two, amap, two_tracer, case["window"], 0)
        # §IV.C.3: recognition "does not modify any internal data
        # representations" — only the conflict counters may have moved.
        assert zero == 0 and _fixed(state(two, two_tracer)) == before
        none, issued = walk(two, amap, two_tracer, 0, case["width"])
        assert none == 0 and (conflicts, issued) == counts
        assert state(two, two_tracer) == state(one, one_tracer)

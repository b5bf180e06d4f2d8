"""Unit + property tests for flow control (repro.packets.flow)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.packets.commands import CMD
from repro.packets.flow import (
    FlowControlError,
    FlowController,
    LinkTokens,
    RetryPointerState,
    make_null,
    make_pret,
    make_tret,
)
from repro.packets.packet import Packet


class TestLinkTokens:
    def test_starts_full(self):
        t = LinkTokens(capacity=32)
        assert t.available == 32
        assert t.in_flight == 0

    def test_consume_restore(self):
        t = LinkTokens(capacity=10)
        t.consume(4)
        assert t.available == 6
        assert t.in_flight == 4
        t.restore(4)
        assert t.available == 10

    def test_can_send(self):
        t = LinkTokens(capacity=3)
        assert t.can_send(3)
        assert not t.can_send(4)

    def test_overdraw_raises(self):
        t = LinkTokens(capacity=2)
        with pytest.raises(FlowControlError):
            t.consume(3)

    def test_over_return_raises(self):
        t = LinkTokens(capacity=2)
        with pytest.raises(FlowControlError):
            t.restore(1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LinkTokens(capacity=0)

    def test_explicit_available_validated(self):
        with pytest.raises(ValueError):
            LinkTokens(capacity=2, available=3)

    @given(ops=st.lists(st.integers(1, 9), max_size=50))
    @settings(max_examples=50)
    def test_token_conservation_invariant(self, ops):
        """available + in_flight == capacity under any legal sequence."""
        t = LinkTokens(capacity=64)
        borrowed = []
        for n in ops:
            if t.can_send(n):
                t.consume(n)
                borrowed.append(n)
            elif borrowed:
                t.restore(borrowed.pop())
            assert t.available + t.in_flight == 64
            assert 0 <= t.available <= 64


class TestRetryPointers:
    def test_stamp_assigns_sequential_frp(self):
        r = RetryPointerState(buffer_slots=8)
        pkts = [Packet(cmd=CMD.RD16) for _ in range(3)]
        frps = [r.stamp(p) for p in pkts]
        assert frps == [0, 1, 2]
        assert [p.frp for p in pkts] == [0, 1, 2]
        assert r.outstanding == 3

    def test_frp_wraps_at_buffer_size(self):
        r = RetryPointerState(buffer_slots=4)
        for i in range(4):
            frp = r.stamp(Packet(cmd=CMD.RD16))
            assert frp == i
        r.acknowledge(3)  # free all
        assert r.stamp(Packet(cmd=CMD.RD16)) == 0

    def test_buffer_full_raises(self):
        r = RetryPointerState(buffer_slots=2)
        r.stamp(Packet(cmd=CMD.RD16))
        r.stamp(Packet(cmd=CMD.RD16))
        with pytest.raises(FlowControlError):
            r.stamp(Packet(cmd=CMD.RD16))

    @pytest.mark.parametrize("slots", [0, -1, 257, 512])
    def test_buffer_slots_must_fit_the_frp_field(self, slots):
        """FRP is an 8-bit field: more than 256 slots used to surface as
        a bare ``FRP out of range`` from ``Packet.encode`` mid-tick."""
        with pytest.raises(ValueError, match="buffer_slots"):
            RetryPointerState(buffer_slots=slots)
        assert RetryPointerState(buffer_slots=256).buffer_slots == 256

    def test_cumulative_ack(self):
        r = RetryPointerState(buffer_slots=16)
        for _ in range(5):
            r.stamp(Packet(cmd=CMD.RD16))
        freed = r.acknowledge(2)  # acks 0,1,2
        assert freed == 3
        assert r.outstanding == 2

    def test_unknown_rrp_flushes_nothing_outstanding(self):
        r = RetryPointerState(buffer_slots=4)
        assert r.acknowledge(3) == 0


class TestFlowPacketBuilders:
    def test_tret_carries_tokens(self):
        pkt = make_tret(cub=1, rtc=12, link=2)
        assert pkt.cmd is CMD.TRET
        assert pkt.rtc == 12
        assert pkt.slid == 2
        assert pkt.num_flits == 1

    def test_tret_clamps_to_field_width(self):
        assert make_tret(0, rtc=1000).rtc == 31

    def test_pret_echoes_rrp(self):
        pkt = make_pret(cub=0, rrp=0x1FF)
        assert pkt.cmd is CMD.PRET
        assert pkt.rrp == 0xFF

    def test_null(self):
        pkt = make_null()
        assert pkt.cmd is CMD.NULL
        assert not pkt.expects_response


class TestFlowController:
    def test_try_send_consumes_and_stamps(self):
        fc = FlowController(token_capacity=8)
        pkt = Packet(cmd=CMD.WR16, payload=(1, 2))  # 2 FLITs
        assert fc.try_send(pkt)
        assert fc.tokens.available == 6
        assert fc.retry.outstanding == 1

    def test_try_send_stalls_without_tokens(self):
        fc = FlowController(token_capacity=1)
        pkt = Packet(cmd=CMD.WR16, payload=(1, 2))
        assert not fc.try_send(pkt)
        assert fc.tokens.available == 1  # untouched

    def test_on_receive_returns_tokens_and_acks(self):
        fc = FlowController(token_capacity=8)
        out = Packet(cmd=CMD.RD16)
        fc.try_send(out)
        rsp = Packet(cmd=CMD.WR_RS, rrp=out.frp)
        rsp.rtc = 1
        fc.on_receive(rsp)
        assert fc.tokens.available == 8
        assert fc.retry.outstanding == 0

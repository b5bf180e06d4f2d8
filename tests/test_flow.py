"""Unit + property tests for flow control (repro.packets.flow)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.packets.commands import CMD
from repro.packets.flow import FlowControlError, LinkTokens, RetryPointerState
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
    """Flow packets are built with :class:`Packet` directly."""

    def test_tret_carries_tokens(self):
        pkt = Packet(cmd=CMD.TRET, cub=1, slid=2, rtc=12)
        assert pkt.cmd is CMD.TRET
        assert pkt.rtc == 12
        assert pkt.slid == 2
        assert pkt.num_flits == 1

    def test_null(self):
        pkt = Packet(cmd=CMD.NULL)
        assert pkt.cmd is CMD.NULL
        assert not pkt.expects_response

"""Tests for fault injection and link retry (repro.faults)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.errors import E_LINKFAIL, HMCError
from repro.core.simulator import HMCSim
from repro.faults import injector as injector_mod
from repro.faults.injector import BitErrorInjector, ScheduledInjector
from repro.faults.link_model import FaultKind, LinkFaultModel
from repro.faults.retry import LinkRetryExhausted, RetrySession, RetryStats
from repro.packets.commands import CMD
from repro.packets.packet import Packet, build_memrequest
from repro.topology.builder import build_simple


class TestBitErrorInjector:
    def test_zero_ber_is_transparent(self):
        inj = BitErrorInjector(ber=0.0)
        words = [1, 2, 3]
        assert inj.corrupt(words) == words
        assert inj.corrupted_transmissions == 0

    def test_ber_one_corrupts_everything(self):
        inj = BitErrorInjector(ber=1.0)
        out = inj.corrupt([0, 0])
        assert out == [(1 << 64) - 1] * 2
        assert inj.bits_flipped == 128

    def test_moderate_ber_statistics(self):
        inj = BitErrorInjector(ber=0.01, seed=7)
        for _ in range(200):
            inj.corrupt([0] * 4)  # 256 bits/transmission
        # E[corrupted fraction] = 1-(1-0.01)^256 ~ 0.92
        assert inj.corrupted_transmissions > 100
        assert inj.transmissions == 200

    def test_deterministic_per_seed(self):
        a = BitErrorInjector(ber=0.05, seed=3)
        b = BitErrorInjector(ber=0.05, seed=3)
        for _ in range(20):
            assert a.corrupt([7, 8, 9]) == b.corrupt([7, 8, 9])

    def test_does_not_mutate_input(self):
        inj = BitErrorInjector(ber=1.0)
        words = [5]
        inj.corrupt(words)
        assert words == [5]

    def test_validation(self):
        with pytest.raises(ValueError):
            BitErrorInjector(ber=-0.1)
        with pytest.raises(ValueError):
            BitErrorInjector(ber=1.5)


class TestFlipStream:
    """The flip stream is *the* sequential Bernoulli stream: bit ``i`` on
    the wire flips iff uniform ``i`` of ``default_rng(seed)`` is below
    the BER, however the bits are grouped into transmissions and however
    the injector blocks its draws.  Fails if sampling drifts."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        ber=st.sampled_from([0.0, 1e-5, 1e-3, 0.5, 1.0]),
        sizes=st.lists(st.integers(0, 1152), max_size=40),
        block=st.sampled_from([64, 1000, 8192]),
    )
    # One call straddling several real blocks, and calls landing exactly
    # on a block boundary.
    @example(seed=3, ber=1e-3, sizes=[100, 30000, 0, 7], block=8192)
    @example(seed=5, ber=0.5, sizes=[8192, 0, 1, 8191, 16384], block=8192)
    @settings(max_examples=150, deadline=None)
    def test_flips_slice_the_reference_stream(self, seed, ber, sizes, block):
        with mock.patch.object(injector_mod, "_BLOCK", block):
            inj = BitErrorInjector(ber, seed)
            got = [inj.flips(n) for n in sizes]
        ref = np.flatnonzero(
            np.random.default_rng(seed).random(sum(sizes)) < ber)
        start = 0
        for n, flips in zip(sizes, got):
            inside = ref[(ref >= start) & (ref < start + n)]
            assert flips == tuple(int(b) - start for b in inside)
            start += n
        assert inj.transmissions == len(sizes)
        assert inj.corrupted_transmissions == sum(1 for f in got if f)
        assert inj.bits_flipped == len(ref)

    @given(
        seed=st.integers(0, 2**32 - 1),
        ber=st.sampled_from([0.0, 1e-5, 1e-3, 0.5, 1.0]),
        lengths=st.lists(st.integers(0, 18), max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_corrupt_differs_exactly_when_flips_is_nonempty(
            self, seed, ber, lengths):
        a, b = BitErrorInjector(ber, seed), BitErrorInjector(ber, seed)
        for n in lengths:
            words = [0x0123456789ABCDEF] * n
            flips = a.flips(64 * n)
            out = b.corrupt(words)
            assert (out != words) == (flips != ())
            for bit in flips:
                out[bit // 64] ^= 1 << (bit % 64)
            assert out == words
        assert (a.transmissions, a.corrupted_transmissions, a.bits_flipped) \
            == (b.transmissions, b.corrupted_transmissions, b.bits_flipped)

    def test_ber_is_read_only(self):
        inj = BitErrorInjector(1e-3)
        with pytest.raises(AttributeError):
            inj.ber = 0.5
        assert inj.ber == 1e-3


class TestScheduledInjector:
    def test_corrupts_only_scheduled_ordinals(self):
        inj = ScheduledInjector({1}, bit=0)
        clean = [0, 0, 0]
        assert inj.corrupt(clean) == clean          # ordinal 0
        assert inj.corrupt(clean) != clean          # ordinal 1
        assert inj.corrupt(clean) == clean          # ordinal 2
        assert inj.corrupted_transmissions == 1

    def test_remaining(self):
        inj = ScheduledInjector({0, 5})
        assert inj.remaining == 2
        inj.corrupt([1])
        assert inj.remaining == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduledInjector({-1})
        with pytest.raises(ValueError):
            ScheduledInjector({0}, bit=64)

    def test_ordinals_are_zero_based(self):
        """Regression: ordinal 0 means the *first* transmission.

        ``ScheduledInjector({n})`` corrupts the (n+1)-th call to
        ``corrupt`` — the scheduled ordinals count from zero, exactly
        like ``transmissions`` before the call.
        """
        inj = ScheduledInjector({0}, bit=0)
        assert inj.corrupt([8]) == [9]              # ordinal 0 = first call
        assert inj.corrupt([8]) == [8]
        inj = ScheduledInjector({2}, bit=0)
        assert [inj.corrupt([8]) for _ in range(4)] == [[8], [8], [9], [8]]
        assert inj.remaining == 0


class TestLinkFaultModel:
    def test_clean_link(self):
        m = LinkFaultModel()
        kind, words = m.transmit([1, 2])
        assert kind is FaultKind.CLEAN
        assert words == [1, 2]
        assert m.fault_rate == 0.0

    def test_always_drop(self):
        m = LinkFaultModel(drop_rate=1.0)
        kind, words = m.transmit([1])
        assert kind is FaultKind.DROP
        assert words is None
        assert m.drops == 1

    def test_corrupt_via_scheduled_injector(self):
        m = LinkFaultModel(injector=ScheduledInjector({0}))
        kind, words = m.transmit([0, 0, 0])
        assert kind is FaultKind.CORRUPT
        assert words != [0, 0, 0]
        assert m.corruptions == 1

    def test_stats(self):
        m = LinkFaultModel(drop_rate=1.0)
        m.transmit([1])
        s = m.stats()
        assert s["drops"] == 1
        assert s["fault_rate"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFaultModel(drop_rate=2.0)


class TestRetrySession:
    def pkt(self, tag=1):
        return build_memrequest(0, 0x40, tag, CMD.WR64, payload=list(range(8)))

    def test_clean_delivery_is_bit_identical(self):
        s = RetrySession(LinkFaultModel())
        src = self.pkt()
        out = s.transmit(src)
        assert out.cmd is src.cmd
        assert out.payload == src.payload
        assert out.tag == src.tag
        assert s.stats.transmissions == 1
        assert s.stats.crc_failures == 0

    def test_corruption_is_detected_and_replayed(self):
        s = RetrySession(LinkFaultModel(injector=ScheduledInjector({0})))
        out = s.transmit(self.pkt())
        assert out.payload == tuple(range(8))
        assert s.stats.transmissions == 2       # original + replay
        assert s.stats.crc_failures == 1
        assert s.stats.irtry_events == 1
        assert s.stats.recovered == 1
        assert s.stats.recovery_cycles == s.retry_delay

    def test_drop_is_replayed(self):
        class DropOnce:
            """Stub model: drop the first transmission, then go clean."""

            def __init__(self):
                self.calls = 0

            def transmit(self, words):
                self.calls += 1
                if self.calls == 1:
                    return (FaultKind.DROP, None)
                return (FaultKind.CLEAN, list(words))

        s = RetrySession(DropOnce(), retry_delay=3)
        out = s.transmit(self.pkt(tag=9))
        assert out.tag == 9
        assert s.stats.drops == 1
        assert s.stats.recovered == 1
        assert s.stats.recovery_cycles == 3

    def test_exhaustion_raises_and_counts(self):
        s = RetrySession(LinkFaultModel(drop_rate=1.0), max_retries=3)
        with pytest.raises(LinkRetryExhausted):
            s.transmit(self.pkt())
        assert s.stats.failed == 1
        assert s.stats.transmissions == 4  # 1 + 3 replays

    def test_multiple_scheduled_failures_before_success(self):
        s = RetrySession(
            LinkFaultModel(injector=ScheduledInjector({0, 1, 2})),
            max_retries=5, retry_delay=7,
        )
        out = s.transmit(self.pkt())
        assert out.tag == 1
        assert s.stats.transmissions == 4
        assert s.stats.recovery_cycles == 21

    @pytest.mark.parametrize("slots", [0, 257, 512])
    def test_retry_slots_must_fit_the_frp_field(self, slots):
        with pytest.raises(ValueError, match="buffer_slots"):
            RetrySession(LinkFaultModel(), retry_slots=slots)

    def test_stats_dataclass(self):
        s = RetryStats(packets=2, failed=1)
        d = s.as_dict()
        assert d["packets"] == 2 and d["failed"] == 1

    @given(ber=st.sampled_from([1e-4, 1e-3, 1e-2]), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_no_corrupted_packet_is_ever_accepted(self, ber, seed):
        """The invariant the CRC exists for: whatever the BER, a packet
        that arrives does so bit-identically — or not at all (retry
        exhaustion on a hopelessly noisy link is a legal outcome; at
        BER 1e-2 a 288-byte packet is clean with probability ~1e-10)."""
        s = RetrySession(LinkFaultModel(ber=ber, seed=seed), max_retries=64)
        src = build_memrequest(1, 0x1230, 42, CMD.WR128, payload=list(range(16)))
        try:
            out = s.transmit(src)
        except LinkRetryExhausted:
            assert s.stats.failed == 1
            return
        assert out.payload == src.payload
        assert (out.cub, out.tag, out.addr) == (src.cub, src.tag, src.addr)
        # Every detected failure was an IRTRY exchange; nothing silent.
        assert s.stats.irtry_events == s.stats.crc_failures + s.stats.drops


class TestSimulatorIntegration:
    def _sim(self):
        return build_simple(
            HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2),
            host_links=1,
        )

    def test_attach_requires_host_link(self):
        sim = self._sim()
        from repro.core.errors import TopologyError
        with pytest.raises(TopologyError):
            sim.attach_fault_model(0, 3, LinkFaultModel())

    def test_faulty_link_traffic_recovers_transparently(self):
        sim = self._sim()
        session = sim.attach_fault_model(
            0, 0, LinkFaultModel(injector=ScheduledInjector({0, 3})))
        for i in range(6):
            sim.send(build_memrequest(0, i * 64, i, CMD.RD64, link=0))
        sim.clock(20)
        tags = sorted(r.tag for r in sim.recv_all())
        assert tags == [0, 1, 2, 3, 4, 5]       # nothing lost
        assert session.stats.crc_failures == 2
        assert session.stats.recovered == 2
        assert sim.fault_stats()[(0, 0)]["irtry_events"] == 2

    def test_dead_link_raises_hmc_error(self):
        sim = self._sim()
        sim.attach_fault_model(0, 0, LinkFaultModel(drop_rate=1.0), max_retries=2)
        with pytest.raises(HMCError):
            sim.send(build_memrequest(0, 0, 0, CMD.RD16, link=0))
        assert sim.link_errors_unrecovered == 1

    def test_dead_link_error_keeps_its_type_and_errno(self):
        # sim.send lets the session's own error through: a caller can
        # tell an exhausted retry budget (E_LINKFAIL) from any other
        # HMCError without parsing the message.
        sim = self._sim()
        sim.attach_fault_model(0, 0, LinkFaultModel(drop_rate=1.0), max_retries=1)
        with pytest.raises(LinkRetryExhausted) as caught:
            sim.send(build_memrequest(0, 0, 0, CMD.RD16, link=0))
        assert caught.value.errno == E_LINKFAIL
        assert sim.link_errors_unrecovered == 1

    def test_detach_restores_clean_link(self):
        sim = self._sim()
        sim.attach_fault_model(0, 0, LinkFaultModel(drop_rate=1.0), max_retries=0)
        sim.detach_fault_model(0, 0)
        sim.send(build_memrequest(0, 0, 7, CMD.RD16, link=0))
        sim.clock(10)
        assert sim.recv().tag == 7

    def test_write_data_survives_noisy_link(self):
        """End-to-end data integrity through a 1e-3-BER link."""
        sim = self._sim()
        sim.attach_fault_model(0, 0, LinkFaultModel(ber=1e-3, seed=5),
                               max_retries=64)
        data = [0xABCD + i for i in range(8)]
        sim.send(build_memrequest(0, 0x4000, 1, CMD.WR64, payload=data, link=0))
        sim.clock(10)
        sim.recv()
        sim.send(build_memrequest(0, 0x4000, 2, CMD.RD64, link=0))
        sim.clock(10)
        assert list(sim.recv().payload) == data

"""Tests for fault injection and link retry (repro.faults)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.errors import E_LINKFAIL, HMCError, LinkDeadError
from repro.core.simulator import HMCSim
from repro.faults import injector as injector_mod
from repro.faults.injector import BitErrorInjector, ScheduledInjector, apply_flips
from repro.faults.link_model import FaultKind, LinkFaultModel
from repro.faults.retry import RetryStats
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.packets.packet import Packet, PacketDecodeError, build_memrequest
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
        assert m.outcome(128) == (FaultKind.CLEAN, ())
        assert m.fault_rate == 0.0

    def test_always_drop(self):
        m = LinkFaultModel(drop_rate=1.0)
        assert m.outcome(64) == (FaultKind.DROP, ())
        assert m.drops == 1

    def test_corrupt_via_scheduled_injector(self):
        m = LinkFaultModel(injector=ScheduledInjector({0}))
        kind, flips = m.outcome(192)
        assert kind is FaultKind.CORRUPT
        assert len(flips) == 1
        assert m.corruptions == 1

    def test_stats(self):
        m = LinkFaultModel(drop_rate=1.0)
        m.outcome(64)
        s = m.stats()
        assert s["drops"] == 1
        assert s["fault_rate"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFaultModel(drop_rate=2.0)


@given(ber=st.sampled_from([1e-4, 1e-3, 1e-2]), seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_a_flipped_packet_never_passes_crc(ber, seed):
    """The fact the in-band gate relies on when it counts any flipped bit
    as a CRC failure without decoding: the receiver's CRC-checked decode
    refuses every packet with at least one flipped wire bit."""
    src = build_memrequest(1, 0x1230, 42, CMD.WR128, payload=list(range(16)))
    words = src.encode()
    injector = BitErrorInjector(ber, seed)
    for _ in range(64):
        flips = injector.flips(64 * len(words))
        if flips:
            with pytest.raises(PacketDecodeError):
                Packet.decode(apply_flips(words, flips), check_crc=True)
        else:
            assert Packet.decode(words, check_crc=True).payload == src.payload


def test_stats_dataclass():
    s = RetryStats(packets=2, failed=1)
    d = s.as_dict()
    assert d["packets"] == 2 and d["failed"] == 1


def _lone_host_link(model, **kw):
    """One cube, one host link, *model* on that link's in-band gate."""
    sim = build_simple(
        HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2),
        host_links=1,
    )
    return sim, sim.attach_link_fault(0, 0, model, **kw)


class TestSimulatorIntegration:
    """The in-band gate on a lone host link, end to end.  A host-link
    replay is rebuilt as a new packet (ROADMAP item 1), so ``packets``
    and ``recovered`` are not pinned to the request count here."""

    def test_faulty_link_traffic_recovers_transparently(self):
        sim, state = _lone_host_link(
            LinkFaultModel(injector=ScheduledInjector({0, 3})))
        res = Host(sim).run([(CMD.RD64, i * 64, None) for i in range(6)])
        assert res.responses_received == 6 and res.errors_received == 0
        assert state.stats.crc_failures == 2
        assert state.stats.irtry_events == 2
        assert state.stats.recovery_cycles == 2 * state.retry_delay
        assert sim.stats()["link_faults"]["dev0.link0"]["health"] == "FULL"

    def test_dead_link_raises_hmc_error(self):
        sim, state = _lone_host_link(LinkFaultModel(drop_rate=1.0), max_retries=2)
        host = Host(sim)
        with pytest.raises(HMCError):
            host.run([(CMD.RD64, i * 64, None) for i in range(16)])
        assert host.outstanding == 0
        assert sim.in_flight == 0
        assert state.stats.crc_failures == 0
        assert state.stats.drops == state.stats.transmissions == 6

    def test_dead_link_error_keeps_its_type_and_errno(self):
        # A caller can tell a dead link (E_LINKFAIL, with the structured
        # link report) from any other HMCError without parsing text.
        sim, _ = _lone_host_link(LinkFaultModel(drop_rate=1.0), max_retries=1)
        with pytest.raises(LinkDeadError) as caught:
            Host(sim).run([(CMD.RD16, 0, None)])
        assert caught.value.errno == E_LINKFAIL
        assert caught.value.report["links"]["dev0.link0"]["health"] == "FAILED"
        assert sim.link_failures == 1

    def test_write_data_survives_noisy_link(self):
        """End-to-end data integrity through a 1e-3-BER link."""
        sim, state = _lone_host_link(LinkFaultModel(ber=1e-3, seed=5),
                                     max_retries=64)
        data = [0xABCD + i for i in range(8)]
        host = Host(sim)
        host.run([(CMD.WR64, 0x4000, data)])
        while host.send_request(CMD.RD64, 0x4000) is None:
            sim.clock(1)  # a replay window
        rsps = []
        while not rsps:
            sim.clock(1)
            rsps = host.drain_responses()
        assert list(rsps[0].payload) == data
        assert state.stats.crc_failures > 0

    def test_scheduled_failures_cost_cycles(self):
        """A ``ScheduledInjector`` schedule on the gate: each scheduled
        transmission fails its CRC, opens a ``retry_delay`` replay window,
        and the run takes longer than the clean one by real cycles."""
        def run(schedule):
            sim, state = _lone_host_link(
                LinkFaultModel(injector=ScheduledInjector(schedule)),
                retry_delay=7)
            res = Host(sim).run([(CMD.RD64, i * 64, None) for i in range(8)])
            assert res.responses_received == 8
            return res.cycles, state.stats

        clean, _ = run(set())
        cycles, stats = run({0, 1, 2})
        assert stats.crc_failures == stats.irtry_events == 3
        assert stats.recovery_cycles == 21
        assert cycles > clean

    def test_bulk_data_is_bit_exact_over_ber_2e4(self):
        """Writes then reads over a BER 2e-4 host link: every block reads
        back as written, and the noise was real."""
        sim, state = _lone_host_link(LinkFaultModel(ber=2e-4, seed=9),
                                     max_retries=64)
        host = Host(sim)
        n = 256
        host.run([(CMD.WR64, i * 64, [i * 8 + k for k in range(8)])
                  for i in range(n)])
        res = host.run([(CMD.RD64, i * 64, None) for i in range(n)])
        assert res.responses_received == n and res.errors_received == 0
        assert state.stats.crc_failures > 0 and state.stats.failed == 0
        dev = sim.devices[0]
        for i in range(n):
            d = dev.amap.decode(i * 64)
            rel = d.dram * dev.amap.block_size + d.offset
            assert dev.vaults[d.vault].banks[d.bank].read(rel, 64) == [
                i * 8 + k for k in range(8)]

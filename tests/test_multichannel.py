"""Tests for the multi-channel host (repro.host.multichannel)."""

import pytest

from repro.core.errors import InitError
from repro.core.simulator import HMCSim
from repro.host.multichannel import ChannelClock, MultiChannelHost
from repro.packets.commands import CMD
from repro.topology.builder import build_simple
from repro.workloads.mixes import bursty


def mk_channels(n=2, links=4):
    return [
        build_simple(HMCSim(num_devs=1, num_links=links, num_banks=8, capacity=2))
        for _ in range(n)
    ]


class TestChannelClock:
    def test_unit_ratio_ticks_every_time(self):
        c = ChannelClock(ratio=1.0)
        assert [c.ticks_due() for _ in range(4)] == [1, 1, 1, 1]

    def test_half_ratio_ticks_every_other(self):
        c = ChannelClock(ratio=0.5)
        assert [c.ticks_due() for _ in range(4)] == [0, 1, 0, 1]

    def test_double_ratio(self):
        c = ChannelClock(ratio=2.0)
        assert [c.ticks_due() for _ in range(3)] == [2, 2, 2]

    def test_fractional_accumulation(self):
        c = ChannelClock(ratio=0.75)
        ticks = [c.ticks_due() for _ in range(8)]
        assert sum(ticks) == 6  # 8 * 0.75


class TestConstruction:
    def test_requires_channels(self):
        with pytest.raises(InitError):
            MultiChannelHost([])

    def test_interleave_power_of_two(self):
        with pytest.raises(InitError):
            MultiChannelHost(mk_channels(), interleave_bytes=3000)

    def test_ratio_arity(self):
        with pytest.raises(InitError):
            MultiChannelHost(mk_channels(2), ratios=[1.0])
        with pytest.raises(InitError):
            MultiChannelHost(mk_channels(2), ratios=[1.0, 0.0])

    def test_total_capacity(self):
        mc = MultiChannelHost(mk_channels(2))
        assert mc.total_capacity_bytes == 2 * (2 << 30)


class TestRouting:
    def test_interleave_alternates_channels(self):
        mc = MultiChannelHost(mk_channels(2), interleave_bytes=4096)
        assert mc.route(0)[0] == 0
        assert mc.route(4096)[0] == 1
        assert mc.route(8192)[0] == 0

    def test_local_addresses_dense(self):
        mc = MultiChannelHost(mk_channels(2), interleave_bytes=4096)
        # Flat blocks 0,2,4 -> channel 0 local blocks 0,1,2.
        assert mc.route(0)[1] == 0
        assert mc.route(8192)[1] == 4096
        assert mc.route(16384)[1] == 8192

    def test_offset_preserved(self):
        mc = MultiChannelHost(mk_channels(2), interleave_bytes=4096)
        chan, local = mc.route(4096 + 123)
        assert chan == 1
        assert local % 4096 == 123

    def test_negative_address_rejected(self):
        mc = MultiChannelHost(mk_channels(2))
        with pytest.raises(ValueError):
            mc.route(-1)

    def test_distinct_flat_addresses_distinct_locations(self):
        mc = MultiChannelHost(mk_channels(4), interleave_bytes=256)
        seen = set()
        for i in range(1024):
            loc = mc.route(i * 64)
            assert loc not in seen
            seen.add(loc)


class TestTraffic:
    def test_run_spreads_and_completes(self):
        mc = MultiChannelHost(mk_channels(2), interleave_bytes=256)
        reqs = [(CMD.RD64, i * 64, None) for i in range(256)]
        res = mc.run(reqs)
        assert res.responses_received == 256
        assert res.errors_received == 0
        assert mc.traffic_balance() > 0.8
        assert mc.outstanding == 0

    def test_bursty_stream_runs_to_completion(self):
        # A bubble ends the tick's sends; it is neither a request nor a
        # stall (as in Host.run).
        mc = MultiChannelHost(mk_channels(2), interleave_bytes=256)
        reqs = [(CMD.RD64, i * 64, None) for i in range(32)]
        res = mc.run(bursty(reqs, burst_len=4, gap_len=8))
        assert res.requests_sent == res.responses_received == 32
        assert res.errors_received == 0 and res.send_stall_cycles == 0
        assert res.cycles > 8 * 7    # seven gaps of eight idle ticks
        assert mc.outstanding == 0

    def test_bubble_free_stream_is_unchanged(self):
        # Pinned to the values the loop gave before bubbles were handled.
        chans = [build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                     capacity=2, xbar_depth=4)) for _ in range(2)]
        mc = MultiChannelHost(chans, interleave_bytes=256, max_outstanding=16)
        reqs = [(CMD.RD64 if i % 3 else CMD.WR64, (i * 7919 * 64) % (1 << 30),
                 None if i % 3 else [i] * 8) for i in range(600)]
        res = mc.run(reqs)
        assert (res.requests_sent, res.responses_received, res.errors_received,
                res.cycles, res.send_stall_cycles) == (600, 600, 0, 57, 7)
        assert (sum(res.latencies), len(res.latencies), max(res.latencies)) == (1662, 600, 3)
        common = {"cycles": 57, "packets_sent": 300, "packets_received": 300,
                  "dropped_responses": 0, "bank_conflicts": 0, "xbar_stalls": 0,
                  "requests_processed": 300}
        assert mc.channel_stats() == [
            {**common, "send_stalls": 31, "latency_penalties": 230},
            {**common, "send_stalls": 23, "latency_penalties": 232},
        ]

    def test_write_read_across_channels(self):
        mc = MultiChannelHost(mk_channels(2), interleave_bytes=64)
        writes = [(CMD.WR64, i * 64, [i] * 8) for i in range(32)]
        mc.run(writes)
        # Verify the data landed in the right channel's storage.
        for i in range(32):
            chan, local = mc.route(i * 64)
            dev = mc.channels[chan].devices[0]
            d = dev.amap.decode(local)
            rel = d.dram * dev.amap.block_size + d.offset
            assert dev.vaults[d.vault].banks[d.bank].read(rel, 64) == [i] * 8

    def test_channels_clock_independently(self):
        mc = MultiChannelHost(mk_channels(2), ratios=[1.0, 0.5])
        mc.clock(10)
        assert mc.channels[0].clock_value == 10
        assert mc.channels[1].clock_value == 5

    def test_slow_channel_still_completes(self):
        mc = MultiChannelHost(mk_channels(2), interleave_bytes=256,
                              ratios=[1.0, 0.25])
        reqs = [(CMD.RD64, i * 64, None) for i in range(64)]
        res = mc.run(reqs)
        assert res.responses_received == 64

    def test_heterogeneous_channels(self):
        """Channels may differ in configuration — separate objects."""
        chans = [
            build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)),
            build_simple(HMCSim(num_devs=1, num_links=8, num_banks=16, capacity=8)),
        ]
        mc = MultiChannelHost(chans, interleave_bytes=1024)
        res = mc.run([(CMD.RD64, i * 64, None) for i in range(128)])
        assert res.responses_received == 128

    def test_slow_channel_raises_reference_latency(self):
        """Latencies are reported in host reference ticks, so requests
        served by a half-rate channel show the NUMA penalty."""
        fast = MultiChannelHost(mk_channels(2), interleave_bytes=256,
                                ratios=[1.0, 1.0])
        slow = MultiChannelHost(mk_channels(2), interleave_bytes=256,
                                ratios=[1.0, 0.5])
        reqs = [(CMD.RD64, i * 64, None) for i in range(256)]
        r_fast = fast.run(list(reqs))
        r_slow = slow.run(list(reqs))
        assert r_slow.mean_latency > r_fast.mean_latency * 1.2

    def test_single_channel_degenerates_to_host(self):
        mc = MultiChannelHost(mk_channels(1))
        res = mc.run([(CMD.RD64, i * 64, None) for i in range(16)])
        assert res.responses_received == 16
        assert mc.route(12345)[0] == 0

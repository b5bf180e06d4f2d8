"""Unit tests for the top-level HMCSim object (repro.core.simulator)."""

import io
import itertools

import pytest

import repro.packets.packet as packet_mod
from repro.core.config import DeviceConfig, SimConfig
from repro.core.errors import (
    HMCError,
    InitError,
    NoDataError,
    StallError,
    TopologyError,
)
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.packets.packet import build_memrequest
from repro.registers.regdefs import index_by_name, physical_index
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
)


def mk_sim(**kw):
    defaults = dict(num_devs=1, num_links=4, num_banks=8, capacity=2)
    defaults.update(kw)
    return HMCSim(**defaults)


class TestInit:
    def test_kwargs_construction(self):
        s = mk_sim(num_links=8, num_banks=16, capacity=8)
        assert len(s.devices) == 1
        assert s.devices[0].config.num_vaults == 32

    def test_config_object_construction(self):
        cfg = SimConfig(device=DeviceConfig(num_links=4), num_devs=3)
        s = HMCSim(cfg)
        assert len(s.devices) == 3

    def test_mixing_config_and_kwargs_rejected(self):
        with pytest.raises(InitError):
            HMCSim(SimConfig(), bank_busy_cycles=4)

    def test_engine_kwargs_forwarded(self):
        s = mk_sim(bank_busy_cycles=3, queue_timeout=50)
        assert s.config.bank_busy_cycles == 3
        assert s.config.queue_timeout == 50

    def test_devices_homogeneous_and_reset(self):
        s = mk_sim(num_devs=3)
        assert all(d.config == s.config.device for d in s.devices)
        assert all(d.pending_packets() == 0 for d in s.devices)

    def test_host_cub(self):
        assert mk_sim(num_devs=2).host_cub == 3


class TestTopologyConfig:
    def test_attach_host(self):
        s = mk_sim()
        s.attach_host(0, 0)
        assert s.host_links() == [(0, 0)]
        assert s.devices[0].is_root
        link = s.devices[0].links[0]
        assert link.src_cub == s.host_cub  # host side is the source

    def test_double_configuration_rejected(self):
        s = mk_sim()
        s.attach_host(0, 0)
        with pytest.raises(TopologyError):
            s.attach_host(0, 0)

    def test_loopback_rejected(self):
        """Paper V.B: loopbacks induce zombie responses; forbidden."""
        s = mk_sim(num_devs=2)
        with pytest.raises(TopologyError):
            s.connect(0, 0, 0, 1)

    def test_connect_pairs_links(self):
        s = mk_sim(num_devs=2)
        s.connect(0, 2, 1, 3)
        assert s.link_peer(0, 2) == (1, 3)
        assert s.link_peer(1, 3) == (0, 2)
        assert s.devices[0].links[2].is_chain_link

    def test_connect_rejects_configured_link(self):
        s = mk_sim(num_devs=2)
        s.attach_host(0, 0)
        with pytest.raises(TopologyError):
            s.connect(0, 0, 1, 0)

    def test_out_of_range_ids(self):
        s = mk_sim()
        with pytest.raises(TopologyError):
            s.attach_host(1, 0)
        with pytest.raises(TopologyError):
            s.attach_host(0, 9)

    def test_no_host_link_blocks_clock(self):
        """Paper V.B: at least one device must connect to a host."""
        s = mk_sim()
        with pytest.raises(TopologyError):
            s.clock()

    def test_link_config_host_style(self):
        s = mk_sim()
        s.link_config(0, 0, src_cub=s.host_cub, dst_cub=0, link_type="host")
        assert s.host_links() == [(0, 0)]

    def test_link_config_wrong_host_cub(self):
        s = mk_sim()
        with pytest.raises(TopologyError):
            s.link_config(0, 0, src_cub=0, dst_cub=0, link_type="host")

    def test_link_config_device_style(self):
        s = mk_sim(num_devs=2)
        s.link_config(0, 1, src_cub=0, dst_cub=1, link_type="device")
        assert s.link_peer(0, 1) is not None

    def test_link_config_bad_type(self):
        s = mk_sim()
        with pytest.raises(TopologyError):
            s.link_config(0, 0, 0, 0, link_type="wormhole")


class TestRouting:
    def test_next_hop_direct(self):
        s = mk_sim(num_devs=2)
        s.attach_host(0, 0)
        s.connect(0, 1, 1, 0)
        assert s.next_hop(0, 1) == (1, 1, 0)

    def test_next_hop_multi_hop_chain(self):
        s = mk_sim(num_devs=3)
        s.attach_host(0, 0)
        s.connect(0, 1, 1, 0)
        s.connect(1, 1, 2, 0)
        hop = s.next_hop(0, 2)
        assert hop == (1, 1, 0)  # first hop toward dev 2 goes via dev 1

    def test_next_hop_unknown_cube(self):
        s = mk_sim()
        s.attach_host(0, 0)
        assert s.next_hop(0, 5) is None
        assert s.next_hop(0, s.host_cub) is None

    def test_routes_invalidate_on_topology_change(self):
        s = mk_sim(num_devs=2)
        s.attach_host(0, 0)
        assert s.next_hop(0, 1) is None
        s.connect(0, 1, 1, 0)
        assert s.next_hop(0, 1) is not None


class TestSendRecv:
    def test_send_requires_host_link(self):
        s = mk_sim()
        with pytest.raises(TopologyError):
            s.send(build_memrequest(0, 0, 0, CMD.RD16, link=0))

    def test_send_rejects_responses(self):
        s = mk_sim()
        s.attach_host(0, 0)
        from repro.packets.packet import Packet
        with pytest.raises(HMCError):
            s.send(Packet(cmd=CMD.WR_RS))

    def test_send_stall_on_full_queue(self):
        s = mk_sim(xbar_depth=2)
        s.attach_host(0, 0)
        s.send(build_memrequest(0, 0, 0, CMD.RD16, link=0))
        s.send(build_memrequest(0, 0, 1, CMD.RD16, link=0))
        with pytest.raises(StallError):
            s.send(build_memrequest(0, 0, 2, CMD.RD16, link=0))
        assert s.send_stalls == 1
        assert s.try_send(build_memrequest(0, 0, 3, CMD.RD16, link=0)) is False

    def test_recv_empty_raises(self):
        s = mk_sim()
        s.attach_host(0, 0)
        with pytest.raises(NoDataError):
            s.recv()

    def test_recv_needs_both_or_neither(self):
        s = mk_sim()
        s.attach_host(0, 0)
        with pytest.raises(HMCError):
            s.recv(dev=0)

    def test_round_trip_and_delivery_metadata(self):
        s = mk_sim()
        s.attach_host(0, 2)
        s.send(build_memrequest(0, 0x40, 5, CMD.RD64, link=2))
        s.clock(10)
        rsp = s.recv()
        assert rsp.tag == 5
        assert rsp.delivered_from == (0, 2)
        assert rsp.completed_at == s.clock_value
        assert s.in_flight == 0

    def test_recv_all_drains(self):
        s = mk_sim()
        s.attach_host(0, 0)
        for i in range(4):
            s.send(build_memrequest(0, i * 64, i, CMD.RD16, link=0))
        s.clock(15)
        out = s.recv_all()
        assert sorted(r.tag for r in out) == [0, 1, 2, 3]

    def test_can_send(self):
        s = mk_sim(xbar_depth=1)
        s.attach_host(0, 0)
        assert s.can_send(0, 0)
        assert not s.can_send(0, 1)  # not a host link
        s.send(build_memrequest(0, 0, 0, CMD.RD16, link=0))
        assert not s.can_send(0, 0)

    def test_posted_traffic_counts_in_flight(self):
        s = mk_sim()
        s.attach_host(0, 0)
        s.send(build_memrequest(0, 0, 0, CMD.P_WR16, payload=[1, 2], link=0))
        assert s.in_flight == 1  # never receives a response
        s.clock(10)
        assert s.pending_packets == 0  # consumed by the vault


class TestFlowControlIntegration:
    def test_token_exhaustion_stalls_send(self):
        s = mk_sim(link_token_flits=2)
        s.attach_host(0, 0)
        s.send(build_memrequest(0, 0, 0, CMD.RD16, link=0))  # 1 FLIT
        s.send(build_memrequest(0, 64, 1, CMD.RD16, link=0))  # 1 FLIT
        with pytest.raises(StallError):
            s.send(build_memrequest(0, 128, 2, CMD.RD16, link=0))

    def test_tokens_return_on_recv(self):
        s = mk_sim(link_token_flits=1)
        s.attach_host(0, 0)
        s.send(build_memrequest(0, 0, 3, CMD.RD16, link=0))
        s.clock(10)
        assert not s.can_send(0, 0)
        s.recv()
        assert s.can_send(0, 0)

    def test_posted_requests_return_tokens_immediately(self):
        s = mk_sim(link_token_flits=2)
        s.attach_host(0, 0)
        s.send(build_memrequest(0, 0, 0, CMD.P_WR16, payload=[1, 2], link=0))
        assert s.can_send(0, 0, flits=2)


class TestLifecycle:
    def test_reset_preserves_topology(self):
        s = mk_sim()
        s.attach_host(0, 0)
        s.send(build_memrequest(0, 0, 0, CMD.RD16, link=0))
        s.clock(3)
        s.reset()
        assert s.clock_value == 0
        assert s.packets_sent == 0
        assert s.pending_packets == 0
        assert s.host_links() == [(0, 0)]  # topology survives

    def test_rerun_after_reset_equals_fresh_simulator(self):
        """reset() leaves nothing of the first run behind: not the recv
        rotor (300 requests over 3 links park it at 2), not the engine's
        stage counters, not the watchdog's progress record."""
        def fresh():
            s = mk_sim(watchdog_cycles=5000, trace_mask=EventType.STANDARD)
            for link in range(3):
                s.attach_host(0, link)
            return s

        def run(s, num_requests):
            packet_mod._packet_serial = itertools.count()
            buf = io.BytesIO()
            sink = s.add_trace_sink(
                BinarySink(buf, num_vaults=s.config.device.num_vaults))
            Host(s).run(random_access_requests(
                s.config.device.capacity_bytes,
                RandomAccessConfig(num_requests=num_requests, seed=7)), cub=0)
            s.tracer.remove_sink(sink)
            return (s.clock_value, buf.getvalue(), s.stats(),
                    list(s.engine.stage_counts), s.engine._wd_last_cycle)

        reused = fresh()
        run(reused, 300)
        assert reused._recv_rotor != 0
        reused.link_errors_unrecovered = 1  # as a lossy first run leaves it
        reused.reset()
        assert reused.engine.stage_counts == [0] * 7
        assert reused.link_errors_unrecovered == 0
        assert run(reused, 500) == run(fresh(), 500)

    def test_free_blocks_further_use(self):
        s = mk_sim()
        s.attach_host(0, 0)
        s.free()
        with pytest.raises(HMCError):
            s.clock()
        with pytest.raises(HMCError):
            s.send(build_memrequest(0, 0, 0, CMD.RD16, link=0))

    def test_stats_keys(self):
        s = mk_sim()
        s.attach_host(0, 0)
        st = s.stats()
        for key in ("cycles", "packets_sent", "bank_conflicts", "xbar_stalls"):
            assert key in st

    def test_jtag_out_of_band_does_not_touch_clock(self):
        """Paper V.D: JTAG exists outside the clock domains."""
        s = mk_sim()
        s.attach_host(0, 0)
        phys = physical_index(index_by_name("EDR0"))
        s.jtag_reg_write(0, phys, 0x55)
        assert s.jtag_reg_read(0, phys) == 0x55
        assert s.clock_value == 0
        assert s.pending_packets == 0

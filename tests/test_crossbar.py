"""Unit tests for crossbar routing (repro.core.crossbar)."""

from collections import deque
from types import SimpleNamespace

import pytest

from repro.core.clock import _response_stage, _route_stage
from repro.core.crossbar import CrossbarUnit
from repro.core.simulator import HMCSim
from repro.packets.commands import CMD
from repro.packets.packet import ErrStat, build_memrequest
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink


@pytest.fixture
def sim():
    s = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
    s.attach_host(0, 0)
    return s


@pytest.fixture
def sink(sim):
    return sim.trace_to_memory(EventType.ALL)


def inject(sim, pkt, link=0, cycle=0):
    dev = sim.devices[0]
    pkt.route_stack = [(0, link)]
    dev.xbars[link].rqst.push(pkt, cycle)
    return pkt


def local_addr(sim, vault, bank=0, dram=0):
    return sim.devices[0].amap.encode(vault, bank, dram, 0)


class TestLocalRouting:
    def test_packet_reaches_target_vault(self, sim, sink):
        dev = sim.devices[0]
        pkt = inject(sim, build_memrequest(0, local_addr(sim, 5), 1, CMD.RD64))
        # Vault 5 is non-local to link 0: one base transit cycle plus
        # the configured routed-latency penalty.
        wait = 1 + sim.config.nonlocal_penalty_cycles
        moved = dev.xbars[0].route_requests(dev, sim, cycle=wait, moves=4,
                                            tracer=sim.tracer)
        assert moved == 1
        assert dev.vaults[5].rqst.peek() is pkt
        assert dev.xbars[0].routed_local == 1

    def test_nonlocal_penalty_delays_transit(self, sim, sink):
        dev = sim.devices[0]
        inject(sim, build_memrequest(0, local_addr(sim, 5), 1, CMD.RD64))
        # age 1 is enough for local traffic but not for cross-quad.
        assert dev.xbars[0].route_requests(dev, sim, 1, 4, sim.tracer) == 0
        assert dev.xbars[0].route_requests(dev, sim, 2, 4, sim.tracer) == 1

    def test_local_quad_no_latency_penalty(self, sim, sink):
        dev = sim.devices[0]
        # Link 0's closest quad is 0 (vaults 0..3).
        inject(sim, build_memrequest(0, local_addr(sim, 2), 1, CMD.RD64))
        dev.xbars[0].route_requests(dev, sim, 1, 4, sim.tracer)
        assert dev.xbars[0].latency_events == 0

    def test_nonlocal_quad_raises_latency_penalty(self, sim, sink):
        """Paper IV.C.2: higher latencies detected when the ingress link
        is not co-located with the destination vault's quad."""
        dev = sim.devices[0]
        inject(sim, build_memrequest(0, local_addr(sim, 9), 1, CMD.RD64))
        wait = 1 + sim.config.nonlocal_penalty_cycles
        dev.xbars[0].route_requests(dev, sim, wait, 4, sim.tracer)
        assert dev.xbars[0].latency_events == 1
        events = [e for e in sink.events if e.type is EventType.LATENCY_PENALTY]
        assert len(events) == 1
        assert events[0].vault == 9
        assert events[0].link == 0

    def test_full_vault_queue_stalls(self, sim, sink):
        dev = sim.devices[0]
        vault = dev.vaults[1]
        filler = build_memrequest(0, local_addr(sim, 1), 0, CMD.RD16)
        while not vault.rqst.is_full:
            vault.rqst.push(build_memrequest(0, local_addr(sim, 1), 0, CMD.RD16))
        inject(sim, build_memrequest(0, local_addr(sim, 1), 1, CMD.RD64))
        moved = dev.xbars[0].route_requests(dev, sim, 1, 4, sim.tracer)
        assert moved == 0
        assert dev.xbars[0].stall_events == 1
        assert any(e.type is EventType.XBAR_RQST_STALL for e in sink.events)

    def test_moves_cap(self, sim, sink):
        dev = sim.devices[0]
        for i in range(5):
            inject(sim, build_memrequest(0, local_addr(sim, i % 4), i, CMD.RD16))
        moved = dev.xbars[0].route_requests(dev, sim, 1, moves=2, tracer=sim.tracer)
        assert moved == 2
        assert len(dev.xbars[0].rqst) == 3

    def test_hop_limit_defers_same_cycle_arrivals(self, sim, sink):
        dev = sim.devices[0]
        inject(sim, build_memrequest(0, local_addr(sim, 0), 1, CMD.RD64), cycle=5)
        assert dev.xbars[0].route_requests(dev, sim, 5, 4, sim.tracer) == 0
        assert dev.xbars[0].route_requests(dev, sim, 6, 4, sim.tracer) == 1

    def test_fifo_order_for_local_traffic(self, sim, sink):
        dev = sim.devices[0]
        a = inject(sim, build_memrequest(0, local_addr(sim, 0), 1, CMD.RD16))
        b = inject(sim, build_memrequest(0, local_addr(sim, 0, bank=1), 2, CMD.RD16))
        dev.xbars[0].route_requests(dev, sim, 1, 4, sim.tracer)
        assert dev.vaults[0].rqst.pop() is a
        assert dev.vaults[0].rqst.pop() is b


class TestRemoteRouting:
    @pytest.fixture
    def chain(self):
        s = HMCSim(num_devs=2, num_links=4, num_banks=8, capacity=2)
        s.attach_host(0, 0)
        s.connect(0, 1, 1, 0)
        return s

    def test_forward_to_peer(self, chain):
        dev0, dev1 = chain.devices
        pkt = inject(chain, build_memrequest(1, 0x40, 1, CMD.RD64))
        moved = dev0.xbars[0].route_requests(dev0, chain, 1, 4, chain.tracer)
        assert moved == 1
        assert dev0.xbars[0].routed_remote == 1
        # Packet landed in dev1's crossbar at the peer link (link 0).
        assert dev1.xbars[0].rqst.peek() is pkt
        assert pkt.hops == 1
        assert pkt.route_stack == [(0, 0), (1, 0)]

    def test_remote_passes_stalled_local(self, chain):
        """Weak ordering (III.C): packets destined for ancillary devices
        may pass those waiting for local vault access."""
        dev0 = chain.devices[0]
        vault0 = dev0.vaults[0]
        while not vault0.rqst.is_full:
            vault0.rqst.push(build_memrequest(0, 0, 0, CMD.RD16))
        local = inject(chain, build_memrequest(0, local_addr(chain, 0), 1, CMD.RD16))
        remote = inject(chain, build_memrequest(1, 0x40, 2, CMD.RD16))
        moved = dev0.xbars[0].route_requests(dev0, chain, 1, 4, chain.tracer)
        assert moved == 1
        assert chain.devices[1].xbars[0].rqst.peek() is remote
        assert dev0.xbars[0].rqst.peek() is local  # still waiting

    def test_unroutable_cube_gets_error_response(self, chain):
        dev0 = chain.devices[0]
        inject(chain, build_memrequest(5, 0x40, 9, CMD.RD64))
        dev0.xbars[0].route_requests(dev0, chain, 1, 4, chain.tracer)
        assert dev0.xbars[0].misroutes == 1
        rsp = dev0.xbars[0].rsp.pop()
        assert rsp.cmd is CMD.ERROR
        assert rsp.errstat is ErrStat.UNROUTABLE
        assert rsp.tag == 9

    def test_unroutable_posted_is_dropped_silently(self, chain):
        dev0 = chain.devices[0]
        inject(chain, build_memrequest(5, 0x40, 0, CMD.P_WR16, payload=[1, 2]))
        dev0.xbars[0].route_requests(dev0, chain, 1, 4, chain.tracer)
        assert dev0.xbars[0].rsp.is_empty

    def test_full_peer_queue_stalls_forward(self, chain):
        dev0, dev1 = chain.devices
        while not dev1.xbars[0].rqst.is_full:
            dev1.xbars[0].rqst.push(build_memrequest(1, 0, 0, CMD.RD16))
        pkt = inject(chain, build_memrequest(1, 0x40, 1, CMD.RD64))
        moved = dev0.xbars[0].route_requests(dev0, chain, 1, 4, chain.tracer)
        assert moved == 0
        assert dev0.xbars[0].rqst.peek() is pkt
        assert dev0.xbars[0].stall_events == 1


class TestZombieExpiry:
    def test_queue_timeout_expires_packets(self):
        s = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2,
                   queue_timeout=10)
        s.attach_host(0, 0)
        dev = s.devices[0]
        # An unroutable-but-unforwardable packet sits forever: fill the
        # destination vault so it can never move.
        vault = dev.vaults[0]
        while not vault.rqst.is_full:
            vault.rqst.push(build_memrequest(0, 0, 0, CMD.RD16))
        pkt = build_memrequest(0, 0, 7, CMD.RD64)
        pkt.route_stack = [(0, 0)]
        dev.xbars[0].rqst.push(pkt, 0)
        dev.xbars[0].route_requests(dev, s, 100, 4, s.tracer)
        assert dev.xbars[0].expired == 1
        rsp = dev.xbars[0].rsp.pop()
        assert rsp.errstat is ErrStat.QUEUE_TIMEOUT
        assert rsp.tag == 7


class TestForeignObjects:
    def test_foreign_objects_are_refused_not_read(self, sim):
        """The C route and drain read crossbar, queue, packet and device
        slots by offset: any other object where one belongs is a
        TypeError."""
        dev = sim.devices[0]
        xbar = dev.xbars[0]
        inject(sim, build_memrequest(0, local_addr(sim, 0), 1, CMD.RD16))
        with pytest.raises(TypeError):
            CrossbarUnit.route_requests(SimpleNamespace(rqst=xbar.rqst), dev,
                                        sim, 1, 4, sim.tracer)
        with pytest.raises(TypeError, match="HMCDevice"):
            xbar.route_requests(SimpleNamespace(dev_id=0), sim, 1, 4, sim.tracer)
        with pytest.raises(TypeError, match="Tracer"):
            xbar.route_requests(dev, sim, 1, 4, SimpleNamespace(live_mask=-1))
        with pytest.raises(TypeError, match="HMCDevice"):
            _route_stage([SimpleNamespace()], sim, 1, [0], 4, sim.tracer)
        real, xbar.rqst = xbar.rqst, SimpleNamespace(_q=deque([1]))
        with pytest.raises(TypeError, match="PacketQueue"):
            xbar.route_requests(dev, sim, 1, 4, sim.tracer)
        xbar.rqst = real
        real._q[0] = SimpleNamespace(cub=0)
        with pytest.raises(TypeError, match="Packet"):
            xbar.route_requests(dev, sim, 1, 4, sim.tracer)
        # Stage 5's drain: a foreign device, response queue or response.
        with pytest.raises(TypeError, match="HMCDevice"):
            _response_stage([SimpleNamespace()], sim, 1, 4, sim.tracer)
        vault = dev.vaults[3]
        vault.rsp.push(build_memrequest(0, 0, 2, CMD.RD16))
        real, vault.rsp = vault.rsp, SimpleNamespace(_q=deque([1]))
        with pytest.raises(TypeError, match="PacketQueue"):
            _response_stage([dev], sim, 1, 4, sim.tracer)
        vault.rsp = real
        real._q[0] = SimpleNamespace(route_stack=[])
        with pytest.raises(TypeError, match="Packet"):
            _response_stage([dev], sim, 1, 4, sim.tracer)

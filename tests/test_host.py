"""Tests for the host driver and tag pools (repro.host)."""

import pytest

from repro.core.errors import TopologyError
from repro.core.simulator import HMCSim
from repro.host.host import Host, LinkPolicy
from repro.host.tagpool import TagPool
from repro.packets.commands import CMD
from repro.topology.builder import build_simple


class TestTagPool:
    def test_allocate_release_cycle(self):
        p = TagPool(size=4)
        tags = [p.allocate(context=i) for i in range(4)]
        assert tags == [0, 1, 2, 3]
        assert p.exhausted
        assert p.allocate() is None
        assert p.release(2) == 2
        assert p.available == 1
        assert p.allocate() == 2  # recycled

    def test_context_binding(self):
        p = TagPool()
        t = p.allocate(context={"addr": 64})
        assert p.context(t) == {"addr": 64}

    def test_double_release_raises(self):
        p = TagPool(size=2)
        t = p.allocate()
        p.release(t)
        with pytest.raises(KeyError):
            p.release(t)

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            TagPool(size=0)
        with pytest.raises(ValueError):
            TagPool(size=513)

    def test_counters_and_reset(self):
        p = TagPool(size=8)
        t = p.allocate()
        p.release(t)
        assert (p.allocated_total, p.released_total) == (1, 1)
        p.reset()
        assert p.available == 8
        assert p.allocated_total == 0

    def test_outstanding_tags(self):
        p = TagPool(size=8)
        a, b = p.allocate(), p.allocate()
        assert p.outstanding_tags() == sorted([a, b])


def mk_host(policy=LinkPolicy.ROUND_ROBIN, **kw):
    sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))
    return sim, Host(sim, policy=policy, **kw)


class TestHostBasics:
    def test_requires_host_links(self):
        sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
        with pytest.raises(TopologyError):
            Host(sim)

    def test_per_link_tag_pools(self):
        sim, host = mk_host(max_outstanding=16)
        assert set(host.tag_pools) == set(sim.host_links())
        assert all(p.size == 16 for p in host.tag_pools.values())

    def test_round_robin_rotates_links(self):
        sim, host = mk_host()
        links = []
        for i in range(8):
            host.send_request(CMD.RD16, addr=i * 64)
            # The most recent pending request records its link.
            pool = [p for p in host.tag_pools.values() if p.outstanding]
            links = [ctx.link for p in host.tag_pools.values()
                     for ctx in [p.context(t) for t in p.outstanding_tags()]]
        assert sorted(set(links)) == [0, 1, 2, 3]

    def test_posted_requests_use_no_tag(self):
        sim, host = mk_host()
        tag = host.send_request(CMD.P_WR16, addr=0, payload=[1, 2])
        assert tag == 0
        assert host.outstanding == 0
        assert host.sent == 1

    def test_tag_exhaustion_returns_none(self):
        sim, host = mk_host(max_outstanding=1)
        for link in range(4):
            assert host.send_request(CMD.RD16, addr=0) is not None
        assert host.send_request(CMD.RD16, addr=0) is None  # all pools full

    def test_send_stall_releases_tag(self):
        sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2,
                     xbar_depth=1)
        build_simple(sim, host_links=1)
        host = Host(sim)
        assert host.send_request(CMD.RD16, addr=0) is not None
        assert host.send_request(CMD.RD16, addr=64) is None  # queue full
        assert host.outstanding == 1  # the stalled tag was recycled

    @staticmethod
    def _assert_next_run_ends_with_its_response(host):
        """A leaked tag keeps ``outstanding`` above zero, so a draining
        run spins to *max_cycles* after its last response."""
        assert host.outstanding == 0
        res = host.run([(CMD.RD64, 0, None)], max_cycles=2000)
        assert res.responses_received == 1
        assert res.cycles == res.latencies[0] < 2000

    def test_retry_exhausted_send_releases_tag(self):
        from repro.core.errors import HMCError
        from repro.faults.link_model import LinkFaultModel

        sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
        build_simple(sim, host_links=1)
        sim.attach_fault_model(0, 0, LinkFaultModel(drop_rate=1.0), max_retries=2)
        host = Host(sim)
        for _ in range(3):
            with pytest.raises(HMCError):
                host.send_request(CMD.RD64, addr=0)
        assert sim.in_flight == 0
        sim.detach_fault_model(0, 0)
        self._assert_next_run_ends_with_its_response(host)

    def test_rejected_address_releases_tag(self):
        sim, host = mk_host()
        with pytest.raises(ValueError):
            host.send_request(CMD.RD64, addr=1 << 40)
        self._assert_next_run_ends_with_its_response(host)


class TestHostResponses:
    def test_drain_correlates_and_records_latency(self):
        sim, host = mk_host()
        host.send_request(CMD.RD64, addr=0x40)
        for _ in range(10):
            sim.clock()
        rsps = host.drain_responses()
        assert len(rsps) == 1
        assert host.received == 1
        assert host.outstanding == 0
        assert len(host.latencies) == 1
        assert host.latencies[0] > 0

    def test_error_responses_tallied(self):
        sim, host = mk_host()
        host.send_request(CMD.RD64, addr=0x40, cub=5)  # unroutable cube
        for _ in range(10):
            sim.clock()
        host.drain_responses()
        assert host.errors == 1
        assert len(host.error_stats) == 1


class TestRunLoop:
    def test_run_completes_stream(self):
        sim, host = mk_host()
        reqs = [(CMD.RD64, i * 64, None) for i in range(50)]
        result = host.run(reqs)
        assert result.requests_sent == 50
        assert result.responses_received == 50
        assert result.errors_received == 0
        assert result.cycles > 0
        assert len(result.latencies) == 50
        assert result.throughput > 0
        assert result.mean_latency > 0
        assert sim.pending_packets == 0

    def test_run_mixed_writes(self):
        sim, host = mk_host()
        reqs = [(CMD.WR64, i * 64, [i] * 8) for i in range(20)]
        result = host.run(reqs)
        assert result.responses_received == 20

    def test_run_respects_max_cycles(self):
        sim, host = mk_host()
        reqs = ((CMD.RD64, (i % 1000) * 64, None) for i in range(10_000_000))
        result = host.run(reqs, max_cycles=20)
        assert result.cycles <= 21

    def test_run_without_drain_leaves_outstanding(self):
        sim, host = mk_host()
        reqs = [(CMD.RD64, i * 64, None) for i in range(10)]
        host.run(reqs, drain=False)
        # Without drain the loop exits once the stream is exhausted,
        # possibly before every response returned; nothing hangs.
        assert host.sent == 10


class TestPolicies:
    def test_random_policy_spreads_links(self):
        sim, host = mk_host(policy=LinkPolicy.RANDOM)
        for i in range(32):
            host.send_request(CMD.RD16, addr=i * 64)
        used = {ctx.link for p in host.tag_pools.values()
                for ctx in (p.context(t) for t in p.outstanding_tags())}
        assert len(used) >= 2

    def test_locality_policy_picks_colocated_link(self):
        sim, host = mk_host(policy=LinkPolicy.LOCALITY)
        amap = sim.devices[0].amap
        # Address in vault 9 -> quad 2 -> link 2.
        addr = amap.encode(9, 0, 0, 0)
        host.send_request(CMD.RD16, addr=addr)
        ctx = next(ctx for p in host.tag_pools.values()
                   for ctx in (p.context(t) for t in p.outstanding_tags()))
        assert ctx.link == 2

    def test_locality_policy_reduces_latency_penalties(self):
        """The paper's VI.B corollary: locality-aware routing reduces
        latency penalties vs round-robin."""
        def run(policy):
            sim = build_simple(
                HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))
            host = Host(sim, policy=policy)
            reqs = [(CMD.RD64, i * 64, None) for i in range(256)]
            host.run(reqs)
            return sim.stats()["latency_penalties"]

        assert run(LinkPolicy.LOCALITY) < run(LinkPolicy.ROUND_ROBIN)

"""Tests for multiple hosts sharing one cube fabric (partitioned links)."""

import pytest

from repro.core.errors import NoDataError, TopologyError
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.topology.builder import build_simple
from repro.workloads.lcg import LCG


def mk_sim():
    return build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))


class TestPartitioning:
    def test_links_subset_validated(self):
        sim = mk_sim()
        with pytest.raises(TopologyError):
            Host(sim, links=[(0, 9)])
        with pytest.raises(TopologyError):
            Host(sim, links=[(1, 0)])

    def test_partitioned_host_uses_only_its_links(self):
        sim = mk_sim()
        a = Host(sim, links=[(0, 0), (0, 1)])
        for i in range(8):
            a.send_request(CMD.RD64, i * 64)
        used = {ctx.link for p in a.tag_pools.values()
                for ctx in (p.context(t) for t in p.outstanding_tags())}
        assert used <= {0, 1}

    def test_empty_partition_rejected(self):
        sim = mk_sim()
        with pytest.raises(TopologyError):
            Host(sim, links=[])


class TestTwoHosts:
    def test_responses_never_cross_hosts(self):
        """Two hosts on disjoint links: each receives exactly its own
        responses, even with identical tags in flight."""
        sim = mk_sim()
        a = Host(sim, links=[(0, 0), (0, 1)])
        b = Host(sim, links=[(0, 2), (0, 3)])
        rng = LCG(5)
        for i in range(32):
            a.send_request(CMD.RD64, rng.next_below(1 << 20) * 64)
            b.send_request(CMD.RD64, rng.next_below(1 << 20) * 64)
        for _ in range(400):
            sim.clock()
            a.drain_responses()
            b.drain_responses()
            if a.outstanding == 0 and b.outstanding == 0:
                break
        assert a.received == 32
        assert b.received == 32
        assert a.errors == 0 and b.errors == 0

    def test_two_hosts_data_isolation(self):
        """Host A's writes are visible to host B (shared memory), with
        each host's own stream ordering intact."""
        sim = mk_sim()
        a = Host(sim, links=[(0, 0)])
        b = Host(sim, links=[(0, 1)])
        a.send_request(CMD.WR64, 0x8000, payload=[0xA] * 8)
        for _ in range(20):
            sim.clock()
            a.drain_responses()
        tag = b.send_request(CMD.RD64, 0x8000)
        rsp = None
        for _ in range(20):
            sim.clock()
            for r in b.drain_responses():
                if r.tag == tag:
                    rsp = r
            if rsp:
                break
        assert rsp is not None
        assert list(rsp.payload) == [0xA] * 8

    def test_interleaved_run_loops(self):
        """Manually interleaved drive loops complete both hosts' work."""
        sim = mk_sim()
        a = Host(sim, links=[(0, 0), (0, 1)])
        b = Host(sim, links=[(0, 2), (0, 3)])
        wa = [(CMD.WR64, 0x10000 + i * 64, [1] * 8) for i in range(64)]
        wb = [(CMD.RD64, 0x20000 + i * 64, None) for i in range(64)]
        ia, ib = iter(wa), iter(wb)
        pa = pb = None
        done_a = done_b = False
        for _ in range(2000):
            for host, it, pending, setter in (
                (a, ia, pa, "pa"), (b, ib, pb, "pb")):
                while True:
                    if pending is None:
                        try:
                            pending = next(it)
                        except StopIteration:
                            break
                    cmd, addr, payload = pending
                    if host.send_request(cmd, addr, payload=payload) is None:
                        break
                    pending = None
                if setter == "pa":
                    pa = pending
                else:
                    pb = pending
            sim.clock()
            a.drain_responses()
            b.drain_responses()
            done_a = pa is None and a.outstanding == 0 and a.sent == 64
            done_b = pb is None and b.outstanding == 0 and b.sent == 64
            if done_a and done_b:
                break
        assert done_a and done_b
        assert a.received == 64 and b.received == 64


class TestResponsesQueued:
    """``Host.responses_queued()`` is the drain's skip test: true
    exactly when ``drain_responses()`` would deliver something (on a
    fault-free link; under in-band replay a queued head may be held
    back a few cycles — tests/test_serve_golden.py pins that side)."""

    @pytest.mark.parametrize("links", [[(0, 1)], [(0, 0), (0, 3)], None])
    def test_true_exactly_when_a_drain_would_deliver(self, links):
        sim = mk_sim()
        host = Host(sim, links=links)
        # A neighbour's undrained responses must not read as this
        # host's (an unpartitioned host owns every link: no neighbour).
        other = Host(sim, links=[(0, 2)]) if links else None
        rng = LCG(7)
        seen = set()
        for cycle in range(120):
            if cycle < 40:
                host.send_request(CMD.RD64, rng.next_below(1 << 20) * 64)
                if other is not None:
                    other.send_request(CMD.RD64, rng.next_below(1 << 20) * 64)
            sim.clock()
            queued = host.responses_queued()
            before = host.mark()
            assert bool(host.drain_responses()) == queued
            assert (host.delta(before)[1] > 0) == queued
            assert not host.responses_queued()
            seen.add(queued)
        assert seen == {True, False} and host.outstanding == 0

    def test_a_quiet_partitioned_drain_moves_nothing(self):
        sim = mk_sim()
        host = Host(sim, links=[(0, 1)])
        rotor, received = sim._recv_rotor, sim.packets_received
        assert not host.responses_queued() and host.drain_responses() == []
        assert (sim._recv_rotor, sim.packets_received) == (rotor, received)

    @pytest.mark.parametrize("links", [[(0, 1)], None])
    def test_freed_sim_raises_like_the_drain(self, links):
        from repro.core.errors import HMCError

        sim = mk_sim()
        host = Host(sim, links=links)
        sim.free()
        with pytest.raises(HMCError, match="freed"):
            host.responses_queued()
        with pytest.raises(HMCError, match="freed"):
            host.drain_responses()


class TestPartitionedDrain:
    @staticmethod
    def _recv_each(sim, links):
        """The per-packet reference: ``recv(dev=, link=)`` on each link
        until a replay window holds the head back or the queue empties."""
        out = []
        for d, l in links:
            while sim.devices[d].xbars[l].rsp._q:
                try:
                    out.append(sim.recv(dev=d, link=l))
                except NoDataError:
                    break
        return out

    def test_same_responses_in_the_same_order_as_recv(self):
        """A partitioned drain polls each of its links as ``recv(dev=,
        link=)`` would, on noisy host links whose replay windows hold
        responses back."""
        links = [(0, 2), (0, 0), (0, 3)]
        sims = [build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                    capacity=2, link_ber=5e-4, link_seed=7))
                for _ in range(2)]
        hosts = [Host(sim, links=links) for sim in sims]
        rng = LCG(11)
        addrs = [rng.next_below(1 << 20) * 64 for _ in range(96)]
        seen = [[], []]
        for _ in range(2000):
            for host in hosts:
                while host.sent < len(addrs) and host.send_request(
                        CMD.RD64, addrs[host.sent]) is not None:
                    pass
            for sim in sims:
                sim.clock()
            got = (hosts[0].drain_responses(), self._recv_each(sims[1], links))
            for out, rsps in zip(seen, got):
                out += [(r.delivered_from, r.tag, r.serial, r.completed_at)
                        for r in rsps]
            if len(seen[0]) == len(addrs):
                break
        assert seen[0] == seen[1]
        assert len(seen[0]) == hosts[1].sent == 96
        faults = sims[0].stats()["link_faults"]
        assert sum(f["crc_failures"] for f in faults.values()) > 0

"""Tests for the host driver and tag pools (repro.host)."""

import json
import pickle

import numpy as np
import pytest

from repro.core.checkpoint import restore_bundle
from repro.core.errors import LinkDeadError, StallError, TopologyError
from repro.core.simulator import HMCSim
from repro.faults import LinkFaultModel, ScheduledInjector
from repro.host.host import Host, LinkPolicy
from repro.host.tagpool import TagPool
from repro.packets.commands import CMD
from repro.packets.packet import build_memrequest
from repro.topology.builder import build_chain, build_simple
from tests.fixtures.gen_pre_lazy_rng_host import (
    BLOB_PATH,
    EXPECT_PATH,
    PHASE_A,
    build,
    drive,
    run_continuation,
)


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
        # Host link 0 drops everything until its gate fails it; the
        # stalled sends and the one that finds the link dead all give
        # their tags back, and the host fails over to link 1.
        sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
        build_simple(sim, host_links=2)
        sim.attach_link_fault(0, 0, LinkFaultModel(drop_rate=1.0), max_retries=2)
        host = Host(sim)
        while sim.link_failures == 0:
            if host.send_request(CMD.RD64, addr=0) is not None:
                sim.clock_until_response(max_cycles=100)
                host.drain_responses()
            sim.clock(1)
        assert sim.in_flight == 0
        self._assert_next_run_ends_with_its_response(host)

    def test_rejected_address_releases_tag(self):
        sim, host = mk_host()
        with pytest.raises(ValueError):
            host.send_request(CMD.RD64, addr=1 << 40)
        self._assert_next_run_ends_with_its_response(host)


class TestOrderContract:
    """What the one inject body and the reply path keep exactly."""

    def test_hot_lane_stall_recycles_tag_to_the_back(self, monkeypatch):
        sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2,
                     xbar_depth=1)
        build_simple(sim, host_links=1)
        host = Host(sim)

        def general_path(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("hot lane left for HMCSim.send")

        # No link-error machinery: the host injects without HMCSim.send.
        monkeypatch.setattr(HMCSim, "send", general_path)
        assert host.send_request(CMD.RD16, addr=0) == 0
        assert sim.tracer.next_serial == 1
        assert host.send_request(CMD.RD16, addr=64) is None  # queue full
        # The stalled packet was built: exactly one serial drawn.
        assert sim.tracer.next_serial == 2
        assert sim.send_stalls == 1
        pool = host.tag_pools[(0, 0)]
        assert pool._free[0] == 2 and pool._free[-1] == 1
        assert pool.outstanding_tags() == [0]

    def test_replay_window_stall_is_a_hot_lane_stall(self, monkeypatch):
        """A faulty host link stays on the inlined lane: its gate runs
        after the room check, a replay window stalls like a full queue
        (no StallError built), and a dead link still raises."""
        sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
        build_simple(sim, host_links=1)
        # Transmission 0 is clean, transmission 1 corrupts.
        state = sim.attach_link_fault(
            0, 0, LinkFaultModel(injector=ScheduledInjector({1})))
        host = Host(sim)

        def general_path(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("hot lane left for HMCSim.send")

        def no_stall_error(self, *args):  # pragma: no cover - must not run
            raise AssertionError("a StallError was built")

        monkeypatch.setattr(HMCSim, "send", general_path)
        monkeypatch.setattr(StallError, "__init__", no_stall_error)
        assert host.send_request(CMD.RD16, addr=0) == 0
        assert sim.tracer.next_serial == 1
        assert host.send_request(CMD.RD16, addr=64) is None  # CRC failure
        assert sim.tracer.next_serial == 2
        assert sim.send_stalls == 1
        pool = host.tag_pools[(0, 0)]
        assert pool._free[0] == 2 and pool._free[-1] == 1
        # Inside the replay window the gate stalls without a draw.
        assert host.send_request(CMD.RD16, addr=64) is None
        assert state.stats.transmissions == 2 and sim.send_stalls == 2
        state.fail()
        with pytest.raises(LinkDeadError) as exc:
            host.send_request(CMD.RD16, addr=128)
        assert exc.value.report["link_failures"] == 1
        assert pool.outstanding_tags() == [0]

    def test_held_request_keeps_its_route_stack(self):
        sim = build_chain(HMCSim(num_devs=2, num_links=4, num_banks=8,
                                 capacity=2))
        pkt = build_memrequest(1, 0x40, 7, CMD.RD64)
        sim.send(pkt, dev=0, link=0)
        for _ in range(200):
            sim.clock()
            rsps = sim.recv_all()
            if rsps:
                break
        assert [r.tag for r in rsps] == [7]
        # The reply popped its route records from a copy of the stack.
        assert pkt.route_stack[0] == (0, 0) and len(pkt.route_stack) == 2
        assert rsps[0].route_stack == []

    def test_far_cube_replies_leave_on_the_ingress_link(self):
        sim = build_chain(HMCSim(num_devs=4, num_links=4, num_banks=8,
                                 capacity=2), host_links=2)
        host = Host(sim)
        host.run([(CMD.WR64, i * 64, [100 + i] * 8) for i in range(12)], cub=3)
        for i in range(12):
            assert host.send_request(CMD.RD64, addr=i * 64, cub=3) is not None
        rsps = []
        for _ in range(2000):
            sim.clock()
            rsps += sim.recv_all()
            if len(rsps) == 12:
                break
        assert {r.delivered_from for r in rsps} == {(0, 0), (0, 1)}
        for rsp in rsps:
            # The reply came back on the link its request went out on:
            # that link's pool holds the request, and the data is its.
            ctx = host.tag_pools[rsp.delivered_from].context(rsp.tag)
            assert (ctx.dev, ctx.link) == rsp.delivered_from
            assert rsp.src_cub == 3
            assert rsp.payload[0] == 100 + ctx.addr // 64


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


class TestHostPickle:
    """A host pickles only what it uses: no RANDOM generator before the
    first random pick, the tag pools' free lists as tuples — and a host
    blob written before that still restores and behaves the same
    (``tests/fixtures/gen_pre_lazy_rng_host.py``)."""

    @pytest.fixture(scope="class")
    def old_blob(self):
        with open(BLOB_PATH, "rb") as fh:
            blob = fh.read()
        with open(EXPECT_PATH) as fh:
            expect = json.load(fh)
        assert len(blob) == expect.pop("blob_bytes")
        return blob, expect

    def test_unused_generator_is_not_made(self):
        _, host = mk_host()
        host.run([(CMD.RD64, i * 64, None) for i in range(8)])
        assert host._rng is None
        state = pickle.dumps(host.tag_pools)
        assert b"deque" not in state and b"numpy.random" not in pickle.dumps(host)

    def test_random_stream_is_the_seeds(self):
        _, host = mk_host(LinkPolicy.RANDOM, seed=9)
        links = host._host_links
        picks = [host._pick_link(0, 0) for _ in range(32)]
        rng = np.random.default_rng(9)
        assert picks == [links[int(rng.integers(len(links)))] for _ in range(32)]

    def test_tag_pool_round_trips(self):
        pool = TagPool(size=8)
        tags = [pool.allocate(context=i) for i in range(5)]
        pool.release(tags[1])
        copy = pickle.loads(pickle.dumps(pool))
        assert vars(copy) == vars(pool)
        assert [copy.allocate() for _ in range(4)] == [5, 6, 7, 1]

    def test_old_blob_is_the_old_shape(self, old_blob):
        blob, _ = old_blob
        assert b"numpy.random" in blob and b"deque" in blob

    def test_old_blob_restores_and_continues_the_same(self, old_blob):
        blob, expect = old_blob
        sim, (host,) = restore_bundle(blob)
        assert run_continuation(sim, host) == expect

    def test_a_new_host_draws_what_the_old_one_did(self, old_blob):
        _, expect = old_blob
        sim, host = build()
        drive(sim, host, PHASE_A, drain=False)
        assert run_continuation(sim, host) == expect

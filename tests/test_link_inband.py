"""In-band link retry, degradation ladder, reroute and watchdog tests.

Covers the engine-integrated fault path (repro.faults.inband): every
link traversal runs through a :class:`InbandLinkState` gate, retries
consume real simulated cycles, links degrade FULL -> HALF -> FAILED,
chained topologies reroute around dead links, and the no-progress
watchdog converts flow-control livelock into a typed abort — on the
engine ("active") and the tests' full-walk reference ("naive"),
bit-identically.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import checkpoint, migrate
from repro.core.config import DeviceConfig, SimConfig
from repro.core.errors import (
    E_DEADLOCK,
    E_LINKFAIL,
    HMCError,
    LinkDeadError,
    NoDataError,
    StallError,
    TopologyError,
    WatchdogError,
)
from repro.core.simulator import HMCSim
from repro.faults import (
    BitErrorInjector,
    FaultKind,
    InbandLinkState,
    LinkFaultModel,
    LinkHealth,
    LinkRetryExhausted,
    ScheduledInjector,
)
from repro.packets.commands import CMD
from repro.packets.flow import FlowControlError, LinkTokens, RetryPointerState
from repro.packets.packet import ErrStat, build_memrequest
from repro.host.host import Host
from repro.topology.builder import build_chain, build_mesh, build_ring
from repro.trace.events import EventType
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
)
from tests.checkpoint_blobs import legacy_pickle
from tests.reference.crossbar import ReferenceCrossbarUnit, adopt
from tests.reference.full_walk import BUILD


DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)


def _chain2(scheduler="naive", **kw):
    """Host -> dev0 -> dev1 two-cube chain."""
    sim = BUILD[scheduler](SimConfig(device=DEVICE, num_devs=2, **kw))
    sim.attach_host(0, 0)
    sim.connect(0, 2, 1, 1)
    return sim


class TestExportsAndErrno:
    """Satellite: package-root exports and errno consistency."""

    def test_faults_package_exports(self):
        import repro.faults as faults

        for name in (
            "LinkRetryExhausted", "FaultKind", "ScheduledInjector",
            "InbandLinkState", "LinkHealth", "LinkFaultModel",
        ):
            assert hasattr(faults, name), name
            assert name in faults.__all__

    def test_error_errnos(self):
        assert LinkDeadError("x").errno == E_LINKFAIL
        assert WatchdogError("x").errno == E_DEADLOCK
        assert LinkRetryExhausted("x").errno == E_LINKFAIL
        assert issubclass(LinkRetryExhausted, HMCError)
        assert issubclass(LinkRetryExhausted, RuntimeError)

    def test_errors_carry_structured_report(self):
        rep = {"cycle": 7}
        assert LinkDeadError("x", report=rep).report == rep
        assert WatchdogError("x").report == {}

    def test_api_translates_linkfail_errno(self):
        from repro.core import api

        hmc = api.hmcsim_t()
        hmc._sim = _chain2()
        state = hmc.sim.attach_link_fault(0, 0, LinkFaultModel(seed=1))
        state.fail()
        hmc.sim._note_link_failure(state)
        ret, _, _, words = api.hmcsim_build_memrequest(
            hmc, 0, 0x40, 1, "RD64", 0)
        assert ret == 0
        assert api.hmcsim_send(hmc, words) == E_LINKFAIL

    def test_api_translates_watchdog_errno(self):
        from repro.core import api

        hmc = api.hmcsim_t()
        hmc._sim = _chain2(link_token_flits=32, watchdog_cycles=40)
        state = hmc.sim.attach_link_fault(0, 2, LinkFaultModel(seed=1))
        for tag in range(1, 4):
            hmc.sim.send(build_memrequest(1, 0x40 * tag, tag, CMD.RD64, link=0))
        hmc.sim.clock(4)
        state.fail()
        hmc.sim._note_link_failure(state)
        ret = 0
        for _ in range(500):
            ret = api.hmcsim_clock(hmc)
            if ret != 0:
                break
        assert ret == E_DEADLOCK


class TestConstruction:
    def test_retry_slots_must_fit_the_frp_field(self):
        """FRP is 8 bits; with no in-band encode left to trip over it, a
        512-slot buffer would wrap pointers silently."""
        with pytest.raises(ValueError, match="buffer_slots"):
            InbandLinkState([(0, 0)], LinkFaultModel(), retry_slots=512)


class TestDegradationLadder:
    def test_full_half_failed_and_registers(self):
        sim = _chain2(link_max_retries=2, link_retry_delay=3)
        state = sim.attach_link_fault(0, 2, LinkFaultModel(drop_rate=1.0, seed=5))
        sink = sim.trace_to_memory()
        for tag in range(1, 5):
            sim.send(build_memrequest(1, 0x40 * tag, tag, CMD.RD64, link=0))
        sim.run(200)
        rsps = sim.recv_all()
        # Ladder: FULL -(3 fails)-> HALF -(3 more)-> FAILED.
        assert state.health is LinkHealth.FAILED
        assert state.degradations == 2
        assert sim.link_failures == 1
        # With no surviving path, requests come back as routing errors.
        assert len(rsps) == 4
        assert {r.errstat for r in rsps} == {ErrStat.UNROUTABLE}
        # Both endpoints mirror the packed health/counter register.
        for dev, link in ((0, 2), (1, 1)):
            status = InbandLinkState.unpack_status(
                sim.devices[dev].regs.peek(f"LRS{link}"))
            assert status["health"] == "FAILED"
            assert status["degradations"] == 2
            assert status["drops"] == state.stats.drops > 0
        types = {e.type for e in sink.events}
        assert EventType.LINK_RETRY in types
        assert EventType.LINK_DEGRADED in types
        assert EventType.LINK_FAILED in types

    def test_half_width_doubles_serialization(self):
        state = InbandLinkState([(0, 0)], LinkFaultModel(seed=1))
        state.health = LinkHealth.HALF
        pkt = build_memrequest(0, 0x40, 1, CMD.WR64,
                               payload=[0] * 8, link=0)

        class _T:
            def event(self, *a, **k):
                pass

        assert state.try_transmit("host", pkt, 100, _T()) == "ok"
        # num_flits extra cycles of busy: doubled FLIT cost.
        assert not state.ready_for("host", 100 + pkt.num_flits - 1)
        assert state.ready_for("host", 100 + pkt.num_flits)

    def test_write_to_clear_rebases_counters(self):
        sim = _chain2(link_max_retries=50, link_retry_delay=2)
        state = sim.attach_link_fault(0, 2, LinkFaultModel(drop_rate=0.5, seed=9))
        for tag in range(1, 9):
            sim.send(build_memrequest(1, 0x40 * tag, tag, CMD.RD64, link=0))
        sim.run(300)
        before = InbandLinkState.unpack_status(sim.devices[0].regs.peek("LRS2"))
        assert before["drops"] > 0
        sim.devices[0].regs.write("LRS2", 0)  # host strobe: clear
        sim.run(2)
        after = InbandLinkState.unpack_status(sim.devices[0].regs.peek("LRS2"))
        assert after["drops"] == 0
        # The peer endpoint keeps its own (uncleared) baseline.
        peer = InbandLinkState.unpack_status(sim.devices[1].regs.peek("LRS1"))
        assert peer["drops"] == before["drops"]

    def test_link_health_surface(self):
        sim = _chain2()
        assert sim.devices[0].links[2].health == "FULL"
        state = sim.attach_link_fault(0, 2, LinkFaultModel(seed=1))
        link = sim.devices[0].links[2]
        assert link.effective_lanes() == link.lanes
        state.health = LinkHealth.HALF
        assert link.effective_lanes() == link.lanes // 2
        state.health = LinkHealth.FAILED
        assert link.effective_lanes() == 0
        assert link.effective_bandwidth_gbps() == 0.0

    def test_attach_validation(self):
        sim = _chain2()
        with pytest.raises(TopologyError):
            sim.attach_link_fault(0, 3, LinkFaultModel(seed=1))  # unconfigured
        sim.attach_link_fault(0, 2, LinkFaultModel(seed=1))
        with pytest.raises(TopologyError):
            sim.attach_link_fault(1, 1, LinkFaultModel(seed=1))  # same link


class TestRerouteAroundDeadLink:
    def _ring3(self, **kw):
        """Host on dev0; ring 0-1-2-0 gives two disjoint paths to dev1."""
        sim = HMCSim(SimConfig(device=DEVICE, num_devs=3, **kw))
        sim.attach_host(0, 0)
        sim.connect(0, 1, 1, 1)
        sim.connect(1, 2, 2, 2)
        sim.connect(2, 3, 0, 3)
        return sim

    def test_traffic_reroutes_after_failure(self):
        sim = self._ring3(link_max_retries=1, link_retry_delay=2)
        state = sim.attach_link_fault(0, 1, LinkFaultModel(drop_rate=1.0, seed=3))
        for tag in range(1, 7):
            sim.send(build_memrequest(1, 0x80 * tag, tag, CMD.RD64, link=0))
        sim.run(400)
        rsps = sim.recv_all()
        assert state.health is LinkHealth.FAILED
        # Every request completed cleanly via the surviving 0->2->1 path.
        assert sorted(r.tag for r in rsps) == list(range(1, 7))
        assert all(r.errstat is ErrStat.OK for r in rsps)
        assert sum(x.routed_remote for x in sim.devices[2].xbars) > 0
        # next_hop now avoids the dead link.
        hop = sim.next_hop(0, 1)
        assert hop is not None and hop[0] == 3

    def test_route_analysis_excludes_failed(self):
        pytest.importorskip("networkx")
        from repro.topology.route import (
            link_health_report,
            path_between,
            surviving_partition,
        )

        sim = self._ring3()
        state = sim.attach_link_fault(0, 1, LinkFaultModel(seed=3))
        assert path_between(sim, 0, 1) == [0, 1]
        state.fail()
        sim._note_link_failure(state)
        assert path_between(sim, 0, 1, include_failed=False) == [0, 2, 1]
        assert path_between(sim, 0, 1) == [0, 1]  # physical graph intact
        assert surviving_partition(sim) == [[0, 1, 2]]
        rep = link_health_report(sim)
        assert rep["dev0.link1"]["health"] == "FAILED"
        assert rep["dev0.link1"]["fabric_partitions"] == 1

    def test_no_surviving_path_raises_on_host_link(self):
        sim = _chain2()
        state = sim.attach_link_fault(0, 0, LinkFaultModel(seed=1))
        state.fail()
        sim._note_link_failure(state)
        with pytest.raises(LinkDeadError) as exc:
            sim.send(build_memrequest(0, 0x40, 1, CMD.RD64, link=0))
        assert exc.value.errno == E_LINKFAIL
        assert exc.value.report["link_failures"] == 1
        with pytest.raises(NoDataError):
            sim.recv(dev=0, link=0)


class TestWatchdog:
    """A dropped response (and its piggybacked TRET tokens) on a dead
    chain link leaks flow-control credits: the host can never send
    again and no response can ever arrive.  The watchdog must convert
    that livelock into a typed abort — at the same cycle on the engine
    and the reference — instead of hanging."""

    def _deadlock(self, scheduler):
        sim = _chain2(scheduler=scheduler, link_token_flits=32,
                      watchdog_cycles=50)
        state = sim.attach_link_fault(0, 2, LinkFaultModel(seed=5))
        for tag in range(1, 5):
            sim.send(build_memrequest(1, 0x40 * tag, tag, CMD.RD64, link=0))
        # Clock until responses are queued inside dev1, then kill the
        # chain link they must cross.
        for _ in range(60):
            sim.clock()
            occ = sum(len(x.rsp._q) for x in sim.devices[1].xbars) + \
                sum(len(v.rsp._q) for v in sim.devices[1].vaults)
            if occ:
                break
        state.fail()
        sim._note_link_failure(state)
        with pytest.raises(WatchdogError) as exc:
            sim.run(3000)
        return sim, exc.value

    @pytest.mark.parametrize("scheduler", ["naive", "active"])
    def test_fires_typed_abort(self, scheduler):
        sim, err = self._deadlock(scheduler)
        assert err.errno == E_DEADLOCK
        assert sim.watchdog_trips == 1
        rep = err.report
        assert rep["watchdog_cycles"] == 50
        assert rep["in_flight"] > 0  # leaked tokens, never returned
        assert rep["link_failures"] == 1
        assert sim.dropped_responses > 0
        assert sim.stats()["watchdog_trips"] == 1

    def test_same_abort_cycle_both_schedulers(self):
        naive, _ = self._deadlock("naive")
        active, _ = self._deadlock("active")
        assert naive.clock_value == active.clock_value

    def test_quiet_idle_does_not_trip(self):
        sim = _chain2(watchdog_cycles=20)
        sim.attach_link_fault(0, 2, LinkFaultModel(seed=5))
        sim.send(build_memrequest(1, 0x40, 1, CMD.RD64, link=0))
        sim.run(500)  # long idle tail after completion: no work => no trip
        assert sim.watchdog_trips == 0
        assert len(sim.recv_all()) == 1


class TestCheckpointRoundTrip:
    """Satellite: snapshot/restore must round-trip retry state and the
    fault-model RNG bit-identically."""

    def _fingerprint(self, sim):
        return {
            "cycle": sim.clock_value,
            "stats": sim.stats(),
            "regs": [d.regs.snapshot() for d in sim.devices],
            "link": [s.stats_dict() for s in sim._link_fault_states],
        }

    @pytest.mark.parametrize("scheduler", ["naive", "active"])
    def test_mid_retry_snapshot_continues_identically(self, scheduler):
        sim = _chain2(scheduler=scheduler, link_ber=2e-4,
                      link_drop_rate=0.01, link_seed=3)
        tags = iter(range(1, 512))
        for _ in range(8):
            sim.send(build_memrequest(1, 0x40 * next(tags), next(tags),
                                      CMD.RD64, link=0))
        sim.run(40)  # stop mid-flight, likely mid-replay-window
        blob = checkpoint.snapshot(sim)
        twin = checkpoint.restore(blob)

        for s in (sim, twin):
            s.run(300)
            s.recv_all()
            s.run(50)
        assert self._fingerprint(sim) == self._fingerprint(twin)
        # The run actually exercised the fault path.
        faults = sim.stats()["link_faults"]
        assert any(v["transmissions"] > 0 for v in faults.values())

    def test_snapshot_preserves_fault_rng_stream(self):
        model = LinkFaultModel(ber=1e-3, seed=11)
        state = InbandLinkState([(0, 0)], model)
        sim = _chain2()
        sim._link_faults[(0, 0)] = state
        sim._link_fault_states.append(state)
        blob = checkpoint.snapshot(sim)
        twin = checkpoint.restore(blob)
        a = [sim._link_fault_states[0].model.outcome(768)[0]
             for _ in range(200)]
        b = [twin._link_fault_states[0].model.outcome(768)[0]
             for _ in range(200)]
        assert a == b


    def test_mid_block_snapshot_continues_identically(self):
        """Block state pickles with the injector: a snapshot taken with
        the cursor inside a block and a flip still pending in it resumes
        on the same flips."""
        model = LinkFaultModel(ber=1e-3, seed=11)
        for _ in range(5):
            model.outcome(768)
        inj = model.injector
        assert 0 < inj._pos < 8192 and len(inj._pending) > 1
        twin = pickle.loads(pickle.dumps(model))
        a = [model.outcome(768) for _ in range(200)]
        assert a == [twin.outcome(768) for _ in range(200)]
        assert any(kind is FaultKind.CORRUPT for kind, _ in a[:6])

    def test_pre_block_sampling_blob_resumes_the_same_stream(self):
        """An injector pickled before block sampling (``ber`` attribute,
        no block fields, generator advanced one uniform per wire bit)
        continues on the stream it would have drawn."""
        ber, seed, sent, nbits = 1e-3, 11, 5, 768
        rng = np.random.default_rng(seed)
        rng.random(sent * nbits)
        state = {"ber": ber, "_rng": rng, "transmissions": sent,
                 "corrupted_transmissions": 0, "bits_flipped": 0}
        old = migrate.loads(legacy_pickle(
            BitErrorInjector(ber), shapes={BitErrorInjector: lambda _: state}
        ))
        assert type(old) is BitErrorInjector
        fresh = BitErrorInjector(ber, seed)
        for _ in range(sent):
            fresh.flips(nbits)
        assert old.ber == ber
        assert [old.flips(nbits) for _ in range(200)] \
            == [fresh.flips(nbits) for _ in range(200)]
        assert old.transmissions == fresh.transmissions == sent + 200


    def test_pre_outcome_gate_direction_state_still_loads(self):
        """A link direction pickled when the gate cached wire words
        (a ``pending_words`` slot) restores; the words are dropped."""
        sim = _chain2(link_ber=2e-4, link_drop_rate=0.01, link_seed=3)
        sim.send(build_memrequest(1, 0x40, 1, CMD.RD64, link=0))
        sim.run(3)
        d = next(iter(sim._link_fault_states[0]._dirs.values()))
        _, slots = d.__reduce_ex__(2)[2]
        old_shape = legacy_pickle(d)
        assert b"pending_words" in old_shape
        old = migrate.loads(old_shape)
        assert type(old) is type(d)
        assert all(getattr(old, n) == v for n, v in slots.items())
        assert not hasattr(old, "pending_words")


#: ``(clock_value, stats()["link_faults"])`` recorded at the parent of
#: the outcome-only gate (PR 13), when every attempt still encoded the
#: packet and drew ``rng.random(64 * W)``.  CI's fault smoke pins the
#: first scenario's clock, transmissions and crc_failures too.
_GOLDEN = {
    # 2-cube chain, 2 host links, BER 2e-4, drop 0.002, seed 3, 200 requests
    "ci_smoke": (125, {
        "dev0.link0": {"packets": 203, "transmissions": 212,
                       "crc_failures": 20, "drops": 0, "irtry_events": 20,
                       "recovered": 8, "failed": 0, "recovery_cycles": 80,
                       "health": "FULL", "degradations": 0},
        "dev0.link1": {"packets": 217, "transmissions": 225,
                       "crc_failures": 17, "drops": 0, "irtry_events": 17,
                       "recovered": 8, "failed": 0, "recovery_cycles": 68,
                       "health": "FULL", "degradations": 0},
        "dev0.link2": {"packets": 405, "transmissions": 434,
                       "crc_failures": 33, "drops": 1, "irtry_events": 34,
                       "recovered": 29, "failed": 0, "recovery_cycles": 136,
                       "health": "FULL", "degradations": 0},
    }),
    # 4-cube chain, 1 host link, BER 1e-5, seed 1, 512 requests
    "chain4": (163, {
        "dev0.link0": {"packets": 1029, "transmissions": 1031,
                       "crc_failures": 7, "drops": 0, "irtry_events": 7,
                       "recovered": 2, "failed": 0, "recovery_cycles": 28,
                       "health": "FULL", "degradations": 0},
        "dev0.link1": {"packets": 1024, "transmissions": 1029,
                       "crc_failures": 5, "drops": 0, "irtry_events": 5,
                       "recovered": 5, "failed": 0, "recovery_cycles": 20,
                       "health": "FULL", "degradations": 0},
        "dev1.link1": {"packets": 1024, "transmissions": 1029,
                       "crc_failures": 5, "drops": 0, "irtry_events": 5,
                       "recovered": 5, "failed": 0, "recovery_cycles": 20,
                       "health": "FULL", "degradations": 0},
        "dev2.link1": {"packets": 1024, "transmissions": 1027,
                       "crc_failures": 3, "drops": 0, "irtry_events": 3,
                       "recovered": 3, "failed": 0, "recovery_cycles": 12,
                       "health": "FULL", "degradations": 0},
    }),
}

def _links(counts: str, health="FULL", degradations=0) -> dict:
    """One link's ``stats()["link_faults"]`` entry from its eight counts."""
    names = ("packets", "transmissions", "crc_failures", "drops",
             "irtry_events", "recovered", "failed", "recovery_cycles")
    return {**dict(zip(names, map(int, counts.split()))),
            "health": health, "degradations": degradations}


# Host-attached dev 0 sends to cubes 1, 2 and 3 in turn, so one
# crossbar queue holds remote packets for two egress links while replay
# windows open and close: the walk's held-link rule is exercised on a
# mixed queue.  Recorded at the parent of that rule.
_GOLDEN.update({
    # 4-cube ring, 2 host links, BER 2e-4, drop 0.002, seed 3, 400 requests
    "ring4_mixed": (200, {
        "dev0.link0": _links("401 416 46 0 46 15 0 184"),
        "dev0.link1": _links("454 469 38 1 39 14 0 156"),
        "dev0.link2": _links("544 574 39 1 40 26 0 160"),
        "dev1.link1": _links("266 294 28 0 28 23 0 112"),
        "dev2.link1": _links("0 0 0 0 0 0 0 0"),
        "dev3.link1": _links("271 286 20 0 20 15 0 80"),
    }),
    # 2x2 mesh, 1 host link, same link knobs and stream
    "mesh2x2_mixed": (231, {
        "dev0.link0": _links("842 885 84 1 85 37 0 340"),
        "dev0.link1": _links("534 582 47 1 48 40 0 192"),
        "dev0.link2": _links("266 287 21 0 21 19 0 84"),
        "dev1.link1": _links("266 294 28 0 28 22 0 112"),
        "dev2.link1": _links("0 0 0 0 0 0 0 0"),
    }),
})

_MIXED_KW = dict(num_devs=4, link_ber=2e-4, link_drop_rate=0.002,
                 link_seed=3)

#: name -> (topology builder, requests, target cubes, HMCSim keywords)
_GOLDEN_RUNS = {
    "ci_smoke": (lambda sim: build_chain(sim, host_links=2), 200, (1,),
                 dict(num_devs=2, link_ber=2e-4, link_drop_rate=0.002,
                      link_seed=3)),
    "chain4": (build_chain, 512, (3,),
               dict(num_devs=4, link_ber=1e-5, link_seed=1)),
    "ring4_mixed": (lambda sim: build_ring(sim, host_links=2), 400,
                    (1, 2, 3), _MIXED_KW),
    "mesh2x2_mixed": (lambda sim: build_mesh(sim, shape=(2, 2)), 400,
                      (1, 2, 3), _MIXED_KW),
}


def _drive_mixed(sim, stream, cubs, max_cycles=1_000_000) -> None:
    """``Host.run``'s loop — send until a stall, clock, drain — with the
    target cube rotating through *cubs* request by request."""
    host = Host(sim)
    stream = list(stream)
    sent = 0
    while (sent < len(stream) or host.outstanding) \
            and sim.clock_value < max_cycles:
        while sent < len(stream):
            cmd, addr, payload = stream[sent]
            cub = cubs[sent % len(cubs)]
            if host.send_request(cmd, addr, cub=cub, payload=payload) is None:
                break
            sent += 1
        sim.clock()
        host.drain_responses()


def _golden_run(name: str, scheduler: str) -> HMCSim:
    """The simulator after run *name* of :data:`_GOLDEN_RUNS` on the
    engine (``"active"``) or the tests' full walk (``"naive"``)."""
    build, requests, cubs, sim_kw = _GOLDEN_RUNS[name]
    sim = build(BUILD[scheduler](num_links=4, num_banks=8, capacity=2,
                                 watchdog_cycles=100_000, **sim_kw))
    cfg = RandomAccessConfig(num_requests=requests, seed=7)
    stream = random_access_requests(sim.config.device.capacity_bytes, cfg)
    if len(cubs) == 1:
        Host(sim).run(stream, cub=cubs[0])
    else:
        _drive_mixed(sim, stream, cubs)
    return sim


class TestInbandGolden:
    """The fault stream must not move: exact cycles and link counters."""

    @pytest.mark.parametrize("scheduler", ["naive", "active"])
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_cycles_and_link_counters_are_pinned(self, name, scheduler):
        sim = _golden_run(name, scheduler)
        assert (sim.clock_value, sim.stats()["link_faults"]) == _GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_engine_and_full_walk_agree_on_every_stat(self, name):
        assert _golden_run(name, "active").stats() == _golden_run(name, "naive").stats()


class TestFlowProperties:
    """Satellite property tests: token accounting can never over-return,
    and retry-pointer acks never free more than was stamped."""

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 12)),
                    max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_tokens_conserve_and_reject_over_return(self, ops):
        tok = LinkTokens(capacity=32)
        in_flight = 0
        for is_send, flits in ops:
            if is_send:
                if tok.can_send(flits):
                    tok.consume(flits)
                    in_flight += flits
                else:
                    with pytest.raises(FlowControlError):
                        tok.consume(flits)
            else:
                if flits <= in_flight:
                    tok.restore(flits)
                    in_flight -= flits
                else:
                    # A TRET returning more than is outstanding is a
                    # protocol violation: rejected, state unchanged.
                    with pytest.raises(FlowControlError):
                        tok.restore(flits)
            assert tok.available + in_flight == tok.capacity
            assert 0 <= tok.available <= tok.capacity

    @given(st.integers(1, 64), st.integers(0, 80))
    @settings(max_examples=100, deadline=None)
    def test_retry_pointers_never_free_excess(self, slots, n_stamps):
        from repro.packets.packet import Packet

        rps = RetryPointerState(buffer_slots=slots)
        stamped = []
        for _ in range(n_stamps):
            pkt = Packet(cmd=CMD.RD64, cub=0, addr=0, tag=1)
            if rps.outstanding >= slots:
                with pytest.raises(FlowControlError):
                    rps.stamp(pkt)
                break
            stamped.append(rps.stamp(pkt))
        total = rps.outstanding
        freed = rps.acknowledge(stamped[len(stamped) // 2]) if stamped else 0
        assert freed + rps.outstanding == total
        # Acking an unknown pointer drains at most what was outstanding.
        freed2 = rps.acknowledge(10_000)
        assert freed2 == total - freed
        assert rps.outstanding == 0

    def test_scheduled_injector_importable_and_deterministic(self):
        inj = ScheduledInjector({1, 3})
        words = [1, 2, 3]
        results = [inj.corrupt(words) for _ in range(4)]
        assert results[0] == words and results[2] == words
        assert results[1] != words and results[3] != words
        assert inj.corrupted_transmissions == 2
        assert FaultKind.CORRUPT.value == "corrupt"


class _Events:
    """A tracer stand-in that keeps what the gate emits."""

    def __init__(self):
        self.events = []

    def event(self, *args, **kwargs):
        self.events.append((args, kwargs))


def _gate_state(state: InbandLinkState) -> tuple:
    """Everything a ``try_transmit`` could move: streams, counters,
    both directions and their retry pointers, health."""
    model, inj = state.model, state.model.injector
    dirs = {
        sender: (d.busy_until, d.failures, d.pending_serial, d.pending_frp,
                 d.pending_attempts, tuple(d.pointers._unacked),
                 d.pointers._next_frp)
        for sender, d in state._dirs.items()
    }
    rng = getattr(inj, "_rng", None)
    return (
        getattr(inj, "_pos", None), list(getattr(inj, "_pending", ())),
        rng.bit_generator.state if rng is not None else None,
        model._rng.bit_generator.state,
        model.transmissions, model.drops, model.corruptions,
        inj.transmissions, inj.corrupted_transmissions,
        state.stats.as_dict(), dirs, state.health, state.degradations,
    )


class TestGateProperties:
    """What the crossbar's held-link rule and the one host drain rest on."""

    @given(
        ber=st.sampled_from([0.0, 1e-4, 3e-3, 2e-2]),
        drop=st.sampled_from([0.0, 0.1, 0.5]),
        scheduled=st.booleans(),
        seed=st.integers(0, 2**16),
        retry_delay=st.integers(0, 5),
        max_retries=st.integers(0, 6),
        ops=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 3), st.booleans(),
                      st.sampled_from([CMD.RD16, CMD.WR64, CMD.WR128])),
            min_size=1, max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_busy_direction_is_side_effect_free(
            self, ber, drop, scheduled, seed, retry_delay, max_retries, ops):
        injector = ScheduledInjector({1, 2, 5}) if scheduled else None
        state = InbandLinkState(
            [(0, 0), (1, 1)],
            LinkFaultModel(ber=ber, drop_rate=drop, seed=seed,
                           injector=injector),
            max_retries=max_retries, retry_delay=retry_delay,
        )
        senders = ((0, 0), (1, 1))
        heads = [None, None]
        tracer = _Events()
        cycle = 0
        for who, wait, new, cmd in ops:
            cycle += wait
            sender = senders[who]
            if new or heads[who] is None:
                heads[who] = build_memrequest(0, 0x40, 1, cmd, link=0)
            pkt = heads[who]
            d = state._dirs.get(sender)
            if (state.health is not LinkHealth.FAILED and d is not None
                    and cycle < d.busy_until):
                before, emitted = _gate_state(state), len(tracer.events)
                assert state.try_transmit(sender, pkt, cycle, tracer) == "stall"
                assert _gate_state(state) == before
                assert len(tracer.events) == emitted
                continue
            status = state.try_transmit(sender, pkt, cycle, tracer)
            if status == "stall":
                # A stall holds the direction past this cycle.
                assert state._dirs[sender].busy_until > cycle

    @given(
        ring=st.booleans(),
        ber=st.sampled_from([2e-4, 3e-3]),
        drop=st.sampled_from([0.0, 0.02, 0.3]),
        max_retries=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        requests=st.integers(10, 150),
    )
    @settings(max_examples=25, deadline=None)
    def test_a_held_link_offered_again_changes_nothing(
            self, ring, ber, drop, max_retries, seed, requests):
        """The crossbar walk (C) against the reference walk
        (tests/reference/crossbar.py) with its held rule switched off, so
        that it re-offers a held link to every later packet (no cube is
        ever held): the same cycles, counters, link and register state,
        responses and trace — with queues mixing egresses, and links
        degrading and dying mid-walk."""
        offer = ReferenceCrossbarUnit._route_remote

        def run(offer_again: bool):
            sim = HMCSim(SimConfig(
                device=DEVICE, num_devs=4, link_ber=ber, link_drop_rate=drop,
                link_max_retries=max_retries, link_seed=seed,
                watchdog_cycles=500))
            if ring:
                build_ring(sim, host_links=2)
            else:
                build_mesh(sim, shape=(2, 2))
            sink = sim.trace_to_memory(EventType.STANDARD)
            cfg = RandomAccessConfig(num_requests=requests, seed=seed)
            stream = random_access_requests(DEVICE.capacity_bytes, cfg)
            ended = None
            with pytest.MonkeyPatch.context() as mp:
                if offer_again:
                    adopt(sim)
                    mp.setattr(ReferenceCrossbarUnit, "_route_remote",
                               lambda self, *a: offer(self, *a[:-1], set()))
                try:
                    _drive_mixed(sim, stream, (1, 2, 3), max_cycles=3000)
                except (LinkDeadError, WatchdogError) as err:
                    ended = type(err)
            events = [(e.type, e.cycle, e.dev, e.link, e.vault,
                       e.serial, repr(e.extra))
                      for e in sink.events]
            dirs = [(s.health, {k: (d.busy_until, d.failures, d.pending_attempts,
                                    tuple(d.pointers._unacked))
                                for k, d in s._dirs.items()})
                    for s in sim._link_fault_states]
            return (ended, sim.clock_value, sim.stats(),
                    sim.engine.stage_counts, dirs,
                    [d.regs.snapshot() for d in sim.devices], events)

        assert run(offer_again=False) == run(offer_again=True)

    @given(
        host_links=st.integers(2, 3),
        ber=st.sampled_from([1e-4, 2e-3]),
        drop=st.sampled_from([0.0, 0.05, 0.3]),
        max_retries=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        ops=st.lists(st.tuples(st.integers(0, 6), st.booleans(),
                               st.integers(1, 3)),
                     min_size=1, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_recv_all_is_recv_until_no_data(
            self, host_links, ber, drop, max_retries, seed, ops):
        """``recv_all()`` delivers what ``recv()`` until ``NoDataError``
        does: the same responses in the same order, the same rotor and
        the same gate draws, on twin simulations."""
        sims = [
            build_chain(HMCSim(SimConfig(
                device=DEVICE, num_devs=2, link_ber=ber, link_drop_rate=drop,
                link_max_retries=max_retries, link_seed=seed)),
                host_links=host_links)
            for _ in range(2)
        ]

        def drain_by_recv(sim):
            out = []
            while True:
                try:
                    out.append(sim.recv())
                except NoDataError:
                    return out

        def view(sim, rsps):
            links = [(s.stats_dict(), s.model.transmissions,
                      s.model.injector._pos) for s in sim._link_fault_states]
            return ([(r.tag, r.delivered_from, r.completed_at, r.payload)
                     for r in rsps], sim._recv_rotor, links,
                    sim.link_failures, sim.packets_received)

        tag = 0
        for sends, drain, clocks in ops:
            views = []
            for sim, drain_all in zip(sims, (HMCSim.recv_all, drain_by_recv)):
                for i in range(sends):
                    link = (tag + i) % host_links
                    pkt = build_memrequest(1, 0x40 * (tag + i),
                                           (tag + i) % 512, CMD.RD64,
                                           link=link)
                    try:
                        sim.send(pkt, dev=0, link=link)
                    except (StallError, LinkDeadError):
                        pass
                sim.clock(clocks)
                views.append(view(sim, drain_all(sim) if drain else []))
            tag += sends
            assert views[0] == views[1]


class TestRegisterMirror:
    """The stage-6 LRS mirror publishes only a change, and nothing else
    may tell: register values equal, every cycle, to a mirror that
    writes every tick."""

    @given(
        seed=st.integers(0, 2**16),
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5),
                      st.integers(1, 3), st.integers(0, 12)),
            min_size=1, max_size=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_lrs_registers_equal_a_mirror_that_always_writes(self, seed, ops):
        sims = [
            build_chain(HMCSim(SimConfig(
                device=DEVICE, num_devs=3, link_ber=2e-3, link_drop_rate=0.05,
                link_max_retries=3, link_seed=seed)), host_links=1)
            for _ in range(2)
        ]
        endpoints = [ep for s in sims[0]._link_fault_states
                     for ep in s.endpoints]
        tag = 0
        for sends, strobe, clocks, degrade in ops:
            values = []
            for i, sim in enumerate(sims):
                for k in range(sends):
                    pkt = build_memrequest(2, 0x40 * (tag + k),
                                           (tag + k) % 512, CMD.RD64)
                    try:
                        sim.send(pkt, dev=0, link=0)
                    except (StallError, LinkDeadError):
                        pass
                if strobe < len(endpoints):
                    # A host write to an LRS register: write-to-clear.
                    dev, link = endpoints[strobe]
                    sim.devices[dev].regs.write(f"LRS{link}", strobe)
                if degrade < len(sim._link_fault_states):
                    sim._link_fault_states[degrade].force_degrade(
                        sim.clock_value, sim.tracer)
                if i:
                    for state in sim._link_fault_states:
                        state._published = None  # the mirror must write
                sim.clock(clocks)
                sim.recv_all()
                values.append([d.regs.snapshot() for d in sim.devices])
            tag += sends
            assert values[0] == values[1]

    def test_the_publish_memo_is_not_checkpointed(self):
        sim = _chain2(link_ber=2e-4, link_drop_rate=0.01, link_seed=3)
        for tag in range(1, 5):
            sim.send(build_memrequest(1, 0x40 * tag, tag, CMD.RD64, link=0))
        sim.run(20)
        state = sim._link_fault_states[0]
        assert state._published is not None
        assert b"_published" not in pickle.dumps(state)
        fresh = InbandLinkState(state.endpoints, LinkFaultModel())
        assert state.__getstate__().keys() == vars(fresh).keys()
        twin = checkpoint.restore(checkpoint.snapshot(sim))
        assert twin._link_fault_states[0]._published is None


class TestStatSurfaces:
    def test_statdump_includes_link_report(self):
        from repro.analysis.statdump import dump_stats

        sim = _chain2(link_ber=1e-4, link_seed=2, watchdog_cycles=1000)
        for tag in range(1, 5):
            sim.send(build_memrequest(1, 0x40 * tag, tag, CMD.RD64, link=0))
        sim.run(200)
        tree = dump_stats(sim)
        assert tree["config"]["link_ber"] == 1e-4
        assert tree["config"]["watchdog_cycles"] == 1000
        assert "link_report" in tree
        links = tree["link_report"]["links"]
        assert any(l["transmissions"] > 0 for l in links.values())
        # Per-link health rides the device link stats when state exists.
        assert tree["devices"][0]["links"][2]["health"] == "FULL"
        assert "health" not in tree["devices"][0]["links"][3]

    def test_statdump_baseline_unchanged_without_faults(self):
        from repro.analysis.statdump import dump_stats

        sim = _chain2()
        sim.run(5)
        tree = dump_stats(sim)
        assert "link_report" not in tree
        assert "link_ber" not in tree["config"]
        assert "link_faults" not in tree["summary"]

    def test_cli_inband_faults_smoke(self, capsys):
        from repro.cli import main

        rc = main(["faults", "--link-ber", "5e-5", "--link-drop-rate",
                   "0.001", "--link-seed", "4", "--requests", "48",
                   "--watchdog-cycles", "20000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "in-band link fault summary" in out
        assert "health=FULL" in out

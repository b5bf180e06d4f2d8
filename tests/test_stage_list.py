"""The cycle as a list, and the reference it is compared against.

``ClockEngine.tick`` runs a list of steps built once
(docs/clocking.md "The cycle as a list").  Here: the list by name for
every optional subsystem, the four inputs that rebuild it mid-run, the
profiler staying out of checkpoints, and the two properties that make
``tests/reference/full_walk.py`` worth comparing against — it really
visits everything, and hand mutants of the engine's bookkeeping fail
engine ≡ reference with no golden file involved.
"""

from __future__ import annotations

import inspect
import io
import textwrap
from collections import deque

import pytest

import repro.core.clock as clock_mod
import repro.core.queueing as queueing_mod
from repro.analysis.profiling import attach, detach
from repro.core.checkpoint import restore, snapshot
from repro.core.clock import ClockEngine
from repro.core.config import DeviceConfig, SimConfig
from repro.core.queueing import PacketQueue
from repro.core.simulator import HMCSim
from repro.faults import InbandLinkState, LinkFaultModel
from repro.packets.commands import CMD
from repro.packets.packet import build_memrequest
from repro.topology.builder import build_chain
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from repro.trace.tracer import MemorySink
from tests.reference.full_walk import BUILD, reference_sim
from tests.test_scheduler_equivalence import (
    _SMALL,
    _assert_identical,
    _fingerprint,
    drive_sparse,
)

STAGES = ["_stage1", "_stage2", "_stage34", "_stage5", "_stage6"]


def _names(sim: HMCSim) -> list:
    return [step.__name__ for step in sim.engine._steps]


def _sim(build=HMCSim, num_devs=1, device=_SMALL, **engine_kw) -> HMCSim:
    sim = build(SimConfig(device=device, num_devs=num_devs, **engine_kw))
    if num_devs > 1:
        return build_chain(sim, host_links=2)
    for link in range(device.num_links):
        sim.attach_host(0, link)
    return sim


# -- the reference really walks ----------------------------------------------


def test_reference_visits_every_vault_where_the_engine_visits_none():
    # The C vault stage sizes a vault's request queue first thing: a
    # deque that records that shows each vault the walk visits.
    calls = []

    class Recorded(deque):
        __slots__ = ("vault_id",)

        def __len__(self):
            calls.append(self.vault_id)
            return super().__len__()

    engine, reference = _sim(), _sim(reference_sim)
    for sim in (engine, reference):
        for vault in sim.devices[0].vaults:
            vault.rqst._q = Recorded()
            vault.rqst._q.vault_id = vault.vault_id
    engine.engine.tick()
    assert calls == []
    reference.engine.tick()
    assert calls == list(range(_SMALL.num_vaults))
    # ... and hands the real, still-empty sets back afterwards.
    assert reference.is_quiescent and reference.devices[0].act_vault_rqst == set()


# -- hand mutants of what the engine adds on top of the stage code ------------


def _backed_up_responses(scheduler: str) -> dict:
    """Eight reads through a two-slot crossbar and a host that drains
    late: for a while the only non-empty queues are vault response
    queues waiting for a response slot."""
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2, xbar_depth=2)
    sim = _sim(BUILD[scheduler], device=device)
    buf = io.BytesIO()
    sink = BinarySink(buf, num_vaults=device.num_vaults)
    sim.tracer.mask = EventType.STANDARD
    sim.tracer.add_sink(sink)
    for tag in range(8):
        addr = sim.devices[0].amap.encode(vault=0, bank=tag)
        pkt = build_memrequest(0, addr, tag, CMD.RD16, link=0)
        for _ in range(20):  # bounded: a mutant must fail, not hang
            if sim.try_send(pkt):
                break
            sim.clock(1)
    sim.clock(30)
    received = []
    for _ in range(6):
        received.append([p.tag for p in sim.recv_all()])
        sim.clock(10)
    out = _fingerprint(sim, sink, buf)
    out["received"] = received
    return out


def _rejected_at_a_chain_hop(scheduler: str) -> dict:
    """A read for the far cube of a three-cube chain whose second chain
    link has failed: the middle cube answers it with an error response
    (``CrossbarUnit._reject``), which enters the response queue of the
    chain link it came in on and must hop home from there."""
    sim = BUILD[scheduler](SimConfig(device=_SMALL, num_devs=3))
    build_chain(sim, host_links=1)
    (link,) = [l for (d, l), peer in sim._link_peers.items() if d == 1 and peer[0] == 2]
    state = sim.attach_link_fault(1, link, LinkFaultModel())
    buf = io.BytesIO()
    sink = BinarySink(buf, num_vaults=_SMALL.num_vaults)
    sim.tracer.mask = EventType.STANDARD
    sim.tracer.add_sink(sink)
    assert sim.try_send(build_memrequest(2, 0x40, 9, CMD.RD16, link=0))
    sim.clock(2)    # the read waits at the middle cube
    state.fail()
    sim._note_link_failure(state)
    sim.clock(40)
    out = _fingerprint(sim, sink, buf)
    out["received"] = [(p.tag, p.errstat) for p in sim.recv_all()]
    return out


_SPARSE = dict(penalty=3, queue_timeout=0, refresh_interval=0,
               watchdog_cycles=0, chain=True,
               sends=[(2, 0, "offquad", 1), (1, 1, "remote", 4), (9, 0, "local", 7)])


def _engine_equals_reference() -> None:
    _assert_identical(drive_sparse("naive", _SPARSE), drive_sparse("active", _SPARSE))
    naive, active = _backed_up_responses("naive"), _backed_up_responses("active")
    assert naive["received"] == active["received"]
    assert sum(map(len, active["received"])) == 8
    _assert_identical(naive, active)
    naive, active = _rejected_at_a_chain_hop("naive"), _rejected_at_a_chain_hop("active")
    assert naive["received"] == active["received"] and len(active["received"]) == 1
    _assert_identical(naive, active)


_MUTANTS = {
    "push no longer registers the queue in its active set":
        (queueing_mod, PacketQueue, "push",
         "self._act_set.add(self._act_key)", "pass"),
    "wake_cycle ignores waiting vault responses":
        (clock_mod, ClockEngine, "wake_cycle",
         "dev.act_vault_rqst or dev.act_vault_rsp or", "dev.act_vault_rqst or"),
}


def test_engine_equals_reference_unmutated():
    _engine_equals_reference()


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_hand_mutant_is_killed_by_the_reference(name, monkeypatch):
    module, cls, method, old, new = _MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    assert source.count(old) == 1, f"mutation site {old!r} moved"
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), scope)
    monkeypatch.setattr(cls, method, scope[method])
    with pytest.raises(AssertionError):
        _engine_equals_reference()


# -- the list by name ----------------------------------------------------------


def _built(**kw) -> list:
    sim = _sim(**kw)
    sim.clock(1)
    return _names(sim)


def test_default_cycle_is_the_papers_stages_and_nothing_else():
    sim = _sim()
    sim.clock(1)
    assert _names(sim) == STAGES
    # Bare bound methods: no marker, no timer, no test for either.
    assert all(inspect.ismethod(s) and s.__self__ is sim.engine
               for s in sim.engine._steps)
    assert _built(num_devs=2) == STAGES


@pytest.mark.parametrize("kw, step, before", [
    (dict(watchdog_cycles=50), "_wd_check", "_stage1"),
    (dict(refresh_interval=40), "_refresh", "_stage34"),
    (dict(device=DeviceConfig(num_links=4, num_banks=8, capacity=2,
                              ecc_enabled=True)), "_ras_step", "_stage5"),
    (dict(num_devs=2, link_ber=1e-5), "_mirror_link_faults", "_stage6"),
])
def test_each_optional_subsystem_adds_exactly_its_step(kw, step, before):
    names = _built(**kw)
    at = names.index(step)
    assert names[at + 1] == before
    assert names[:at] + names[at + 1:] == STAGES
    if step == "_wd_check":
        assert at == 0  # first, ahead of every stage


def test_subcycle_markers_split_the_vault_walk_and_wrap_each_stage():
    sim = _sim(refresh_interval=40, watchdog_cycles=50)
    sink = sim.tracer.add_sink(MemorySink())
    sim.tracer.mask = EventType.SUBCYCLE
    sim.clock(2)
    assert _names(sim) == ["_wd_check", "_stage1", "_stage2", "_refresh",
                           "_stage3", "_stage4", "_stage5", "_stage6"]
    bare = {s.__name__ for s in sim.engine._steps if inspect.ismethod(s)}
    assert bare == {"_wd_check", "_refresh"}  # neither has a marker
    assert [(e.cycle, e.stage) for e in sink.events] == [
        (cycle, stage) for cycle in (0, 1) for stage in range(1, 7)
    ]


# -- what rebuilds the list mid-run -------------------------------------------


def _traffic(sim: HMCSim, rounds: int, switch=None, at=()):
    """A fixed send / clock / receive schedule on a two-cube chain;
    ``switch(sim, round)`` runs at the start of each round in *at*."""
    for rnd in range(rounds):
        if rnd in at:
            switch(sim, rnd)
        cub, link = rnd % 2, rnd % 2
        sim.try_send(build_memrequest(cub, 0x40 * (rnd + 1), rnd, CMD.RD64, link=link))
        sim.clock(3)
        sim.recv_all()


def _traced(mask, switch=None, at=(), sink_from_start=True, rounds=24):
    sim = _sim(num_devs=2)
    sim.tracer.mask = mask
    sink = MemorySink()
    if sink_from_start:
        sim.tracer.add_sink(sink)
    _traffic(sim, rounds, switch, at)
    return sim, sink.events if sink_from_start else None


def test_mask_switch_rebuilds_the_list_for_the_next_tick():
    seen = {}

    def switch(sim, rnd):
        seen[rnd] = _names(sim)
        sim.tracer.mask = EventType.ALL if rnd == 8 else EventType.STANDARD

    sim, events = _traced(EventType.STANDARD, switch, at=(8, 16))
    assert "_stage34" in seen[8] and "_stage3" in seen[16]
    assert _names(sim) == STAGES
    _, marked = _traced(EventType.ALL)
    _, unmarked = _traced(EventType.STANDARD)
    lo, hi = 8 * 3, 16 * 3  # three cycles a round
    assert events == (
        [e for e in unmarked if e.cycle < lo]
        + [e for e in marked if lo <= e.cycle < hi]
        + [e for e in unmarked if e.cycle >= hi]
    )
    assert any(e.type is EventType.SUBCYCLE for e in events)


def test_first_sink_on_a_masked_tracer_rebuilds_the_list():
    late = MemorySink()
    sim, _ = _traced(EventType.ALL, lambda sim, _: sim.tracer.add_sink(late),
                     at=(8,), sink_from_start=False)
    assert "_stage3" in _names(sim)
    _, marked = _traced(EventType.ALL)
    assert late.events == [e for e in marked if e.cycle >= 8 * 3]


def _bytes_traced(profile_rounds=()):
    sim = _sim(num_devs=2, refresh_interval=16)
    buf = io.BytesIO()
    sink = BinarySink(buf, num_vaults=_SMALL.num_vaults)
    sim.tracer.mask = EventType.STANDARD
    sim.tracer.add_sink(sink)
    profs = []

    def switch(sim, rnd):
        if rnd == profile_rounds[0]:
            profs.append(attach(sim))
        else:
            assert detach(sim) is profs[0]

    _traffic(sim, 24, switch, profile_rounds)
    return sim, _fingerprint(sim, sink, buf), profs


def test_attach_and_detach_rebuild_the_list_and_change_nothing_simulated():
    sim, profiled, (prof,) = _bytes_traced(profile_rounds=(6, 18))
    _, plain, _ = _bytes_traced()
    _assert_identical(plain, profiled)
    assert 0 < prof.ticks <= 12 * 3  # the twelve profiled rounds, ticks or skips
    assert prof.ticks + prof.ff_cycles == 12 * 3
    for bucket in (1, 2, 4, 5, 6):
        assert prof.stage_ns[bucket] > 0
    assert prof.refresh_ns > 0 and prof.stage_ns[3] == 0 == prof.ras_ns
    # After detach the cycle is the bare bound methods again.
    assert sim.engine.profiler is None
    assert all(inspect.ismethod(s) and s.__self__ is sim.engine
               for s in sim.engine._steps)


def test_attach_link_fault_mid_run_adds_the_lrs_mirror():
    sim = _sim(num_devs=2)
    _traffic(sim, 4)
    assert "_mirror_link_faults" not in _names(sim)
    state = sim.attach_link_fault(0, 2, LinkFaultModel(seed=5))
    state.fail()
    assert not state.registers_synced(sim.devices)
    sim.clock(1)
    assert _names(sim)[-2:] == ["_mirror_link_faults", "_stage6"]
    assert list(state.endpoints) == [(0, 2), (1, 0)]
    for dev, link in state.endpoints:
        status = InbandLinkState.unpack_status(sim.devices[dev].regs.peek(f"LRS{link}"))
        assert status["health"] == "FAILED"


# -- the profiler is host-side state, like a trace sink ------------------------


class TestProfilerStaysOutOfCheckpoints:
    def _profiled_run(self):
        sim = _sim(num_devs=2)
        prof = attach(sim)
        _traffic(sim, 8)
        return sim, prof

    def test_two_profiled_runs_snapshot_to_the_same_bytes(self):
        (a, _), (b, _) = self._profiled_run(), self._profiled_run()
        blob = snapshot(a)
        assert blob == snapshot(b)
        assert b"EngineProfiler" not in blob

    def test_restored_engine_has_no_profiler_and_takes_a_new_one(self):
        sim, prof = self._profiled_run()
        restored = restore(snapshot(sim))
        assert sim.engine.profiler is prof  # snapshotting detached nothing
        assert restored.engine.profiler is None
        again = attach(restored)
        _traffic(restored, 4)
        assert again.ticks > 0 and again.total_stage_ns() > 0
        _traffic(sim, 4)
        assert restored.clock_value == sim.clock_value
        assert restored.engine.stage_counts == sim.engine.stage_counts

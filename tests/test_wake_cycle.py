"""``ClockEngine.wake_cycle``, ``HMCSim.clock_until_response`` and the
cycle-count check at the ``HMCSim`` boundary, without a golden file.

``wake_cycle`` is a lower bound by contract — early costs a tick, late
is a wrong simulation — so it is tested from both sides: every cycle it
lets the engine skip is ticked for real on a copy and must have changed
nothing (:func:`check_held_windows`), and on one packet it must be exact,
or the dead ticks it exists to remove are back.  Hand mutants of the
bound, applied to its source, must fail those checks.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest
from hypothesis import given, settings

import repro.core.clock as clock_mod
from repro.core.checkpoint import restore, snapshot
from repro.core.clock import NEVER, ClockEngine
from repro.core.config import SimConfig
from repro.core.errors import HMCError, WatchdogError
from repro.core.simulator import HMCSim
from repro.packets.commands import CMD
from repro.packets.packet import build_memrequest
from repro.topology.builder import build_chain
from tests.reference.full_walk import BUILD
from tests.test_scheduler_equivalence import (
    _SMALL,
    _assert_identical,
    drive_sparse,
    sparse_schedules,
)

SCHEDULERS = ("active", "naive")


def _sim(scheduler="active", num_devs=1, **engine_kw) -> HMCSim:
    sim = BUILD[scheduler](
        SimConfig(device=_SMALL, num_devs=num_devs, **engine_kw))
    if num_devs > 1:
        return build_chain(sim, host_links=1)
    for link in range(_SMALL.num_links):
        sim.attach_host(0, link)
    return sim


def _read(sim: HMCSim, link: int, quad: int, tag: int = 1, cub: int = 0):
    """An RD16 on *link* to the first vault of *quad*."""
    addr = sim.devices[0].amap.encode(vault=quad * 4, bank=0)
    return build_memrequest(cub, addr, tag, CMD.RD16, link=link)


# -- the bound from below: a skipped cycle changed nothing -------------------


def _tripped(step) -> bool:
    try:
        step()
    except WatchdogError:
        return True
    return False


def _forget_decodes(sim: HMCSim) -> bytes:
    """Snapshot bytes with the crossbar's vault-decode memo cleared: a
    real tick fills ``Packet.dec_vault`` on a held packet, a skipped one
    has not yet — the one difference that is not simulated state."""
    for dev in sim.devices:
        for xbar in dev.xbars:
            for pkt in xbar.rqst:
                pkt.dec_vault = -1
    return snapshot(sim)


def check_held_windows(sim: HMCSim, cycles: int) -> None:
    """``sim.clock(cycles)``, one cycle at a time; whenever packets are
    queued and ``wake_cycle`` lies ahead, two copies cross the window —
    one by real ticks, one by ``clock`` — and must end byte-identical."""
    for _ in range(cycles):
        now = sim.clock_value
        wake = sim.engine.wake_cycle()
        if now < wake < NEVER:
            blob = snapshot(sim)
            ticked, skipped = restore(blob), restore(blob)

            def tick_through():
                for _ in range(wake - now):
                    ticked.engine.tick()

            assert _tripped(tick_through) == _tripped(
                lambda: skipped.clock(wake - now)
            )
            assert ticked.clock_value == skipped.clock_value
            assert _forget_decodes(ticked) == _forget_decodes(skipped)
        sim.clock(1)


def check_schedule(sched: dict) -> None:
    """Both halves of the contract on one sparse schedule."""
    naive = drive_sparse("naive", sched)
    active = drive_sparse("active", sched, clock=check_held_windows)
    _assert_identical(naive, active)


@settings(max_examples=40, deadline=None)
@given(sched=sparse_schedules)
def test_skipped_cycles_change_nothing(sched):
    check_schedule(sched)


# -- the bound from above: exact on one packet -------------------------------


def check_exact_on_one_packet() -> None:
    for penalty in (0, 1, 3):
        sim = _sim(nonlocal_penalty_cycles=penalty)
        sim.clock(5)
        assert sim.engine.wake_cycle() == NEVER
        sim.send(_read(sim, link=1, quad=1))
        assert sim.engine.wake_cycle() == 6  # the registered input
        sim.send(_read(sim, link=2, quad=0, tag=2))
        assert sim.engine.wake_cycle() == 6  # the soonest of the two
        sim.clock_until_response(100)
        sim.recv_all()
        if sim.in_flight:  # the off-quad read is still behind its input
            assert sim.engine.wake_cycle() == 6 + penalty
        sim.clock(50)
        sim.recv_all()
        sim.send(_read(sim, link=2, quad=0, tag=3))
        assert sim.engine.wake_cycle() == sim.clock_value + 1 + penalty


def test_wake_is_exact_on_one_packet():
    check_exact_on_one_packet()


def test_wake_is_now_without_a_transit_timer():
    sim = _sim(queue_timeout=8)  # zombie expiry reads the queue every cycle
    sim.clock(5)
    sim.send(_read(sim, link=0, quad=2))
    assert sim.engine.wake_cycle() == 5


def test_wake_counts_one_cycle_for_remote_mode_and_flow():
    sim = _sim(num_devs=2, nonlocal_penalty_cycles=3)
    for tag, (cub, cmd, addr) in enumerate(
        [(1, CMD.RD16, 0x40), (0, CMD.MD_RD, 0x2B0000), (0, CMD.TRET, 0)]
    ):
        sim.send(build_memrequest(cub, addr, tag, cmd, link=0))
        assert sim.engine.wake_cycle() == sim.clock_value + 1
        sim.clock(30)
        sim.recv_all()
        assert sim.engine.wake_cycle() == NEVER


# -- hand mutants of the bound ------------------------------------------------

#: Schedules on which a late bound shows: an off-quad and a local read
#: under a 3-cycle penalty; the same with zombie expiry inside the wait.
_PINNED = [
    dict(penalty=3, queue_timeout=timeout, refresh_interval=0,
         watchdog_cycles=0, chain=False,
         sends=[(2, 0, "offquad", 1), (1, 1, "local", 4), (9, 2, "offquad", 7)])
    for timeout in (0, 2)
]

_MUTANTS = {
    # Early, so still correct — and every off-quad hop ticks dead again.
    "penalty dropped from the off-quad case":
        ("ready += penalty", "pass"),
    "penalty charged to the local quad too":
        ("if vault >> 2 != quad:", "if True:"),
    "queue_timeout guard removed":
        ("if cfg.queue_timeout > 0:", "if False:"),
}


def _mutant(old: str, new: str):
    source = textwrap.dedent(inspect.getsource(ClockEngine.wake_cycle))
    assert source.count(old) == 1, f"mutation site {old!r} moved"
    scope = dict(vars(clock_mod))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), scope)
    return scope["wake_cycle"]


def _suite() -> None:
    check_exact_on_one_packet()
    for sched in _PINNED:
        check_schedule(sched)


def test_pinned_schedules_pass_unmutated():
    _suite()


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_hand_mutant_is_killed(name, monkeypatch):
    monkeypatch.setattr(ClockEngine, "wake_cycle", _mutant(*_MUTANTS[name]))
    with pytest.raises(AssertionError):
        _suite()


# -- clock_until_response ----------------------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestClockUntilResponse:
    def test_stops_where_a_polling_loop_first_sees_a_response(self, scheduler):
        polled, waited = _sim(scheduler), _sim(scheduler)
        for sim in (polled, waited):
            sim.clock(3)
            sim.send(_read(sim, link=0, quad=2))
        got = []
        while not got:
            polled.clock()
            got = polled.recv_all()
        assert waited.clock_until_response(100) == polled.clock_value - 3
        assert waited.clock_value == polled.clock_value
        assert [p.tag for p in waited.recv_all()] == [p.tag for p in got]
        assert waited.engine.stage_counts == polled.engine.stage_counts

    def test_advances_a_cycle_with_a_response_already_queued(self, scheduler):
        sim = _sim(scheduler)
        sim.send(_read(sim, link=0, quad=0))
        sim.clock_until_response(100)
        at = sim.clock_value
        assert sim.clock_until_response(100) == 1
        assert sim.clock_value == at + 1
        assert len(sim.recv_all()) == 1

    def test_idle_sim_runs_to_the_budget(self, scheduler):
        sim = _sim(scheduler)
        assert sim.clock_until_response(5000) == 5000
        assert sim.clock_value == sim.engine.stage_counts[6] == 5000
        assert sim.clock_until_response(0) == 0

    def test_freed_sim_raises(self, scheduler):
        sim = _sim(scheduler)
        sim.free()
        with pytest.raises(HMCError):
            sim.clock_until_response(10)


def test_idle_wait_is_one_fast_forward(monkeypatch):
    sim = _sim()
    calls = []
    forward = ClockEngine._fast_forward
    monkeypatch.setattr(ClockEngine, "_fast_forward",
                        lambda self, n: (calls.append(n), forward(self, n)))
    monkeypatch.setattr(ClockEngine, "tick", lambda self: pytest.fail("ticked"))
    assert sim.clock_until_response(5000) == 5000
    assert calls == [5000]


def test_held_back_response_is_repolled_not_spun_on():
    """A host link in an in-band replay window holds its response: the
    wait must return every cycle so the caller's ``recv`` can retry."""
    sim = _sim(link_ber=1e-3, link_seed=3)
    polled = _sim(link_ber=1e-3, link_seed=3)
    for tag in range(1, 40):
        for s in (sim, polled):
            while not s.try_send(_read(s, link=0, quad=0, tag=tag)):
                s.clock()
        got = []
        while not got:
            polled.clock()
            got = polled.recv_all()
        got = []
        while not got:
            assert sim.clock_until_response(10_000) >= 1
            got = sim.recv_all()
        assert sim.clock_value == polled.clock_value
    held = sim.stats()["link_faults"]["dev0.link0"]
    assert held["recovery_cycles"] > 0 and held == (
        polled.stats()["link_faults"]["dev0.link0"]
    )


# -- cycle counts are validated at the HMCSim boundary -----------------------


def _observable(sim: HMCSim):
    return (sim.clock_value, sim.devices[0].regs.internal_read("STAT"),
            list(sim.engine.stage_counts))


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("bad", [-5, 1.5, "3"])
def test_bad_cycle_counts_are_rejected_before_any_state_moves(scheduler, bad):
    sim = _sim(scheduler)
    sim.send(_read(sim, link=0, quad=1))
    sim.clock(2)
    before = _observable(sim)
    messages = set()
    for call in (sim.clock, sim.run, sim.clock_until_response,
                 lambda n: sim.clock_until(lambda s: False, max_cycles=n)):
        with pytest.raises(HMCError) as err:
            call(bad)
        messages.add(str(err.value))
        assert _observable(sim) == before
    assert messages == {f"cycle count must be a non-negative int, got {bad!r}"}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_zero_cycles_is_still_a_no_op(scheduler):
    sim = _sim(scheduler)
    sim.clock(4)
    before = _observable(sim)
    sim.clock(0)
    sim.run(0)
    assert sim.clock_until_response(0) == 0
    assert _observable(sim) == before

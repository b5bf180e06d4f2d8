"""Golden equivalence: the engine ("active") vs the full walk ("naive").

The clock engine (repro.core.clock) selects what to visit from active
sets and skips cycles in which nothing can move; the reference
(tests/reference/full_walk.py) visits every queue on every cycle.  For
any workload the two must produce identical total cycle counts,
identical binary trace byte streams, identical per-stage work counters
and identical final register-file contents.  This module drives the
four Table I configurations, a chained two-device topology, an
ECC-enabled device and a kitchen-sink engine configuration through both
and asserts exactly that.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DeviceConfig, SimConfig
from repro.core.errors import LinkDeadError, WatchdogError
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.packets.packet import build_memrequest
from repro.registers.regdefs import index_by_name, physical_index
from repro.topology.builder import build_chain
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
)
from tests.reference.full_walk import BUILD

# The four paper configurations (Table I), scaled request counts.
TABLE1 = {
    "4L8B2G": DeviceConfig(num_links=4, num_banks=8, capacity=2),
    "4L16B4G": DeviceConfig(num_links=4, num_banks=16, capacity=4),
    "8L8B4G": DeviceConfig(num_links=8, num_banks=8, capacity=4),
    "8L16B8G": DeviceConfig(num_links=8, num_banks=16, capacity=8),
}


def _fingerprint(sim: HMCSim, sink: BinarySink, buf: io.BytesIO) -> dict:
    """Everything the equivalence contract covers, in comparable form."""
    return {
        "cycles": sim.clock_value,
        "stage_counts": list(sim.engine.stage_counts),
        "trace_bytes": buf.getvalue(),
        "trace_records": sink.records,
        "registers": [d.regs.snapshot() for d in sim.devices],
        "stats": sim.stats(),
        "routed_remote": sum(
            x.routed_remote for d in sim.devices for x in d.xbars
        ),
    }


def _drive(
    scheduler: str,
    device: DeviceConfig,
    *,
    num_devs: int = 1,
    num_requests: int = 600,
    chain: bool = False,
    mask: EventType = EventType.STANDARD,
    idle_tail: int = 500,
    **engine_kw,
) -> dict:
    """Run one deterministic workload on ``BUILD[scheduler]``, fingerprint it."""
    scfg = SimConfig(device=device, num_devs=num_devs, **engine_kw)
    sim = BUILD[scheduler](scfg)
    if chain:
        build_chain(sim, host_links=2)
    else:
        for link in range(device.num_links):
            sim.attach_host(0, link)
    buf = io.BytesIO()
    sink = BinarySink(buf, num_vaults=device.num_vaults)
    sim.tracer.mask = mask
    sim.tracer.add_sink(sink)

    host = Host(sim)
    racfg = RandomAccessConfig(num_requests=num_requests, seed=7)
    stream = random_access_requests(device.capacity_bytes, racfg)
    if chain:
        # Interleave targets across the chain so remote routing and the
        # cross-chain response stages carry real traffic.
        ndev = num_devs
        stream = (
            (cmd, addr, payload)
            for i, (cmd, addr, payload) in enumerate(stream)
        )
        reqs = list(stream)
        host.run(
            ((cmd, addr, payload) for (cmd, addr, payload) in reqs[::2]),
            cub=0,
        )
        host.run(
            ((cmd, addr, payload) for (cmd, addr, payload) in reqs[1::2]),
            cub=ndev - 1,
        )
    else:
        host.run(stream, cub=0)
    if idle_tail:
        # Quiescent stretch: the engine fast-forwards this in closed
        # form; the reference ticks every cycle.  The fingerprints must
        # match regardless.
        sim.run(idle_tail)
    return _fingerprint(sim, sink, buf)


def _assert_identical(a: dict, b: dict) -> None:
    assert a["cycles"] == b["cycles"]
    assert a["stage_counts"] == b["stage_counts"]
    assert a["trace_records"] == b["trace_records"]
    assert a["trace_bytes"] == b["trace_bytes"]
    assert a["registers"] == b["registers"]
    assert a["stats"] == b["stats"]
    assert a["routed_remote"] == b["routed_remote"]
    # Sparse schedules only: the watchdog, and the RAS cycle cursor
    # (what fast-forwarded cycles leave behind for out-of-band use).
    assert a.get("tripped") == b.get("tripped")
    assert a.get("ras_cycles") == b.get("ras_cycles")


@pytest.mark.parametrize("label", sorted(TABLE1))
def test_table1_configs_bit_identical(label):
    device = TABLE1[label]
    naive = _drive("naive", device)
    active = _drive("active", device)
    _assert_identical(naive, active)
    # Sanity: the workload actually did something.
    assert active["cycles"] > 0
    assert active["trace_records"] > 0


def test_chained_topology_bit_identical():
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    naive = _drive("naive", device, num_devs=2, chain=True, num_requests=400)
    active = _drive("active", device, num_devs=2, chain=True, num_requests=400)
    _assert_identical(naive, active)
    # The chain run must exercise the remote-routing path.
    assert active["routed_remote"] > 0


def test_ecc_enabled_bit_identical():
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2, ecc_enabled=True)
    naive = _drive("naive", device, num_requests=400, ras_seed=11)
    active = _drive("active", device, num_requests=400, ras_seed=11)
    _assert_identical(naive, active)


def test_kitchen_sink_engine_options_bit_identical():
    """Refresh + rotating arbitration + queue timeouts all at once."""
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    kw = dict(
        refresh_interval=40,
        refresh_cycles=8,
        xbar_arbitration="rotating",
        queue_timeout=200,
    )
    naive = _drive("naive", device, num_requests=400, **kw)
    active = _drive("active", device, num_requests=400, **kw)
    _assert_identical(naive, active)


def test_fault_injected_chain_bit_identical():
    """BER > 0 on every link of a chained config: retries, replay
    windows and per-link RNG draws must land on the same cycles on the
    engine and the reference — bit-for-bit, including the LRS registers."""
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    kw = dict(link_ber=2e-4, link_drop_rate=0.002, link_seed=3)
    naive = _drive("naive", device, num_devs=2, chain=True,
                   num_requests=300, **kw)
    active = _drive("active", device, num_devs=2, chain=True,
                    num_requests=300, **kw)
    _assert_identical(naive, active)
    faults = active["stats"]["link_faults"]
    assert sum(v["irtry_events"] for v in faults.values()) > 0
    assert sum(v["recovery_cycles"] for v in faults.values()) > 0
    assert sum(v["recovered"] for v in faults.values()) > 0


def test_fault_injection_costs_cycles():
    """Seeded BER > 0 must measurably stretch the run vs BER = 0."""
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    clean = _drive("naive", device, num_devs=2, chain=True,
                   num_requests=300)
    noisy = _drive("naive", device, num_devs=2, chain=True,
                   num_requests=300,
                   link_ber=2e-4, link_drop_rate=0.002, link_seed=3)
    assert noisy["cycles"] > clean["cycles"]
    assert "link_faults" not in clean["stats"]  # baseline keys untouched


def test_watchdog_armed_fault_free_bit_identical():
    """An armed-but-silent watchdog must not perturb equivalence (the
    engine clamps its idle fast-forward to the deadline)."""
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    kw = dict(watchdog_cycles=100, link_ber=1e-5, link_seed=9)
    naive = _drive("naive", device, num_devs=2, chain=True,
                   num_requests=200, idle_tail=400, **kw)
    active = _drive("active", device, num_devs=2, chain=True,
                    num_requests=200, idle_tail=400, **kw)
    _assert_identical(naive, active)


def test_subcycle_tracing_bit_identical():
    """SUBCYCLE markers are per-cycle events: they disable fast-forward
    and must appear for every cycle on both sides."""
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    naive = _drive(
        "naive", device, num_requests=128, mask=EventType.ALL, idle_tail=64
    )
    active = _drive(
        "active", device, num_requests=128, mask=EventType.ALL, idle_tail=64
    )
    _assert_identical(naive, active)


class TestBatchedStepping:
    """run(n) / clock_until / is_quiescent surface semantics."""

    def _sim(self, scheduler="active"):
        sim = BUILD[scheduler](
            SimConfig(device=DeviceConfig(num_links=4, num_banks=8, capacity=2))
        )
        sim.attach_host(0, 0)
        return sim

    def test_run_advances_exactly_n_cycles(self):
        sim = self._sim()
        sim.run(1000)
        assert sim.clock_value == 1000
        assert sim.engine.stage_counts[6] == 1000

    def test_run_matches_naive_stat_register(self):
        fast, slow = self._sim("active"), self._sim("naive")
        fast.run(777)
        slow.run(777)
        assert fast.devices[0].regs.snapshot() == slow.devices[0].regs.snapshot()

    def test_is_quiescent_tracks_in_flight_work(self):
        from repro.packets.commands import CMD
        from repro.packets.packet import build_memrequest

        sim = self._sim()
        assert sim.is_quiescent
        sim.send(build_memrequest(0, 0x40, 1, CMD.RD64, link=0))
        assert not sim.is_quiescent
        sim.clock_until(lambda s: s.is_quiescent, max_cycles=100)
        assert sim.is_quiescent

    def test_clock_until_counts_and_short_circuits(self):
        sim = self._sim()
        assert sim.clock_until(lambda s: True) == 0
        n = sim.clock_until(lambda s: s.clock_value >= 42)
        assert n == 42
        assert sim.clock_value == 42

    def test_clock_until_raises_past_budget(self):
        from repro.core.errors import HMCError

        sim = self._sim()
        with pytest.raises(HMCError):
            sim.clock_until(lambda s: False, max_cycles=10)


# ----------------------------------------------------------------------
# Sparse schedules: cycles in which queued packets exist but none can
# move (the crossbar's registered input, ``ClockEngine.wake_cycle``).
# The saturated runs above never see one; these see little else.
# ----------------------------------------------------------------------

_SMALL = DeviceConfig(num_links=4, num_banks=8, capacity=2)

#: One send: (cycles clocked first, host link, packet kind, salt).
_SENDS = st.tuples(
    st.integers(0, 6),
    st.integers(0, 3),
    st.sampled_from(["local", "offquad", "mode_rd", "mode_wr", "flow", "remote",
                     "read_back"]),
    st.integers(0, 15),
)

#: RWS registers a host may strobe with a JTAG write between sends:
#: plain ones, RAS counters and link-retry statuses.
_RWS = ("GC", "BAT", "RASCE", "RASSCR", "LRS0", "LRS2")

sparse_schedules = st.fixed_dictionaries({
    "penalty": st.sampled_from([0, 1, 3]),
    # Weighted toward the settings under which packets are held at all.
    "queue_timeout": st.sampled_from([0, 0, 2, 8]),
    "refresh_interval": st.sampled_from([0, 7]),
    "watchdog_cycles": st.sampled_from([0, 20, 50]),
    "chain": st.booleans(),
    "sends": st.lists(_SENDS, min_size=1, max_size=10),
    # Every due source of the engine's skip rule: ECC (fit rate, patrol
    # scrub interval), faulty links (up to ones that die), strobes.
    "ecc": st.one_of(st.none(), st.tuples(st.sampled_from([0.0, 1e6, 3e6]),
                                          st.sampled_from([0, 8, 32]))),
    "link_ber": st.sampled_from([0.0, 0.0, 1e-4, 1e-3, 1e-2]),
    "link_retries": st.sampled_from([8, 1]),
    # (before which send — or, past the last, between the drains; register)
    "strobes": st.lists(st.tuples(st.integers(0, 10), st.sampled_from(_RWS)),
                        max_size=3),
})


def _sparse_packet(sim: HMCSim, link: int, kind: str, salt: int):
    quad = link  # link i sits on quad i
    if kind == "offquad":
        quad = (link + 1 + salt % 3) % 4
    addr = sim.devices[0].amap.encode(vault=quad * 4 + salt % 4, bank=salt % 8)
    cmd = {"mode_rd": CMD.MD_RD, "mode_wr": CMD.MD_WR, "flow": CMD.TRET,
           "read_back": CMD.RD16}.get(kind, CMD.RD16 if salt % 2 else CMD.WR16)
    # "read_back": a read where the "local" write of the same salt
    # stores, so an upset on that atom (upsets land only on written
    # cells) is found by an access.  "remote": the far cube of the
    # chain; on one cube, a misroute.
    cub = 1 if kind == "remote" else 0
    if kind in ("mode_rd", "mode_wr"):
        addr = 0x2B0000
    return build_memrequest(cub, addr, salt, cmd, link=link)


def drive_sparse(scheduler: str, sched: dict, clock=HMCSim.clock) -> dict:
    """Run one sparse schedule; *clock* is ``clock(sim, cycles)``.

    The host acts at fixed cycles (a send after each gap, retried a
    cycle later while it stalls; the strobes before the gaps they name;
    two long drains, the last strobe and, with ECC, a full patrol pass
    between them), so both sides see the same inputs; a watchdog trip
    ends the run and is part of the fingerprint.
    """
    chain = sched["chain"]
    fit_rate, scrub = sched.get("ecc") or (0.0, 0)
    sim = BUILD[scheduler](SimConfig(
        device=_SMALL.with_(ecc_enabled=sched.get("ecc") is not None),
        num_devs=2 if chain else 1,
        nonlocal_penalty_cycles=sched["penalty"],
        queue_timeout=sched["queue_timeout"],
        refresh_interval=sched["refresh_interval"],
        watchdog_cycles=sched["watchdog_cycles"],
        ras_fit_rate=fit_rate, ras_scrub_interval=scrub,
        link_ber=sched.get("link_ber", 0.0), link_seed=5,
        link_max_retries=sched.get("link_retries", 8),
    ))
    if chain:
        build_chain(sim, host_links=2)
    else:
        for link in range(_SMALL.num_links):
            sim.attach_host(0, link)
    host_links = len(sim.host_links())
    buf = io.BytesIO()
    sink = BinarySink(buf, num_vaults=_SMALL.num_vaults)
    sim.tracer.mask = EventType.STANDARD
    sim.tracer.add_sink(sink)
    strobes = {min(i, len(sched["sends"])): name
               for i, name in sched.get("strobes", ())}

    def strobe(i):
        if i in strobes:
            sim.jtag_reg_write(0, physical_index(index_by_name(strobes[i])), 1)

    tripped = None
    try:
        for i, (gap, link, kind, salt) in enumerate(sched["sends"]):
            strobe(i)
            clock(sim, gap)
            sim.recv_all()
            pkt = _sparse_packet(sim, link % host_links, kind, salt)
            try:
                for _ in range(8):  # a stall (a link's replay window): retry
                    if sim.try_send(pkt):
                        break
                    clock(sim, 1)
            except LinkDeadError:
                pass  # that host link has failed: the send is given up
        clock(sim, 40)
        sim.recv_all()
        # Most often on a drained simulation: a strobe, and an
        # out-of-band patrol pass that moves the RAS counters.
        strobe(len(sched["sends"]))
        if sim.devices[0].ras is not None:
            sim.devices[0].ras.scrub_all()
        clock(sim, 40)
        sim.recv_all()
    except WatchdogError:
        tripped = sim.clock_value
    out = _fingerprint(sim, sink, buf)
    out["tripped"] = tripped
    out["ras_cycles"] = [d.ras.cycle for d in sim.devices if d.ras is not None]
    return out


# 60 examples, or the loaded profile's count when it asks for more
# (``--hypothesis-profile=deep``: 1,000; tests/conftest.py).
@settings(max_examples=max(60, settings.default.max_examples), deadline=None)
@given(sched=sparse_schedules)
def test_sparse_schedules_bit_identical(sched):
    naive = drive_sparse("naive", sched)
    active = drive_sparse("active", sched)
    _assert_identical(naive, active)

"""The C crossbar stages vs the reference (tests/reference/crossbar.py).

Stages 1, 2 and 5 are C (``_vaultwalk.c``): ``CrossbarUnit.route_requests``
and the clock's routing, vault-walk and response-registration loops.
:mod:`tests.reference.crossbar` is their Python as it stood before, and
:func:`~tests.reference.crossbar.adopt` puts a simulator under it.
Twins built from one generated spec, one adopted, take the same packet
injections and host drains cycle by cycle; after every tick they must
hold identical queues (every packet's slots, stamps and counters),
active sets, crossbar, link and vault counters, in-band gate state,
route tables, stage counts, trace events and tracer counts.

The strategy covers chains, rings and meshes of 1-4 cubes, hop limit on
and off, ``nonlocal_penalty_cycles`` 0-3, ``queue_timeout``, the classic
map, a ``BitPermutationMap`` and a map that decodes past the vault
structure, MODE packets, full vault and peer queues (shallow depths),
unknown cubes, stray responses whose route record is unusable, link BER
up to 3e-3 with links degrading and dying, ``xbar_moves_per_cycle``
1-8, both arbitration orders and three tracer masks.  Addresses come
from a small pool three times in four, and some packets arrive with a
stamp in the past, so queues meet, fill and hold packets out of arrival
order.  Tier-1 runs 300 examples; ``--hypothesis-profile=deep`` runs
1,000.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing.address_map import AddressMap
from repro.addressing.custom import BitPermutationMap
from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.faults.inband import InbandLinkState
from repro.packets.commands import CMD
from repro.packets.packet import Packet, build_memrequest, build_response
from repro.topology.builder import build_chain, build_mesh, build_ring
from repro.trace.events import EventType
from tests.reference.crossbar import adopt

_SHAPE = dict(num_vaults=16, num_banks=8, block_size=64, capacity_bytes=2 << 30)


class _WideMap(AddressMap):
    """Decodes vault ids up to 127: past the device's 16 vaults, and past
    the 64 a bitmask holds."""

    def vault_of(self, addr: int) -> int:
        return (addr >> self._vs) & 0x7F


_AMAPS = {
    "classic": None,
    "custom": BitPermutationMap.from_field_order(
        ("offset", "bank", "vault", "dram"), **_SHAPE),
    "wide": _WideMap(**_SHAPE),
}
_MASKS = {"off": EventType.NONE, "standard": EventType.STANDARD,
          "all": EventType.ALL}
#: kind -> (command, payload words) of an injected request.
_REQUESTS = {
    "read": (CMD.RD64, None),
    "write": (CMD.WR16, [3, 4]),
    "posted": (CMD.P_WR16, [5, 6]),
    "mode_read": (CMD.MD_RD, None),
    "mode_write": (CMD.MD_WR, [1, 0]),
}
_SLOTS = Packet.__slots__
#: Addresses in two vaults (one in link 0's quad) and two banks under
#: the classic map: queues meet and fill.
_POOL = [AddressMap(**_SHAPE).encode(v, b, d, 0)
         for v in (0, 5) for b in (0, 1) for d in (0, 3)]


def _topology(sim: HMCSim, shape: str, host_links: int) -> None:
    ndev = len(sim.devices)
    if ndev == 1:
        for link in range(host_links):
            sim.attach_host(0, link)
    elif shape == "ring" and ndev >= 3:
        build_ring(sim, host_links=host_links)
    elif shape == "mesh":
        build_mesh(sim, shape=(2, 2) if ndev == 4 else (1, ndev))
    else:
        build_chain(sim, host_links=host_links)


def _build(spec: dict, reference: bool):
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2,
                          queue_depth=spec["queue_depth"],
                          xbar_depth=spec["xbar_depth"])
    sim = HMCSim(SimConfig(
        device=device, num_devs=spec["devs"],
        xbar_moves_per_cycle=spec["moves"],
        nonlocal_penalty_cycles=spec["penalty"],
        queue_timeout=spec["timeout"], xbar_arbitration=spec["arbitration"],
        link_ber=spec["ber"], link_drop_rate=spec["drop"],
        link_max_retries=spec["retries"], link_seed=spec["seed"]))
    _topology(sim, spec["shape"], spec["host_links"])
    amap = _AMAPS[spec["amap"]]
    if amap is not None:
        for dev in sim.devices:
            dev.amap = amap
    sink = sim.trace_to_memory(_MASKS[spec["mask"]])
    return (adopt(sim) if reference else sim), sink


def _number(sim: HMCSim, pkt) -> None:
    """Give *pkt* the serial it takes entering *sim* (the gates tell a
    replay from a new packet by it)."""
    pkt.serial = sim.tracer.next_serial
    sim.tracer.next_serial += 1


def _inject(sim: HMCSim, action: tuple) -> None:
    """The packets of one generated action into queues of *sim*."""
    kind, dev_pick, link_pick, cub_pick, addr, tag, back = action
    ndev = len(sim.devices)
    dev = sim.devices[dev_pick % ndev]
    links = [l.link_id for l in dev.links if l.configured]
    link = links[link_pick % len(links)]
    cub = ndev + 2 if cub_pick == 7 else cub_pick % ndev    # 7: unknown
    # A stamp in the past: the walk's rules hold for any arrival order.
    cycle = max(0, sim.clock_value - back)
    if kind in _REQUESTS or kind == "late_pair":
        # A late pair: two reads to one address, the second stamped
        # three cycles before the first — it must not pass it.
        for cmd, payload, when in (
                [(CMD.RD16, None, sim.clock_value), (CMD.RD16, None, cycle - 3)]
                if kind == "late_pair" else [(*_REQUESTS[kind], cycle)]):
            pkt = build_memrequest(cub, addr, tag, cmd, payload=payload)
            _number(sim, pkt)
            pkt.route_stack = [(dev.dev_id, link)]
            pkt.ingress_link = link
            dev.xbars[link].rqst.push(pkt, max(0, when))
        return
    # A stray response: its route record names another device, a link
    # past the device's, or is missing with an ingress link in or out
    # of range.
    rsp = build_response(build_memrequest(cub, addr, tag, CMD.RD16))
    _number(sim, rsp)
    rsp.route_stack = [[], [(dev.dev_id, link)], [((dev.dev_id + 1) % ndev, link)],
                       [(dev.dev_id, 9)]][tag % 4]
    rsp.ingress_link = tag % 6 - 1
    if kind == "stray_vault":
        dev.vaults[addr % len(dev.vaults)].rsp.push(rsp, cycle)
    else:
        chain = [l.link_id for l in dev.links if l.is_chain_link]
        if chain:
            dev.xbars[chain[link_pick % len(chain)]].rsp.push(rsp, cycle)


def _queue(q) -> tuple:
    pkts = [tuple(tuple(v) if isinstance(v, list) else v
                  for v in (getattr(p, n, None) for n in _SLOTS)) for p in q._q]
    return (pkts, list(q._stamps), q.high_water, q.total_enqueued,
            q.total_dequeued, q.total_stalls, q.special_count)


def _state(sim: HMCSim, sink, offers: Counter) -> tuple:
    devices = []
    for d in sim.devices:
        devices.append((
            sorted(d.act_xbar_rqst), sorted(d.act_xbar_rsp),
            sorted(d.act_vault_rqst), sorted(d.act_vault_rsp),
            [(_queue(x.rqst), _queue(x.rsp), x.routed_local, x.routed_remote,
              x.stall_events, x.latency_events, x.misroutes, x.expired)
             for x in d.xbars],
            [(l.tx_packets, l.rx_packets, l.tx_flits, l.rx_flits) for l in d.links],
            [(_queue(v.rqst), _queue(v.rsp), v.rd_count, v.wr_count,
              v.mode_count, v.conflict_count, v.issue_stall_cycles,
              v.rsp_stall_count) for v in d.vaults],
        ))
    gates = [(s.health, s.stats_dict(), s.failure_handled,
              {k: (g.busy_until, g.failures, g.pending_attempts,
                   tuple(g.pointers._unacked)) for k, g in s._dirs.items()})
             for s in sim._link_fault_states]
    events = [(e.type, e.cycle, e.dev, e.link, e.quad, e.vault, e.bank,
               e.stage, e.serial, e.extra) for e in sink.events]
    tracer = sim.tracer
    return (sim.clock_value, devices, gates, dict(offers), sim._routes,
            sim.dropped_responses, sim.link_failures,
            list(sim.engine.stage_counts), events, tracer.emitted, tracer.dropped)


def _run(spec: dict, cycles: list, reference: bool) -> list:
    sim, sink = _build(spec, reference)
    # Gate offers per sender: a held link is offered once per walk.  A
    # busy direction changes no state when offered again, so only the
    # count shows the held rule.
    offers = Counter()
    gate = InbandLinkState.try_transmit

    def counted(state, sender, pkt, cycle, tracer):
        offers[sender] += 1
        return gate(state, sender, pkt, cycle, tracer)

    states = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InbandLinkState, "try_transmit", counted)
        for actions, drain in cycles:
            for action in actions:
                _inject(sim, action)
            if drain:
                for d, l in sim._host_links:
                    rsp = sim.devices[d].xbars[l].rsp
                    if rsp._q:
                        rsp.pop()
            sim.engine.tick()
            states.append(_state(sim, sink, offers))
    return states


#: Picks of a device, link or cube: mostly the first, so packets meet.
_PICK = st.sampled_from([0, 0, 0, 0, 1, 2, 3])
_action = st.tuples(
    st.sampled_from([*_REQUESTS, "read", "read", "late_pair", "stray_vault",
                     "stray_chain"]),
    _PICK, _PICK, st.one_of(_PICK, st.just(7)),
    st.one_of(*[st.sampled_from(_POOL)] * 3,
              st.integers(0, (2 << 30) - 64).map(lambda a: a & ~63)),
    st.integers(0, 511), st.sampled_from([0, 0, 1, 1, 3]))
_spec = st.fixed_dictionaries({
    "devs": st.integers(1, 4),
    "shape": st.sampled_from(["chain", "ring", "mesh"]),
    "host_links": st.integers(1, 2),
    "penalty": st.integers(0, 3),
    "timeout": st.sampled_from([0, 0, 4, 12]),
    "amap": st.sampled_from(sorted(_AMAPS)),
    "moves": st.integers(1, 8),
    "arbitration": st.sampled_from(["fixed", "rotating"]),
    "queue_depth": st.integers(1, 6),
    "xbar_depth": st.integers(1, 8),
    "ber": st.sampled_from([0.0, 0.0, 1e-4, 3e-3]),
    "drop": st.sampled_from([0.0, 0.05, 0.3]),
    "retries": st.integers(1, 4),
    "seed": st.integers(0, 2**16),
    "mask": st.sampled_from(sorted(_MASKS)),
})
_cycles = st.lists(st.tuples(st.lists(_action, max_size=8), st.booleans()),
                   min_size=1, max_size=24)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(spec=_spec, cycles=_cycles)
def test_c_stages_match_the_reference(spec, cycles):
    ours = _run(spec, cycles, reference=False)
    theirs = _run(spec, cycles, reference=True)
    for cycle, (a, b) in enumerate(zip(ours, theirs)):
        assert a == b, f"diverged at tick {cycle}"

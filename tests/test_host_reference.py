"""The C host lane vs the reference (tests/reference/host.py).

``Host._inject`` / ``drain_responses``, ``build_memrequest`` and
``HMCSim.send`` / ``recv`` / ``recv_all`` are C (``_vaultwalk.c``).
:mod:`tests.reference.host` is their Python as it stood before, and
:func:`~tests.reference.host.adopt` puts a host and its simulator under
it.  Twins built from one generated spec, one adopted, take the same
request streams, stray responses, direct sends and receives cycle by
cycle; after every cycle they must hold identical hosts (every
attribute, tag pools with their free order, every ``PendingRequest``),
simulator counters and serials, queues (every packet's slots), link
counters and tokens, in-band gate state and trace events, and every
call must return, or raise, the same.  An overridden ``send`` also
notes the simulator, link and tag-pool counters at each call, so both
lanes must move them packet by packet, not at the end of a burst.

The strategy covers 1-4 cubes, one shared host or two partitioned
ones, the three link policies, ``max_outstanding`` down to 1, posted
writes, bubbles, addresses out of range, requests to an unknown cube
(error responses), stray responses with unknown tags, host-link BER up
to 3e-3 with links dying and failing over, link tokens, a simulator
whose ``send`` / ``recv_all`` are overridden, and trace masks with and
without ``RSP_DELIVERED``.  Tier-1 runs 300 examples;
``--hypothesis-profile=deep`` runs 1,000.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import _END, Host
from repro.packets.commands import CMD
from repro.packets.packet import ErrStat, Packet, build_memrequest, build_response
from repro.topology.builder import build_chain
from repro.trace.events import EventType
from tests.reference.host import ReferenceSim, adopt

_MASKS = {
    "off": EventType.NONE,
    "standard": EventType.STANDARD,     # RSP_DELIVERED included
    "figure5": EventType.FIGURE5,       # RSP_DELIVERED left out
}
#: kind -> (command, payload words) of a streamed request.
_REQUESTS = {
    "read": (CMD.RD64, None),
    "read16": (CMD.RD16, None),
    "write": (CMD.WR16, [3, 4]),
    "write_short": (CMD.WR64, [1 << 70, -1]),
    "posted": (CMD.P_WR16, [5, 6]),
}
_SLOTS = Packet.__slots__


def _counters_now(sim) -> tuple:
    """The counters a packet moves, as a call-back made mid-call sees them."""
    return (sim.packets_sent, sim.send_stalls, sim.packets_received,
            [(l.tx_packets, l.rx_packets, l.tx_flits, l.rx_flits)
             for d in sim.devices for l in d.links],
            [(p.allocated_total, p.released_total)
             for h in sim.observed_hosts for p in h.tag_pools.values()])


class _WrappedSim(HMCSim):
    """A simulator whose send and recv_all are its class's own: the
    inject leaves the inlined lane for the call.  Each send notes the
    counters it finds, so a count held back to the end of a burst shows."""

    def send(self, pkt, dev=None, link=None):
        self.mid_call.append(_counters_now(self))
        super().send(pkt, dev=dev, link=link)

    def recv_all(self):
        return super().recv_all()


class _WrappedReference(ReferenceSim):
    def send(self, pkt, dev=None, link=None):
        self.mid_call.append(_counters_now(self))
        super().send(pkt, dev=dev, link=link)

    def recv_all(self):
        return super().recv_all()


def _build(spec: dict, reference: bool):
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2,
                          queue_depth=spec["queue_depth"],
                          xbar_depth=spec["xbar_depth"])
    sim = HMCSim(SimConfig(
        device=device, num_devs=spec["devs"],
        link_ber=spec["ber"], link_drop_rate=spec["drop"],
        link_max_retries=spec["retries"], link_retry_delay=spec["delay"],
        link_seed=spec["seed"],
        link_token_flits=spec["tokens"]))
    if spec["devs"] == 1:
        for link in range(spec["host_links"]):
            sim.attach_host(0, link)
    else:   # a chain's inner cubes keep two links for the chain
        build_chain(sim, host_links=min(spec["host_links"], 2))
    sink = sim.trace_to_memory(_MASKS[spec["mask"]])
    lanes = sim.host_links()
    owned = [None] if not spec["partitioned"] or len(lanes) < 2 else [
        lanes[::2], lanes[1::2]]
    hosts = [Host(sim, policy=spec["policy"], max_outstanding=spec["tags"],
                  seed=spec["seed"], links=links) for links in owned]
    if reference:
        for host in hosts:
            adopt(host)
    if spec["wrapped"]:
        sim.__class__ = _WrappedReference if reference else _WrappedSim
        sim.observed_hosts, sim.mid_call = hosts, []
    return sim, hosts, sink


def _packet(p) -> tuple:
    return tuple(tuple(v) if isinstance(v, list) else v
                 for v in (getattr(p, n, None) for n in _SLOTS))


def _queue(q) -> tuple:
    return ([_packet(p) for p in q._q], list(q._stamps), q.high_water,
            q.total_enqueued, q.total_dequeued, q.total_stalls, q.special_count)


def _host(host: Host) -> tuple:
    attrs = {k: v for k, v in vars(host).items()
             if k not in ("sim", "tag_pools", "_rng")}
    rng = None if host._rng is None else host._rng.bit_generator.state
    pools = {lane: (list(p._free), {t: (c.cmd, c.addr, c.dev, c.link, c.sent_cycle)
                                    for t, c in p._bound.items()},
                    p.allocated_total, p.released_total)
             for lane, p in host.tag_pools.items()}
    return attrs, rng, pools


def _state(sim: HMCSim, hosts, sink) -> tuple:
    devices = [([(_queue(x.rqst), _queue(x.rsp)) for x in d.xbars],
                [(_queue(v.rqst), _queue(v.rsp)) for v in d.vaults],
                [(l.tx_packets, l.rx_packets, l.tx_flits, l.rx_flits) for l in d.links])
               for d in sim.devices]
    gates = [(s.health, s.stats_dict(), s.failure_handled,
              {k: (g.busy_until, g.failures, g.pending_attempts, g.pending_serial,
                   tuple(g.pointers._unacked)) for k, g in s._dirs.items()})
             for s in sim._link_fault_states]
    counters = (sim.clock_value, sim.packets_sent, sim.packets_received,
                sim.send_stalls, sim.dropped_responses, sim.link_failures,
                sim._recv_rotor, sim.tracer.next_serial, sim.tracer.emitted,
                dict(sim._outstanding_flits),
                {k: t.available for k, t in sim._tokens.items()})
    events = [(e.type, e.cycle, e.dev, e.link, e.quad, e.vault, e.bank,
               e.stage, e.serial, e.extra) for e in sink.events]
    mid_call = sim.__dict__.get("mid_call", [])[:]
    sim.__dict__.get("mid_call", []).clear()
    return counters, mid_call, [_host(h) for h in hosts], devices, gates, events


def _call(fn, *args, **kwargs):
    """What *fn* returned, with packets as their slots, or what it raised."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the twin must raise alike
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(out, list):
        return [_packet(p) for p in out]
    if isinstance(out, Packet):
        return _packet(out)
    return out


def _stray(sim: HMCSim, tag: int, lane_pick: int, error: bool) -> None:
    """A response queued on a host link: an unknown tag, or an error."""
    lanes = sim.host_links()
    d, l = lanes[lane_pick % len(lanes)]
    rsp = build_response(build_memrequest(0, 64, tag, CMD.RD16),
                         errstat=ErrStat.INVALID_ADDRESS if error else ErrStat.OK)
    rsp.serial = sim.tracer.next_serial
    sim.tracer.next_serial += 1
    sim.devices[d].xbars[l].rsp.push(rsp, sim.clock_value)


def _items(kinds: list):
    for kind, addr in kinds:
        if kind == "bubble":
            yield None
        elif kind == "far":     # an address past the 34-bit field
            yield (CMD.RD16, 1 << 40, None)
        else:
            yield (_REQUESTS[kind][0], addr, _REQUESTS[kind][1])


def _run(spec: dict, cycles: list, reference: bool) -> list:
    """Host.run's loop, unrolled so every cycle is looked at: each host
    injects a burst, the simulator clocks, each host drains."""
    sim, hosts, sink = _build(spec, reference)
    ndev = spec["devs"]
    streams = [[_items(spec["streams"][k % len(spec["streams"])]), None]
               for k in range(len(hosts))]
    out = []
    for actions in cycles:
        seen = []
        for host, stream in zip(hosts, streams):
            it, held = stream
            if held is _END:
                continue
            cub = ndev + 3 if actions["unknown_cub"] else ndev - 1
            got = _call(host._inject, next(it, _END) if held is None else held, it, cub)
            if got[0] == "raised":
                stream[1] = None    # the item is spent: a run would end here
            else:
                stream[1] = got[1]
                got = (got[0], "end" if got[1] is _END else got[1])
            seen.append(got)
        for tag in actions["strays"]:
            _stray(sim, tag, actions["lane"], error=tag % 3 == 0)
        if actions["direct"]:
            lanes = sim.host_links()
            d, l = lanes[actions["lane"] % len(lanes)]
            pkt = build_memrequest(0, 128, 511, CMD.RD16, link=l)
            seen.append(_call(sim.send, pkt, dev=d if actions["direct"] > 1 else None))
        sim.clock()
        if actions["recv"]:
            seen.append(_call(sim.recv))
        for host in hosts:
            seen.append(_call(host.drain_responses))
        out.append((seen, _state(sim, hosts, sink)))
    return out


_item = st.tuples(
    st.sampled_from([*_REQUESTS, "read", "read", "bubble", "far"]),
    st.one_of(st.sampled_from([0, 64, 4096, 8192]),
              st.integers(0, (2 << 30) - 64).map(lambda a: a & ~63)))
_spec = st.fixed_dictionaries({
    "devs": st.integers(1, 4),
    "host_links": st.integers(1, 4),
    "partitioned": st.booleans(),
    "policy": st.sampled_from(["round_robin", "random", "locality"]),
    "tags": st.sampled_from([1, 2, 3, 8, 512]),
    "queue_depth": st.integers(1, 6),
    "xbar_depth": st.integers(1, 8),
    "ber": st.sampled_from([0.0, 0.0, 1e-4, 3e-3]),
    "drop": st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.9]),
    "retries": st.integers(1, 4),
    "delay": st.integers(1, 3),
    "seed": st.integers(0, 2**16),
    "tokens": st.sampled_from([0, 0, 0, 6, 40]),
    "wrapped": st.booleans(),
    "mask": st.sampled_from(sorted(_MASKS)),
    "streams": st.lists(st.lists(_item, max_size=40), min_size=1, max_size=2),
})
_cycles = st.lists(st.fixed_dictionaries({
    "unknown_cub": st.sampled_from([False, False, False, True]),
    "strays": st.lists(st.integers(0, 511), max_size=2),
    "lane": st.integers(0, 3),
    "direct": st.sampled_from([0, 0, 0, 1, 2]),
    "recv": st.sampled_from([False, False, True]),
}), min_size=1, max_size=30)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(spec=_spec, cycles=_cycles)
def test_c_host_lane_matches_the_reference(spec, cycles):
    ours = _run(spec, cycles, reference=False)
    theirs = _run(spec, cycles, reference=True)
    for cycle, (a, b) in enumerate(zip(ours, theirs)):
        assert a == b, f"diverged at cycle {cycle}"


@given(cub=st.one_of(st.integers(-2, 9), st.just(True)),
       addr=st.one_of(st.integers(-1, 1 << 35), st.sampled_from([-1, 0, (1 << 34) - 1, 1 << 34])),
       tag=st.integers(-1, 513),
       cmd=st.one_of(st.sampled_from(list(CMD)), st.integers(-1, 70), st.just(48.0)),
       payload=st.one_of(st.none(), st.lists(st.integers(-(1 << 70), 1 << 70), max_size=20),
                         st.sampled_from([["7", 8], [1.5], ["x"], (True, 2, 3)])),
       link=st.integers(0, 7))
def test_build_memrequest_matches_the_reference(cub, addr, tag, cmd, payload, link):
    from tests.reference.host import build_memrequest as reference

    assert (_call(build_memrequest, cub, addr, tag, cmd, payload, link)
            == _call(reference, cub, addr, tag, cmd, payload, link))

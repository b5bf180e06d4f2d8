"""The host driver: link selection, tag tracking, and the run loop.

Reproduces the behaviour of the paper's test application (§VI.A): "The
application will send as many memory requests as possible to the target
device or devices until an appropriate stall is received indicating that
the crossbar arbitration queues are full.  The application selects
appropriate HMC links in a simple round-robin fashion in order to
naively balance the traffic across all possible injection points."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import LinkDeadError, StallError, TopologyError
from repro.core.quad import quad_of_vault
from repro.core.simulator import HMCSim
from repro.faults.inband import HOST_SENDER, TX_DEAD, TX_OK
from repro.packets.commands import CMD, is_posted
from repro.packets.packet import ErrStat, Packet, build_memrequest

#: Posted commands: they take no tag and get no response.
_POSTED = frozenset(c for c in CMD if is_posted(c))

#: The end of a request stream.  A ``None`` item is a bubble, not the end.
_END = object()


class LinkPolicy(enum.Enum):
    """Host-side link-selection policies."""

    #: The paper's harness: naive round-robin across host links.
    ROUND_ROBIN = "round_robin"
    #: Uniform random host link per request.
    RANDOM = "random"
    #: Prefer the host link whose closest quad owns the target vault
    #: (§VI.B corollary); falls back to round-robin when no such link.
    LOCALITY = "locality"


@dataclass(slots=True)
class PendingRequest:
    """Host-side context for one outstanding tag."""

    cmd: CMD
    addr: int
    dev: int
    link: int
    sent_cycle: int


@dataclass(frozen=True, slots=True)
class HostMark:
    """A position over a host's cumulative counters.

    Take one with :meth:`Host.mark`, read what happened since with
    :meth:`Host.delta` — the pattern wrappers that interleave their own
    stepping with the host's (e.g. the service shard pump) use to
    attribute traffic windows without resetting shared counters.
    """

    sent: int
    received: int
    errors: int
    latency_index: int


@dataclass
class HostRunResult:
    """Outcome of :meth:`Host.run`."""

    requests_sent: int
    responses_received: int
    errors_received: int
    cycles: int
    send_stall_cycles: int
    #: Host-observed latencies (inject -> response recv) in cycles.
    latencies: List[int] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    @property
    def p99_latency(self) -> float:
        if not self.latencies:
            return float("nan")
        return float(np.percentile(self.latencies, 99))

    @property
    def throughput(self) -> float:
        """Requests completed per simulated cycle."""
        return self.responses_received / self.cycles if self.cycles else 0.0


class Host:
    """A host processor driving one HMCSim object.

    Parameters
    ----------
    sim:
        The simulation object; its topology must expose host links.
    policy:
        Link-selection policy (:class:`LinkPolicy`).
    max_outstanding:
        Cap on in-flight tagged requests *per host link* (<= 512, the
        9-bit tag space).  Tags are a per-link correlation domain: a
        response returns on the link its request entered, so each host
        link carries an independent tag pool — the full 512-tag space
        per injection point.
    seed:
        Seed for the RANDOM policy's generator.
    links:
        Optional subset of the sim's host links this host owns, as
        (dev, link) pairs.  Several Host instances with disjoint subsets
        model multiple physical hosts sharing one cube fabric: each
        injects and drains only through its own links (paper §III.A —
        links "may connect a host and an HMC device", plural hosts
        included).  Default: all host links.
    """

    def __init__(
        self,
        sim: HMCSim,
        policy: LinkPolicy | str = LinkPolicy.ROUND_ROBIN,
        max_outstanding: int = 512,
        seed: int = 1,
        links: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        from repro.host.tagpool import TagPool

        self.sim = sim
        self.policy = LinkPolicy(policy)
        if links is None:
            self._host_links: List[Tuple[int, int]] = sim.host_links()
            self._partitioned = False
        else:
            available = set(sim.host_links())
            self._host_links = list(dict.fromkeys(tuple(l) for l in links))
            bad = [l for l in self._host_links if l not in available]
            if bad:
                raise TopologyError(f"not host links: {bad}")
            self._partitioned = True
        self.tag_pools: Dict[Tuple[int, int], TagPool] = {
            key: TagPool(size=max_outstanding) for key in self._host_links
        }
        self._rotor = 0
        # The RANDOM policy's generator, made on its first pick: a host
        # that never picks at random pickles without one.
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        if not self._host_links:
            raise TopologyError("host model requires at least one host link")
        # Statistics.
        self.sent = 0
        self.received = 0
        self.errors = 0
        self.latencies: List[int] = []
        self.error_stats: Dict[int, int] = {}

    # -- link selection -------------------------------------------------------

    def _pick_link(self, cub: int, addr: int) -> Tuple[int, int]:
        links = self._host_links
        if self.policy is LinkPolicy.RANDOM:
            if self._rng is None:
                self._rng = np.random.default_rng(self._seed)
            return links[int(self._rng.integers(len(links)))]
        if self.policy is LinkPolicy.LOCALITY:
            dev = self.sim.devices[cub] if 0 <= cub < len(self.sim.devices) else None
            if dev is not None:
                vault = dev.amap.vault_of(addr)
                target_quad = quad_of_vault(vault)
                for d, l in links:
                    if d == cub and l == target_quad % dev.config.num_links:
                        return (d, l)
            # No co-located host link: fall through to round-robin.
        pick = links[self._rotor % len(links)]
        self._rotor += 1
        return pick

    # -- request issue ----------------------------------------------------------

    def send_request(
        self,
        cmd: CMD,
        addr: int,
        cub: int = 0,
        payload: Optional[Sequence[int]] = None,
    ) -> Optional[int]:
        """Build and inject one request; returns its tag.

        Returns None when no tag is free or the chosen link stalls — the
        caller should clock the simulation and retry, mirroring the C
        harness's stall handling.  Posted requests consume no tag.
        """
        if self._inject((cmd, addr, payload), None, cub)[0]:
            return self.last_send[2]
        return None

    def _inject(
        self, item: object, more: Optional[Iterator], cub: int
    ) -> Tuple[int, object]:
        """Send *item*, then items from *more*, until one cannot go.

        The one inject body, behind :meth:`send_request` (one item) and
        :meth:`run` (a cycle's burst).  Items are ``(cmd, addr,
        payload)``, or None for a bubble.  Returns ``(sent, held)``:
        *held* is the item that found no free tag or a stalled link —
        retry it after a clock —, None when a bubble ended the burst, or
        ``_END`` once *more* (or the single item) is used up.

        Per request, in order: pick a link, take a tag (none free: stop
        before building), build the packet, inject.  The packet takes the
        simulation's next serial before the room check: a stalled
        injection has taken one, and returns its tag to the back of the
        free list.  With no link tokens and the sim's own
        ``HMCSim.send``, the injection is ``HMCSim.send``'s lane,
        inlined: the room check, then the host link's in-band gate when
        one is attached; otherwise it is the call.
        """
        sim = self.sim
        pools = self.tag_pools
        round_robin = self.policy is LinkPolicy.ROUND_ROBIN
        inline = type(sim).send is HMCSim.send and not (sim._freed or sim._tokens)
        peers = sim._link_peers
        devices = sim.devices
        link_faults = sim._link_faults
        tracer = sim.tracer
        host_cub = sim.config.host_cub
        clock = sim.clock_value
        sent = 0
        while item is not None and item is not _END:
            cmd, addr, payload = item
            if round_robin:
                links = self._host_links
                lane = links[self._rotor % len(links)]
                self._rotor += 1
            else:
                lane = self._pick_link(cub, addr)
            dev, link = lane
            pool = pools[lane]
            posted = cmd in _POSTED
            tag = 0
            if not posted:
                free = pool._free
                if not free:
                    return sent, item
                tag = free.popleft()
                pool._bound[tag] = PendingRequest(cmd, addr, dev, link, clock)
                pool.allocated_total += 1
            accepted = False
            try:
                pkt = build_memrequest(cub, addr, tag, cmd, payload, link)
                if inline:
                    pkt.serial = tracer.next_serial
                    tracer.next_serial += 1
                    if peers.get(lane) != "host":
                        raise TopologyError(
                            f"dev {dev} link {link} is not attached to the host"
                        )
                    device = devices[dev]
                    rq = device.xbars[link].rqst
                    state = link_faults.get(lane) if link_faults else None
                    if len(rq._q) >= rq.depth:
                        sim.send_stalls += 1
                    elif state is not None and (
                        status := state.try_transmit(HOST_SENDER, pkt, clock, tracer)
                    ) is not TX_OK:
                        # A replay window: a stall like a full queue.
                        if status is TX_DEAD:
                            raise sim._host_link_dead(state, dev, link)
                        sim.send_stalls += 1
                    else:
                        pkt.injected_at = clock
                        pkt.ingress_link = link
                        pkt.src_cub = host_cub
                        pkt.route_stack = [lane]
                        device.links[link].count_rx(pkt.num_flits)
                        rq.push(pkt, clock)
                        sim.packets_sent += 1
                        accepted = True
                else:
                    sim.send(pkt, dev=dev, link=link)
                    accepted = True
            except StallError:
                pass
            except LinkDeadError:
                # The link degraded to FAILED: fail over to the surviving
                # host links.  Requests already outstanding on the dead
                # link are stranded (the engine watchdog converts that
                # into a typed abort when armed); with no survivor the
                # typed error propagates to the caller.
                self._host_links = [hl for hl in self._host_links if hl != (dev, link)]
                if not self._host_links:
                    raise
            finally:
                # The builder and send both raise before enqueueing, so on
                # any failure the tag goes back: a leaked tag holds
                # `outstanding` above zero and a draining run() never ends.
                if not accepted and not posted:
                    pool.release(tag)
            if not accepted:
                return sent, item
            sent += 1
            self.sent += 1
            # Exposed for wrappers that need the full correlation key.
            self.last_send = (dev, link, tag)
            item = next(more, _END) if more is not None else _END
        return sent, item

    def _inject_each(
        self, item: object, more: Iterator, cub: int
    ) -> Tuple[int, object]:
        """:meth:`_inject`'s contract, one :meth:`send_request` call per item."""
        sent = 0
        while item is not None and item is not _END:
            cmd, addr, payload = item
            if self.send_request(cmd, addr, cub=cub, payload=payload) is None:
                return sent, item
            sent += 1
            item = next(more, _END)
        return sent, item

    # -- response handling ----------------------------------------------------------

    def drain_responses(self) -> List[Packet]:
        """Receive every pending response, recycling tags and recording
        latencies; error responses are tallied separately.

        A partitioned host polls only its own links, so co-resident
        hosts never steal each other's responses.
        """
        if self._partitioned:
            sim = self.sim
            sim._check_alive()
            poll = sim._poll
            responses = []
            for lane in self._host_links:
                queue = sim.devices[lane[0]].xbars[lane[1]].rsp._q
                if not queue:
                    continue
                if sim._link_peers.get(lane) != "host":
                    raise TopologyError(
                        f"dev {lane[0]} link {lane[1]} is not attached to the host"
                    )
                # recv(dev=, link=)'s poll, without its per-packet checks.
                lanes = (lane,)
                while queue:
                    pkt = poll(lanes, 1, 0)
                    if pkt is None:
                        break  # head held back by an in-band replay window
                    responses.append(pkt)
        else:
            responses = self.sim.recv_all()
        self.received += len(responses)
        pools = self.tag_pools
        now = self.sim.clock_value
        for rsp in responses:
            pool = pools.get(rsp.delivered_from)
            tag = rsp.tag
            if pool is None or tag not in pool._bound:
                # Response with an unknown tag or from an unknown link
                # (e.g. after host restart): count as an error and move on.
                self.errors += 1
                continue
            # TagPool.release, inlined.
            ctx: PendingRequest = pool._bound.pop(tag)
            pool._free.append(tag)
            pool.released_total += 1
            if rsp.errstat is not ErrStat.OK or rsp.cmd == CMD.ERROR:
                self.errors += 1
                self.error_stats[int(rsp.errstat)] = (
                    self.error_stats.get(int(rsp.errstat), 0) + 1
                )
            if ctx is not None:
                self.latencies.append(now - ctx.sent_cycle)
        return responses

    def responses_queued(self) -> bool:
        """True iff one of this host's links holds a queued response
        (read-only).  While false, :meth:`drain_responses` returns ``[]``
        and — partitioned — moves nothing, so the shard pump skips it."""
        sim = self.sim
        sim._check_alive()
        links = self._host_links if self._partitioned else sim._host_links
        return any(sim.devices[d].xbars[l].rsp._q for d, l in links)

    @property
    def outstanding(self) -> int:
        return sum(p.outstanding for p in self.tag_pools.values())

    # -- counter windows -------------------------------------------------------

    def mark(self) -> HostMark:
        """Snapshot the cumulative counters for later :meth:`delta`."""
        return HostMark(self.sent, self.received, self.errors,
                        len(self.latencies))

    def delta(self, since: HostMark) -> Tuple[int, int, int, List[int]]:
        """(sent, received, errors, latencies) accrued after *since*."""
        return (
            self.sent - since.sent,
            self.received - since.received,
            self.errors - since.errors,
            self.latencies[since.latency_index:],
        )

    # -- the drive loop ------------------------------------------------------------

    def run(
        self,
        requests: Iterable[Tuple[CMD, int, Optional[Sequence[int]]]],
        cub: int = 0,
        max_cycles: int = 10_000_000,
        drain: bool = True,
    ) -> HostRunResult:
        """Drive a request stream to completion.

        Every cycle: send as many requests as possible until a stall or
        tag exhaustion (paper §VI.A), clock once, and drain responses.
        With *drain* true the loop keeps clocking after the stream is
        exhausted until every outstanding response has returned.

        *requests* yields ``(cmd, addr, payload)`` tuples, or None for a
        bubble: the host sends nothing more that cycle, and the cycle is
        not a stall (``repro.workloads.mixes.bursty`` makes them).  *cub*
        selects the target cube for the whole stream.  Subclasses hook
        the loop through :meth:`send_request` (then every request goes
        through it) and :meth:`drain_responses`, called once per cycle
        right after the clock.
        """
        it: Iterator = iter(requests)
        sim = self.sim
        start_cycle = sim.clock_value
        start_sent = self.sent
        start_recv = self.received
        start_err = self.errors
        lat_mark = len(self.latencies)
        stall_cycles = 0
        # A subclass's send_request sees every request; otherwise a
        # cycle's sends are one burst through the inject body.
        if type(self).send_request is Host.send_request:
            inject = self._inject
        else:
            inject = self._inject_each
        held: object = None
        exhausted = False

        # One outer trace-batch window for the whole drive loop, so
        # host-boundary events (RSP_DELIVERED) batch with engine events
        # instead of forcing a per-event flush between clock() calls.
        tracer = sim.tracer
        tracer.begin_batch()
        try:
            while sim.clock_value - start_cycle < max_cycles:
                # Send phase: inject until a stall, a bubble or the end.
                if not exhausted:
                    sent, held = inject(
                        next(it, _END) if held is None else held, it, cub
                    )
                    if held is _END:
                        exhausted = True
                    elif not sent and held is not None:
                        stall_cycles += 1
                sim.clock()
                self.drain_responses()
                if exhausted and (not drain or self.outstanding == 0):
                    break
        finally:
            tracer.end_batch()
        return HostRunResult(
            requests_sent=self.sent - start_sent,
            responses_received=self.received - start_recv,
            errors_received=self.errors - start_err,
            cycles=sim.clock_value - start_cycle,
            send_stall_cycles=stall_cycles,
            latencies=self.latencies[lat_mark:],
        )

"""The top-level simulation object (paper §IV–V).

An :class:`HMCSim` instance owns one or more physically homogeneous HMC
devices, a clock domain, a tracer, and the host-side send/recv
interface.  "An application may contain more than one HMC-Sim object in
order to simulate architectural characteristics such as non-uniform
memory access" (§IV.A) — each object clocks independently, analogous to
one memory channel.

Typical usage mirrors the C calling sequence of Fig. 4::

    sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
    sim.attach_host(dev=0, link=0)          # Section B: topology
    pkt = build_memrequest(0, addr, tag, CMD.RD64, link=0)
    sim.send(pkt)                           # Section C: request
    sim.clock()                             # progress one cycle
    rsp = sim.recv()                        # correlate via rsp.tag
    sim.free()                              # Section A: teardown
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.clock import ClockEngine
from repro.core.config import DeviceConfig, SimConfig
from repro.core.device import HMCDevice
from repro.core.errors import (
    HMCError,
    InitError,
    LinkDeadError,
    NoDataError,
    StallError,
    TopologyError,
)
from repro.core.link import EndpointType
from repro.faults.inband import (
    HOST_SENDER,
    TX_DEAD,
    TX_OK,
    InbandLinkState,
    LinkHealth,
)
from repro.packets.flow import LinkTokens
from repro.packets.packet import Packet
from repro.trace.events import EventType, TraceEvent
from repro.trace.tracer import MemorySink, Sink, Tracer

# Plain-int event mask (avoid IntFlag __rand__ in the recv hot path).
_EV_RSP_DELIVERED = int(EventType.RSP_DELIVERED)

LinkPeer = Union[str, Tuple[int, int]]  # "host" or (dev_id, link_id)


class HMCSim:
    """One clock domain of simulated HMC devices plus the host API."""

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        *,
        num_devs: int = 1,
        num_links: int = 4,
        num_vaults: int = -1,
        queue_depth: int = 64,
        num_banks: int = 8,
        num_drams: int = 8,
        capacity: int = 2,
        xbar_depth: int = 128,
        ecc_enabled: bool = False,
        trace_mask: EventType = EventType.NONE,
        **engine_kw,
    ) -> None:
        if config is None:
            device = DeviceConfig(
                num_links=num_links,
                num_vaults=num_vaults,
                num_banks=num_banks,
                num_drams=num_drams,
                capacity=capacity,
                queue_depth=queue_depth,
                xbar_depth=xbar_depth,
                ecc_enabled=ecc_enabled,
            )
            config = SimConfig(device=device, num_devs=num_devs, **engine_kw)
        elif engine_kw:
            raise InitError("pass engine options via SimConfig or kwargs, not both")
        self.config = config
        self.devices: List[HMCDevice] = [
            HMCDevice(i, config.device) for i in range(config.num_devs)
        ]
        self.clock_value: int = 0
        self.tracer = Tracer(mask=trace_mask)
        self.engine = ClockEngine(self)
        if config.device.ecc_enabled:
            # Deferred import: the RAS subsystem never loads (and costs
            # nothing) in the default unprotected configuration.
            from repro.ras.controller import RasController

            for d in self.devices:
                d.ras = RasController(d, config, self.tracer)
        #: Enforce one structural hop per sub-cycle stage (paper §IV.C).
        self.enforce_hop_limit = True

        # Topology state.  The epoch bumps on every topology mutation so
        # the clock engine can refresh its cached root/child lists and
        # queue activity bindings lazily.
        self._topology_epoch = 0
        self._link_peers: Dict[Tuple[int, int], LinkPeer] = {}
        self._routes: Optional[Dict[int, Dict[int, Tuple[int, int, int]]]] = None
        self._host_links: List[Tuple[int, int]] = []
        self._recv_rotor = 0

        # Flow control (enabled when link_token_flits > 0).
        self._tokens: Dict[Tuple[int, int], LinkTokens] = {}
        self._outstanding_flits: Dict[Tuple[int, int, int], int] = {}

        # In-band link fault states (repro.faults.inband): one state per
        # physical link, registered under every endpoint key so both
        # sides of a chain link resolve to the same object.  Empty dict
        # ⇒ every hot-path gate short-circuits on a falsy check and the
        # simulation is bit-identical to a fault-free build.
        self._link_faults: Dict[Tuple[int, int], InbandLinkState] = {}
        self._link_fault_states: List[InbandLinkState] = []
        self.link_failures = 0
        self.watchdog_trips = 0

        # Host-side statistics.
        self.packets_sent = 0
        self.packets_received = 0
        self.send_stalls = 0
        self.dropped_responses = 0
        self._freed = False

    # ==================================================================
    # Topology initialisation (paper §V.B).
    # ==================================================================

    @property
    def host_cub(self) -> int:
        """The host's cube id: ``num_devices + 1`` (§V.B)."""
        return self.config.host_cub

    def attach_host(self, dev: int, link: int) -> None:
        """Configure (dev, link) as a host connection.

        "If the device link is connected to a host device, the source
        link is always configured as the host-side connection."
        """
        self._check_dev_link(dev, link)
        l = self.devices[dev].links[link]
        if l.configured:
            raise TopologyError(f"dev {dev} link {link} already configured")
        l.src_cub = self.host_cub
        l.src_type = EndpointType.HOST
        l.dst_cub = dev
        l.dst_type = EndpointType.DEVICE
        self._link_peers[(dev, link)] = "host"
        self._host_links.append((dev, link))
        if self.config.link_token_flits > 0:
            self._tokens[(dev, link)] = LinkTokens(self.config.link_token_flits)
        if self.config.link_ber or self.config.link_drop_rate:
            self._auto_attach_link_fault([(dev, link)])
        self._routes = None
        self._topology_epoch += 1

    def connect(self, dev_a: int, link_a: int, dev_b: int, link_b: int) -> None:
        """Chain two devices: dev_a.link_a <-> dev_b.link_b.

        Loopbacks are rejected: they "have a high probability of
        inducing zombie response requests that never reach a reasonable
        destination" (§V.B).  Both devices must live in this HMCSim
        object — cross-object links are unsupported by design.
        """
        self._check_dev_link(dev_a, link_a)
        self._check_dev_link(dev_b, link_b)
        if dev_a == dev_b:
            raise TopologyError(f"loopback link on device {dev_a} is not permitted")
        la = self.devices[dev_a].links[link_a]
        lb = self.devices[dev_b].links[link_b]
        if la.configured or lb.configured:
            raise TopologyError("one of the link endpoints is already configured")
        la.src_cub, la.src_type = dev_a, EndpointType.DEVICE
        la.dst_cub, la.dst_type = dev_b, EndpointType.DEVICE
        lb.src_cub, lb.src_type = dev_b, EndpointType.DEVICE
        lb.dst_cub, lb.dst_type = dev_a, EndpointType.DEVICE
        self._link_peers[(dev_a, link_a)] = (dev_b, link_b)
        self._link_peers[(dev_b, link_b)] = (dev_a, link_a)
        if self.config.link_ber or self.config.link_drop_rate:
            self._auto_attach_link_fault([(dev_a, link_a), (dev_b, link_b)])
        self._routes = None
        self._topology_epoch += 1

    def link_config(
        self,
        dev: int,
        link: int,
        src_cub: int,
        dst_cub: int,
        link_type: str = "host",
    ) -> None:
        """Low-level C-style per-link configuration (Fig. 4, Section B).

        ``link_type`` is ``"host"`` (src is the host) or ``"device"``
        (chain to device ``dst_cub``; the peer link on the far device
        must be configured by a matching call and is paired by this
        function when it already exists).
        """
        if link_type == "host":
            if src_cub != self.host_cub:
                raise TopologyError(
                    f"host-side connections use cube id {self.host_cub} (num_devs+1), "
                    f"got {src_cub}"
                )
            self.attach_host(dev, link)
            return
        if link_type != "device":
            raise TopologyError(f"link_type must be 'host' or 'device', got {link_type!r}")
        if not 0 <= dst_cub < len(self.devices):
            raise TopologyError(f"dst_cub {dst_cub} is not a device in this object")
        # Find an unconfigured link on the destination to pair with; the
        # caller may also issue the mirrored call explicitly, which will
        # then find this link already configured and verify the pairing.
        self._check_dev_link(dev, link)
        la = self.devices[dev].links[link]
        if la.configured:
            raise TopologyError(f"dev {dev} link {link} already configured")
        peer = self.devices[dst_cub]
        for pl in peer.links:
            if not pl.configured:
                self.connect(dev, link, dst_cub, pl.link_id)
                return
        raise TopologyError(f"device {dst_cub} has no free link to pair with")

    def _check_dev_link(self, dev: int, link: int) -> None:
        if not 0 <= dev < len(self.devices):
            raise TopologyError(f"device id {dev} out of range")
        if not 0 <= link < self.config.device.num_links:
            raise TopologyError(f"link id {link} out of range")

    def validate_topology(self) -> None:
        """Check the invariants §V.B mandates.

        At least one device must connect to a host link — "otherwise,
        the host will have no access to main memory."  (Unreachable
        devices are permitted: deliberately broken topologies simulate
        with error responses rather than failing here.)
        """
        if not self._host_links:
            raise TopologyError("no host link configured; the host has no memory access")

    def host_links(self) -> List[Tuple[int, int]]:
        """All (dev, link) pairs attached to the host."""
        return list(self._host_links)

    def link_peer(self, dev: int, link: int) -> Optional[LinkPeer]:
        """The far end of (dev, link): "host", (dev, link), or None."""
        return self._link_peers.get((dev, link))

    # ==================================================================
    # Routing.
    # ==================================================================

    def _build_routes(self) -> None:
        """BFS next-hop tables over the chain-link graph.

        ``routes[src_dev][target_dev] = (egress_link, peer_dev, peer_link)``.
        Links whose in-band fault state degraded to FAILED are excluded,
        so surviving paths reroute around dead links automatically.
        """
        routes: Dict[int, Dict[int, Tuple[int, int, int]]] = {}
        adj: Dict[int, List[Tuple[int, int, int]]] = {d.dev_id: [] for d in self.devices}
        link_faults = self._link_faults
        for (dev, link), peer in self._link_peers.items():
            if peer == "host":
                continue
            if link_faults:
                state = link_faults.get((dev, link))
                if state is not None and state.health is LinkHealth.FAILED:
                    continue
            pd, pl = peer
            adj[dev].append((link, pd, pl))
        for src in adj:
            table: Dict[int, Tuple[int, int, int]] = {}
            # BFS from src; record first hop toward every reachable dev.
            visited = {src}
            frontier = deque()
            for link, pd, pl in sorted(adj[src]):
                if pd not in visited:
                    visited.add(pd)
                    table[pd] = (link, pd, pl)
                    frontier.append((pd, (link, pd, pl)))
            while frontier:
                node, first_hop = frontier.popleft()
                for _, pd, _ in sorted(adj[node]):
                    if pd not in visited:
                        visited.add(pd)
                        table[pd] = first_hop
                        frontier.append((pd, first_hop))
            routes[src] = table
        self._routes = routes

    def next_hop(self, src_dev: int, target_cub: int) -> Optional[Tuple[int, int, int]]:
        """First hop from *src_dev* toward *target_cub*, or None.

        Returns ``(egress_link, peer_dev, peer_link)``.  Unknown cube
        ids (including the host id used as a memory target) and
        unreachable devices return None — the crossbar then raises a
        misroute error response.
        """
        if self._routes is None:
            self._build_routes()
        if not 0 <= target_cub < len(self.devices):
            return None
        return self._routes.get(src_dev, {}).get(target_cub)

    # ==================================================================
    # Host interface: send / recv / clock (paper §V.C).
    # ==================================================================

    def send(self, pkt: Packet, dev: Optional[int] = None, link: Optional[int] = None) -> None:
        """Inject a fully formed request packet at a host link.

        The ingress link defaults to the packet's SLID field; the device
        defaults to the (first) root device exposing that link to the
        host.  Raises :class:`StallError` when the crossbar arbitration
        queue is full, link tokens are exhausted or the link's in-band
        gate is in a replay window — the host should clock the
        simulation and retry (paper §VI.A) — and :class:`LinkDeadError`
        once that link has failed.
        """
        if self._freed:
            self._check_alive()
        if pkt.is_response:
            raise HMCError("hosts send request packets; responses flow device->host")
        if link is None:
            link = pkt.slid
        if dev is None:
            dev = self._find_host_dev(link)
        if self._link_peers.get((dev, link)) != "host":
            raise TopologyError(f"dev {dev} link {link} is not attached to the host")
        if not self._host_links:
            self.validate_topology()
        device = self.devices[dev]
        rq = device.xbars[link].rqst
        if len(rq._q) >= rq.depth:
            self.send_stalls += 1
            raise StallError(f"crossbar request queue full on dev {dev} link {link}")
        tokens = None
        if self._tokens:
            tokens = self._tokens.get((dev, link))
            if tokens is not None and not tokens.can_send(pkt.num_flits):
                self.send_stalls += 1
                raise StallError(f"link tokens exhausted on dev {dev} link {link}")
        cycle = self.clock_value
        if self._link_faults:
            # In-band fault path: the transmission runs the link retry
            # protocol in real simulated time.  A failure opens a replay
            # window — the host sees a stall, clocks, and retries, so
            # recovery cycles land in the total cycle count.
            state = self._link_faults.get((dev, link))
            if state is not None:
                status = state.try_transmit(HOST_SENDER, pkt, cycle, self.tracer)
                if status is not TX_OK:
                    if status is TX_DEAD:
                        raise self._host_link_dead(state, dev, link)
                    self.send_stalls += 1
                    raise StallError(
                        f"link {link} on dev {dev} in retry/replay window"
                    )
        flits = pkt.num_flits
        if tokens is not None:
            tokens.consume(flits)
            if pkt.expects_response:
                self._outstanding_flits[(dev, link, pkt.tag)] = flits
            else:
                # Posted traffic: credit returns when the device logically
                # consumes the packet; approximated as immediate return.
                tokens.restore(flits)
        pkt.injected_at = cycle
        pkt.ingress_link = link
        pkt.src_cub = self.host_cub
        pkt.route_stack = [(dev, link)]
        device.links[link].count_rx(flits)
        rq.push(pkt, cycle)
        self.packets_sent += 1

    def _host_link_dead(self, state: InbandLinkState, dev: int, link: int) -> LinkDeadError:
        """Note a host link's gate reporting FAILED; the error to raise."""
        self._note_link_failure(state)
        return LinkDeadError(
            f"host link {link} on dev {dev} has failed", report=self.link_report()
        )

    def try_send(self, pkt: Packet, dev: Optional[int] = None, link: Optional[int] = None) -> bool:
        """Like :meth:`send` but returns False instead of raising on stall."""
        try:
            self.send(pkt, dev=dev, link=link)
            return True
        except StallError:
            return False

    def _find_host_dev(self, link: int) -> int:
        for d, l in self._host_links:
            if l == link:
                return d
        raise TopologyError(f"no host connection on link {link} of any device")

    def can_send(self, dev: int, link: int, flits: int = 1) -> bool:
        """True iff a *flits*-FLIT packet would be accepted right now."""
        if self._link_peers.get((dev, link)) != "host":
            return False
        if self.devices[dev].xbars[link].rqst.is_full:
            return False
        tokens = self._tokens.get((dev, link))
        if tokens is not None and not tokens.can_send(flits):
            return False
        if self._link_faults:
            state = self._link_faults.get((dev, link))
            if state is not None and not state.ready_for(
                HOST_SENDER, self.clock_value
            ):
                return False
        return True

    def recv(self, dev: Optional[int] = None, link: Optional[int] = None) -> Packet:
        """Pop one response packet from a host-visible response queue.

        With no (dev, link) given, host links are polled round-robin.
        Responses "may arrive out of order.  It is up to the calling
        application to decode and correlate the response packet
        information" via the echoed tag (paper §V.C).  Raises
        :class:`NoDataError` when nothing is pending.
        """
        self._check_alive()
        if dev is None and link is None:
            links = self._host_links
            n = len(links)
            if not n:
                raise TopologyError("no host link configured")
            rotor = self._recv_rotor % n  # stale after topology growth
            self._recv_rotor = rotor + 1 if rotor + 1 < n else 0
        elif dev is None or link is None:
            raise HMCError("recv needs both dev and link, or neither")
        elif self._link_peers.get((dev, link)) != "host":
            raise TopologyError(f"dev {dev} link {link} is not attached to the host")
        else:
            links, n, rotor = ((dev, link),), 1, 0
        pkt = self._poll(links, n, rotor)
        if pkt is None:
            raise NoDataError("no response packets pending")
        return pkt

    def recv_all(self) -> List[Packet]:
        """Drain every pending host-visible response: the poll ``recv()``
        makes, repeated until one finds nothing — the rotor advancing
        once per poll, the terminal empty one included."""
        self._check_alive()
        links = self._host_links
        n = len(links)
        if not n:
            raise TopologyError("no host link configured")
        out: List[Packet] = []
        poll = self._poll
        while True:
            rotor = self._recv_rotor % n  # stale after topology growth
            self._recv_rotor = rotor + 1 if rotor + 1 < n else 0
            pkt = poll(links, n, rotor)
            if pkt is None:
                return out
            out.append(pkt)

    def _poll(self, links, n: int, rotor: int) -> Optional[Packet]:
        """One delivery poll: pop the first head response of the *n*
        *links*, scanned from *rotor* on, whose link's in-band gate —
        when one is attached — lets it cross; None when none can.

        Device→host delivery crosses the link in-band: a failed
        transmission keeps the response queued for the replay window; a
        dead link strands it.
        """
        devices = self.devices
        link_faults = self._link_faults
        for i in range(rotor, rotor + n):
            d, l = links[i - n if i >= n else i]
            rsp = devices[d].xbars[l].rsp
            if not rsp._q:
                continue
            if link_faults:
                state = link_faults.get((d, l))
                if state is not None:
                    if state.health is LinkHealth.FAILED:
                        continue
                    status = state.try_transmit(
                        (d, l), rsp._q[0], self.clock_value, self.tracer
                    )
                    if status is not TX_OK:
                        if status is TX_DEAD:
                            self._note_link_failure(state)
                        continue
            pkt = rsp.pop()
            pkt.completed_at = self.clock_value
            pkt.delivered_from = (d, l)
            devices[d].links[l].count_tx(pkt.num_flits)
            self.packets_received += 1
            if self._tokens:
                tokens = self._tokens.get((d, l))
                if tokens is not None:
                    flits = self._outstanding_flits.pop((d, l, pkt.tag), 0)
                    if flits:
                        tokens.restore(flits)
            if self.tracer.live_mask & _EV_RSP_DELIVERED:
                self.tracer.emit_fast(
                    _EV_RSP_DELIVERED, self.clock_value, d, l, -1, -1, -1, -1,
                    pkt.serial, None,
                )
            return pkt
        return None

    def clock(self, cycles: int = 1) -> None:
        """Advance the clock domain by *cycles* full clock cycles.

        "Without this call, external memory operations may progress
        until appropriate stall signals are recognized.  However,
        internal device operations will not progress" (§V.C).
        """
        if self._freed:
            self._check_alive()
        self._check_cycles(cycles)
        if not self._host_links:
            self.validate_topology()
        self.engine.advance(cycles)

    def _check_cycles(self, cycles: int) -> None:
        """Reject a cycle count that is not a non-negative ``int``."""
        if not isinstance(cycles, int) or cycles < 0:
            raise HMCError(f"cycle count must be a non-negative int, got {cycles!r}")

    def run(self, cycles: int) -> None:
        """Batched stepping: advance *cycles* cycles in one call.

        Alias of :meth:`clock` with a required cycle count — the
        preferred spelling for long idle or drain windows, where the
        engine fast-forwards dead stretches in closed form instead of
        ticking them one by one (the tests' reference does the latter).
        """
        self.clock(cycles)

    def clock_until_response(self, max_cycles: int, stop=None) -> int:
        """Clock until a host link holds a response; return cycles advanced.

        Advances at least one cycle and returns at the end of the first
        cycle that leaves a host-link response queue non-empty — where a
        ``clock(); recv_all()`` loop would first see one — or after
        *max_cycles*.  It is one engine run that asks after every tick (a
        fast-forwarded cycle queues nothing); a response already queued —
        one the link holds back for an in-band replay — makes it a
        one-cycle step: re-poll, never spin.

        *stop*, a no-argument callable, is asked after every tick before
        the queues are looked at: it may receive what they hold (the
        service's shard drains its slots there), and a true answer ends
        the wait at that cycle.
        """
        self._check_alive()
        self._check_cycles(max_cycles)
        if not self._host_links:
            self.validate_topology()
        pending = self._response_pending
        if pending():
            max_cycles = min(max_cycles, 1)
        until = pending if stop is None else lambda: stop() or pending()
        return self.engine.advance(max_cycles, until)

    def _response_pending(self) -> bool:
        """True iff any host-link response queue holds a packet."""
        devices = self.devices
        for d, l in self._host_links:
            if devices[d].xbars[l].rsp._q:
                return True
        return False

    def clock_until(self, pred, max_cycles: int = 1_000_000) -> int:
        """Clock until ``pred(self)`` is true; return cycles advanced.

        The predicate is evaluated before each cycle (so a predicate
        that already holds advances zero cycles) with single-cycle
        precision.  Raises :class:`HMCError` if *max_cycles* cycles pass
        without the predicate holding.
        """
        self._check_alive()
        self._check_cycles(max_cycles)
        self.validate_topology()
        advanced = 0
        while not pred(self):
            if advanced >= max_cycles:
                raise HMCError(
                    f"clock_until: predicate still false after {max_cycles} cycles"
                )
            self.engine.advance(1)
            advanced += 1
        return advanced

    @property
    def is_quiescent(self) -> bool:
        """True iff no queue anywhere holds a schedulable packet.

        Host-visible response queues do not count — those wait on the
        host's ``recv``, not on the clock.
        """
        return all(d.is_idle() for d in self.devices)

    # ==================================================================
    # Link-error simulation (paper §IV.5 "error simulation").
    # ==================================================================

    def attach_link_fault(
        self,
        dev: int,
        link: int,
        model,
        max_retries: Optional[int] = None,
        retry_delay: Optional[int] = None,
    ) -> InbandLinkState:
        """Attach an in-band fault state to any *configured* link.

        The state attaches to the physical link — host or chain — and
        every in-simulation traversal of that link runs through it,
        consuming real simulated cycles on failure.  For a chain link,
        one shared state is registered under both endpoint keys.
        Returns the created
        :class:`~repro.faults.inband.InbandLinkState`.
        """
        peer = self._link_peers.get((dev, link))
        if peer is None:
            raise TopologyError(
                f"dev {dev} link {link} is not configured; in-band fault "
                f"states attach to configured links"
            )
        if (dev, link) in self._link_faults:
            raise TopologyError(
                f"dev {dev} link {link} already has an in-band fault state"
            )
        endpoints = [(dev, link)]
        if peer != "host":
            endpoints.append(peer)
        state = InbandLinkState(
            endpoints,
            model,
            max_retries=(
                max_retries
                if max_retries is not None
                else self.config.link_max_retries
            ),
            retry_delay=(
                retry_delay
                if retry_delay is not None
                else self.config.link_retry_delay
            ),
        )
        for ep in state.endpoints:
            self._link_faults[ep] = state
            self.devices[ep[0]].links[ep[1]].fault_state = state
        self._link_fault_states.append(state)
        return state

    def _auto_attach_link_fault(self, endpoints) -> None:
        """Config-driven attach (``link_ber`` / ``link_drop_rate``).

        The per-link seed derives deterministically from the canonical
        endpoint, so a given topology + config reproduces the same fault
        stream on the engine and on the tests' reference.
        """
        from repro.faults.link_model import LinkFaultModel

        cfg = self.config
        dev, link = endpoints[0]
        seed = cfg.link_seed * 1_000_003 + dev * 97 + link
        model = LinkFaultModel(
            ber=cfg.link_ber, drop_rate=cfg.link_drop_rate, seed=seed
        )
        self.attach_link_fault(dev, link, model)

    def _note_link_failure(self, state: InbandLinkState) -> None:
        """React (once) to a link reaching FAILED: reroute around it."""
        if state.failure_handled:
            return
        state.failure_handled = True
        self.link_failures += 1
        # Invalidate next-hop tables; the rebuild excludes FAILED links,
        # so queued traffic reroutes where a path survives and misroutes
        # (error response to the host) where none does.
        self._routes = None

    def link_report(self) -> dict:
        """Structured run-report of every in-band link fault state."""
        report = {
            "cycle": self.clock_value,
            "link_failures": self.link_failures,
            "links": {
                f"dev{s.endpoints[0][0]}.link{s.endpoints[0][1]}": s.report()
                for s in self._link_fault_states
            },
        }
        if self._tokens:
            report["tokens"] = {
                f"dev{d}.link{l}": {
                    "available": t.available,
                    "capacity": t.capacity,
                }
                for (d, l), t in sorted(self._tokens.items())
            }
        return report

    # ==================================================================
    # Out-of-band register access (paper §V.D).
    # ==================================================================

    def jtag_reg_read(self, dev: int, phys: int) -> int:
        """Side-band register read: no packets, no clock progression."""
        self._check_alive()
        return self.devices[dev].jtag.reg_read(phys)

    def jtag_reg_write(self, dev: int, phys: int, value: int) -> None:
        """Side-band register write (class rules still enforced)."""
        self._check_alive()
        self.devices[dev].jtag.reg_write(phys, value)

    # ==================================================================
    # Tracing configuration (paper §IV.E).
    # ==================================================================

    def set_trace_mask(self, mask: EventType) -> None:
        """Set the tracing verbosity."""
        self.tracer.mask = mask

    def add_trace_sink(self, sink: Sink) -> Sink:
        """Attach an output sink (memory, NDJSON, CSV, stats...)."""
        return self.tracer.add_sink(sink)

    def trace_to_memory(self, mask: EventType = EventType.STANDARD) -> MemorySink:
        """Convenience: enable tracing into a fresh in-memory sink."""
        self.tracer.mask = mask
        return self.tracer.add_sink(MemorySink())

    # ==================================================================
    # Introspection / teardown.
    # ==================================================================

    @property
    def pending_packets(self) -> int:
        """Packets queued anywhere across all devices."""
        return sum(d.pending_packets() for d in self.devices)

    @property
    def in_flight(self) -> int:
        """Requests sent but not yet received back (incl. posted)."""
        return self.packets_sent - self.packets_received

    def stats(self) -> Dict[str, int]:
        """Aggregate counters across the simulation object."""
        out = {
            "cycles": self.clock_value,
            "packets_sent": self.packets_sent,
            "packets_received": self.packets_received,
            "send_stalls": self.send_stalls,
            "dropped_responses": self.dropped_responses,
            "bank_conflicts": sum(d.total_bank_conflicts for d in self.devices),
            "xbar_stalls": sum(d.total_xbar_stalls for d in self.devices),
            "latency_penalties": sum(d.total_latency_penalties for d in self.devices),
            "requests_processed": sum(d.total_requests_processed for d in self.devices),
        }
        if any(d.ras is not None for d in self.devices):
            out["ras"] = {
                d.dev_id: d.ras.stats() for d in self.devices if d.ras is not None
            }
        if self._link_fault_states:
            out["link_failures"] = self.link_failures
            out["watchdog_trips"] = self.watchdog_trips
            out["link_faults"] = {
                f"dev{s.endpoints[0][0]}.link{s.endpoints[0][1]}": s.stats_dict()
                for s in self._link_fault_states
            }
        return out

    def reset(self) -> None:
        """Reset devices and clock; topology is preserved (§V.A)."""
        self._check_alive()
        for d in self.devices:
            d.reset()
        self.engine.reset()
        self.clock_value = 0
        self._recv_rotor = 0
        self.packets_sent = 0
        self.packets_received = 0
        self.send_stalls = 0
        self.dropped_responses = 0
        self._outstanding_flits.clear()
        for t in self._tokens.values():
            t.available = t.capacity
        if self._link_fault_states:
            for s in self._link_fault_states:
                s.reset()
            self.link_failures = 0
            self.watchdog_trips = 0
            self._routes = None

    def free(self) -> None:
        """Release the simulation (C-API parity); further use raises."""
        self.tracer.close()
        self.devices.clear()
        self._freed = True

    def _check_alive(self) -> None:
        if self._freed:
            raise HMCError("simulation object has been freed")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HMCSim({len(self.devices)} x {self.config.device.label()}, "
            f"cycle={self.clock_value})"
        )

"""The Python host lane the C replaced: the oracle for the C one.

``Host._inject`` (a burst: link pick, tag take, ``PendingRequest`` bind,
request build, serial draw, room check, host-link gate and push),
``build_memrequest``, ``HMCSim.send``, ``HMCSim.recv`` / ``recv_all`` /
``_poll`` and ``Host.drain_responses`` are C
(``src/repro/core/_vaultwalk.c``).  This module is their Python as it
stood before the move, verbatim: :func:`build_memrequest` with its
request-layout cache, :class:`ReferenceSim` carrying ``send``,
``recv``, ``recv_all`` and ``_poll``, and :class:`ReferenceHost`
carrying ``_inject`` and ``drain_responses``.  One edit since: the
inject body's inlined-lane test names ``ReferenceSim.send`` where it
named ``HMCSim.send``, so an adopted simulator keeps the inlined lane
and a subclass that overrides ``send`` still leaves it.

:func:`adopt` puts a host and its simulator under the reference (a
class assignment: the state is kept).  ``tests/test_host_reference.py``
drives twins, one adopted, and requires identical state after every
cycle.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import (
    HMCError,
    LinkDeadError,
    NoDataError,
    StallError,
    TopologyError,
)
from repro.core.simulator import HMCSim
from repro.faults.inband import HOST_SENDER, TX_DEAD, TX_OK, LinkHealth
from repro.host.host import _END, Host, LinkPolicy, PendingRequest
from repro.packets.commands import CMD, is_posted, is_response, request_flits
from repro.packets.packet import (
    _MASK64,
    _ZERO_WORDS,
    MAX_ADRS,
    MAX_CUB,
    MAX_TAG,
    ErrStat,
    Packet,
    _class_info,
    _fast_new,
)
from repro.trace.events import EventType

#: Posted commands: they take no tag and get no response.
_POSTED = frozenset(c for c in CMD if is_posted(c))

# Plain-int event mask (avoid IntFlag __rand__ in the recv hot path).
_EV_RSP_DELIVERED = int(EventType.RSP_DELIVERED)

#: Request-layout cache: cmd -> (CMD, payload word count, class info).
_REQ_CACHE: dict = {}


def build_memrequest(
    cub: int,
    addr: int,
    tag: int,
    cmd: CMD,
    payload: Optional[Sequence[int]] = None,
    link: int = 0,
) -> Packet:
    """Build a fully formed, compliant request packet.

    Mirrors the C library's ``hmcsim_build_memrequest`` (Fig. 4): the
    caller supplies target cube, physical address, tag, command and — for
    write/atomic commands — the data payload as 64-bit words.  For
    commands that carry data, the payload is zero-filled or truncated to
    the exact FLIT count the command requires, matching the C behaviour
    of reading a caller buffer of the prescribed length.
    """
    info = _REQ_CACHE.get(cmd)
    if info is None:
        if cmd.__class__ is not CMD:
            cmd = CMD(cmd)
        if is_response(cmd):
            raise ValueError(f"{cmd.name} is a response command")
        need_words = (request_flits(cmd) - 1) * 2
        info = (cmd, need_words, _class_info(cmd))
        _REQ_CACHE[cmd] = info
    cmd, need_words, cls_info = info
    if payload:
        words = [int(w) & _MASK64 for w in payload]
        if len(words) < need_words:
            words += [0] * (need_words - len(words))
        payload = tuple(words[:need_words])
    else:
        payload = _ZERO_WORDS[need_words]
    if not 0 <= tag <= MAX_TAG:
        raise ValueError(f"tag out of range: {tag}")
    if not 0 <= addr <= MAX_ADRS:
        raise ValueError(f"address out of range: {addr:#x}")
    if not 0 <= cub <= MAX_CUB:
        raise ValueError(f"cube id out of range: {cub}")
    return _fast_new(cmd, cub, tag, addr, payload, link, 0, cls_info)


class ReferenceSim(HMCSim):
    """A simulator whose host-link send and delivery poll are Python."""

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
        if pkt.serial < 0:  # first sight: a retried packet keeps its number
            pkt.serial = self.tracer.next_serial
            self.tracer.next_serial += 1
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


class ReferenceHost(Host):
    """A host whose inject burst and response drain are Python."""

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
        inline = type(sim).send is ReferenceSim.send and not (sim._freed or sim._tokens)
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


def adopt(host: Host) -> Host:
    """Put *host* and its simulator under the reference; returns *host*.

    The simulator must be an ``HMCSim`` (not a subclass; adopted already
    when it serves another adopted host) and the host a ``Host``: the
    swap is a class assignment, so every counter, queue and pool is kept.
    """
    assert type(host) is Host and type(host.sim) in (HMCSim, ReferenceSim)
    host.sim.__class__ = ReferenceSim
    host.__class__ = ReferenceHost
    return host

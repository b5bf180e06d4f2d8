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

from repro.core.errors import LinkDeadError, NoDataError, StallError, TopologyError
from repro.core.quad import quad_of_vault
from repro.core.simulator import HMCSim
from repro.packets.commands import CMD, is_posted
from repro.packets.packet import ErrStat, Packet, build_memrequest


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
        self._rng = np.random.default_rng(seed)
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
        if self.policy is LinkPolicy.ROUND_ROBIN:
            links = self._host_links
            dev, link = links[self._rotor % len(links)]
            self._rotor += 1
        else:
            dev, link = self._pick_link(cub, addr)
        pool = self.tag_pools[(dev, link)]
        posted = is_posted(cmd)
        tag = 0
        if not posted:
            ctx = PendingRequest(
                cmd=cmd, addr=addr, dev=dev, link=link, sent_cycle=self.sim.clock_value
            )
            t = pool.allocate(context=ctx)
            if t is None:
                return None
            tag = t
        accepted = False
        try:
            pkt = build_memrequest(cub, addr, tag, cmd, payload=payload, link=link)
            self.sim.send(pkt, dev=dev, link=link)
            accepted = True
        except StallError:
            return None
        except LinkDeadError:
            # The link degraded to FAILED: fail over to the surviving
            # host links.  Requests already outstanding on the dead link
            # are stranded (the engine watchdog converts that into a
            # typed abort when armed); with no survivor the typed error
            # propagates to the caller.
            self._host_links = [hl for hl in self._host_links if hl != (dev, link)]
            if not self._host_links:
                raise
            return None
        finally:
            # The builder and send both raise before enqueueing, so on
            # any failure the tag goes back: a leaked tag holds
            # `outstanding` above zero and a draining run() never ends.
            if not accepted and not posted:
                pool.release(tag)
        self.sent += 1
        # Exposed for wrappers that need the full correlation key.
        self.last_send = (dev, link, tag)
        return tag

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
            responses = []
            for d, l in self._host_links:
                queue = sim.devices[d].xbars[l].rsp._q
                while queue:
                    try:
                        responses.append(sim.recv(dev=d, link=l))
                    except NoDataError:
                        break  # head held back by an in-band replay window
        else:
            responses = self.sim.recv_all()
        for rsp in responses:
            self.received += 1
            pool = self.tag_pools.get(rsp.delivered_from)
            try:
                if pool is None:
                    raise KeyError(rsp.delivered_from)
                ctx: PendingRequest = pool.release(rsp.tag)
            except KeyError:
                # Response with an unknown tag or from an unknown link
                # (e.g. after host restart): count as an error and move on.
                self.errors += 1
                continue
            if rsp.errstat is not ErrStat.OK or rsp.cmd == CMD.ERROR:
                self.errors += 1
                self.error_stats[int(rsp.errstat)] = (
                    self.error_stats.get(int(rsp.errstat), 0) + 1
                )
            if ctx is not None:
                self.latencies.append(self.sim.clock_value - ctx.sent_cycle)
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

        *requests* yields ``(cmd, addr, payload)`` tuples; *cub* selects
        the target cube for the whole stream.
        """
        it: Iterator = iter(requests)
        pending_item: Optional[Tuple] = None
        exhausted = False
        start_cycle = self.sim.clock_value
        start_sent = self.sent
        start_recv = self.received
        start_err = self.errors
        lat_mark = len(self.latencies)
        stall_cycles = 0

        # One outer trace-batch window for the whole drive loop, so
        # host-boundary events (RSP_DELIVERED) batch with engine events
        # instead of forcing a per-event flush between clock() calls.
        tracer = self.sim.tracer
        tracer.begin_batch()
        try:
            while self.sim.clock_value - start_cycle < max_cycles:
                # Send phase: inject until stall / exhaustion.
                sent_this_cycle = 0
                while True:
                    if pending_item is None:
                        try:
                            pending_item = next(it)
                        except StopIteration:
                            exhausted = True
                            break
                    cmd, addr, payload = pending_item
                    tag = self.send_request(cmd, addr, cub=cub, payload=payload)
                    if tag is None:
                        break  # stall: retry this item next cycle
                    pending_item = None
                    sent_this_cycle += 1
                if sent_this_cycle == 0 and not exhausted:
                    stall_cycles += 1
                self.sim.clock()
                self.drain_responses()
                if exhausted and pending_item is None:
                    if not drain or self.outstanding == 0:
                        break
        finally:
            tracer.end_batch()
        return HostRunResult(
            requests_sent=self.sent - start_sent,
            responses_received=self.received - start_recv,
            errors_received=self.errors - start_err,
            cycles=self.sim.clock_value - start_cycle,
            send_stall_cycles=stall_cycles,
            latencies=self.latencies[lat_mark:],
        )

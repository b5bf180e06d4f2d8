"""Crossbar units — the first-level logic layer (paper §III.A, §IV.A).

"Crossbar units are analogous to the first-level logic layer present in
an HMC device.  They simulate the queuing mechanisms present in the
crossbar unit between device links and device vault controllers.
Crossbar units contain the request and response queues for the
respective device that are accessible from the host."

Each link owns one crossbar unit.  Per sub-cycle stage the unit walks
its request queue and routes packets to local vaults or toward remote
(chained) devices, raising trace events for misroutes, congestion stalls
and locality (routed-latency) penalties — exactly the three conditions
§IV.C.1/2 enumerates.

The walk, ``CrossbarUnit.route_requests``, is C (``_vaultwalk.c``, beside
the vault walk and stage 5's response registration); it calls back the
two Python methods here: :meth:`CrossbarUnit._reject` for an error
response and :meth:`CrossbarUnit._expire_zombies` when a queue timeout
is configured.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.queueing import PacketQueue
from repro.packets.packet import ErrStat, Packet, build_response
from repro.trace.events import EventType
from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.device import HMCDevice
    from repro.core.simulator import HMCSim


class CrossbarUnit:
    """Per-link crossbar arbitration queues plus the routing pass."""

    __slots__ = (
        "link_id", "rqst", "rsp",
        "routed_local", "routed_remote", "stall_events",
        "latency_events", "misroutes", "expired",
    )

    def __init__(self, link_id: int, depth: int, name_prefix: str = "") -> None:
        self.link_id = link_id
        self.rqst = PacketQueue(depth, name=f"{name_prefix}link{link_id}.xbar_rqst")
        self.rsp = PacketQueue(depth, name=f"{name_prefix}link{link_id}.xbar_rsp")
        self.routed_local = 0
        self.routed_remote = 0
        self.stall_events = 0
        self.latency_events = 0
        self.misroutes = 0
        self.expired = 0

    # ------------------------------------------------------------------
    # Stage 1 / 2: ``route_requests`` is C (bound below); what it calls
    # back follows.
    # ------------------------------------------------------------------

    def _reject(
        self,
        pkt: Packet,
        device: "HMCDevice",
        cycle: int,
        tracer: Tracer,
        errstat: ErrStat,
    ) -> None:
        """Drop a request, answering with an error response when owed."""
        if not pkt.expects_response:
            return
        rsp = build_response(pkt, errstat=errstat, dinv=1)
        rsp.serial = tracer.next_serial
        tracer.next_serial += 1
        rsp.route_stack = list(pkt.route_stack)
        rsp.injected_at = pkt.injected_at
        # Error responses re-enter the response path at this crossbar; a
        # full response queue drops the packet (zombie prevention).
        if rsp.route_stack and rsp.route_stack[-1][0] == device.dev_id:
            rsp.route_stack.pop()
        self.rsp.push(rsp, cycle)

    def _expire_zombies(
        self, device: "HMCDevice", sim: "HMCSim", cycle: int, tracer: Tracer
    ) -> None:
        for pkt in self.rqst.expire_older_than(cycle, sim.config.queue_timeout):
            self.expired += 1
            tracer.event(
                EventType.PKT_EXPIRED,
                cycle,
                dev=device.dev_id,
                link=self.link_id,
                serial=pkt.serial,
            )
            self._reject(pkt, device, cycle, tracer, ErrStat.QUEUE_TIMEOUT)

    # ------------------------------------------------------------------

    def reset(self) -> None:
        self.rqst.reset()
        self.rsp.reset()
        self.routed_local = 0
        self.routed_remote = 0
        self.stall_events = 0
        self.latency_events = 0
        self.misroutes = 0
        self.expired = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CrossbarUnit(link={self.link_id}, rqst={len(self.rqst)}/"
            f"{self.rqst.depth}, rsp={len(self.rsp)}/{self.rsp.depth})"
        )

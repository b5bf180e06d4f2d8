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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.addressing.address_map import AddressMap
from repro.core.quad import closest_quad_of_link, quad_of_vault
from repro.core.queueing import PacketQueue
from repro.faults.inband import TX_DEAD, TX_OK
from repro.packets.commands import CommandClass
from repro.packets.packet import ErrStat, Packet, build_response
from repro.trace.events import EventType
from repro.trace.tracer import Tracer

# Plain-int event masks: ``int & IntFlag`` invokes the slow Flag
# __rand__ path, so hot guards test against these instead.
_EV_XBAR_RQST_STALL = int(EventType.XBAR_RQST_STALL)
_EV_LATENCY_PENALTY = int(EventType.LATENCY_PENALTY)
_EV_CHAIN_HOP = int(EventType.CHAIN_HOP)

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
    # Stage 1 / 2: request routing.
    # ------------------------------------------------------------------

    def route_requests(
        self,
        device: "HMCDevice",
        sim: "HMCSim",
        cycle: int,
        moves: int,
        tracer: Tracer,
    ) -> int:
        """Walk the request queue and route up to *moves* packets.

        Local packets (CUB == this device) go to their vault's request
        queue; remote packets are forwarded one hop along the chain.
        Weak ordering applies: a remote-destined packet "may pass those
        waiting for local vault access" (§III.C), but local packets never
        pass each other (preserving link→bank stream order).  Returns
        the number of packets moved.
        """
        rqst = self.rqst
        if not rqst._q or moves <= 0:
            return 0
        if sim is not None and sim.config.queue_timeout > 0:
            self._expire_zombies(device, sim, cycle, tracer)
            if not rqst._q:
                return 0
        hop_limit = sim is not None and sim.enforce_hop_limit
        penalty = sim.config.nonlocal_penalty_cycles if sim is not None else 0
        moved = 0
        removed: list = []
        dev_id = device.dev_id
        my_quad = closest_quad_of_link(self.link_id)
        mode_vault = my_quad * 4
        amap = device.amap
        if amap.__class__ is AddressMap:
            vs, vmask, vault_of = amap._vs, amap._vault_mask, None
        else:
            vs, vmask, vault_of = 0, 0, amap.vault_of
        vaults = device.vaults
        num_vaults = len(vaults)
        # Blocked-vault tracking as a bitmask; when every vault is
        # blocked and the address map cannot decode past the structure
        # (classic maps mask, and MODE targets stay in range), the
        # remaining local packets are provably unroutable this cycle and
        # the scan degrades to a cheap remote-only skip.
        blocked = 0
        all_mask = (1 << num_vaults) - 1
        skip_ok = vault_of is None and mode_vault < num_vaults
        stall_trace = tracer.live_mask & _EV_XBAR_RQST_STALL
        lat_trace = tracer.live_mask & _EV_LATENCY_PENALTY
        # Single in-order pass with one batched removal: a positional
        # peek/pop walk pays O(k) deque access per visited slot, O(n^2)
        # per stage on deep queues.
        for pos, (pkt, stamp) in enumerate(zip(rqst._q, rqst._stamps)):
            if moved >= moves:
                break
            if pkt.cub != dev_id:
                # One-hop-per-cycle for chained forwards.
                if hop_limit and cycle - stamp < 1:
                    continue
                if self._route_remote(pkt, device, sim, cycle, tracer):
                    removed.append(pos)
                    moved += 1
                # Remote stall (peer queue full / no route handled
                # inside): leave in place, keep scanning.
                continue
            if blocked == all_mask and skip_ok:
                continue
            cls = pkt.cls
            if cls is CommandClass.MODE_READ or cls is CommandClass.MODE_WRITE:
                # MODE packets carry a register index, not an address:
                # the vault closest to the ingress link's quad services
                # them (in-band register access consumes memory
                # bandwidth, §V.D) — never cached on the packet.
                vault_id = mode_vault
            else:
                vault_id = pkt.dec_vault
                if vault_id < 0:
                    if vault_of is None:
                        vault_id = (pkt.addr >> vs) & vmask
                    else:
                        vault_id = vault_of(pkt.addr)
                    pkt.dec_vault = vault_id
            bit = 1 << vault_id
            if blocked & bit:
                continue
            # Transit time through the registered crossbar input: one
            # cycle, plus the routed-latency penalty when the ingress
            # link is not co-located with the target quad.
            local_quad = vault_id < num_vaults and (
                vault_id >> 2 == my_quad  # quad_of_vault, inlined
            )
            if hop_limit and cycle - stamp < (1 if local_quad else 1 + penalty):
                # Not ready: later same-vault packets must not pass.
                blocked |= bit
                continue
            if vault_id >= num_vaults:
                # Address decoded past the vault structure — deliberate
                # misconfiguration; answer with an error response.
                self._reject(pkt, device, cycle, tracer, ErrStat.INVALID_ADDRESS)
                removed.append(pos)
                moved += 1
                continue
            vq = vaults[vault_id].rqst
            if len(vq._q) >= vq.depth:
                self.stall_events += 1
                blocked |= bit
                if stall_trace:
                    tracer.emit_fast(
                        _EV_XBAR_RQST_STALL, cycle, dev_id, self.link_id,
                        -1, vault_id, -1, -1, pkt.serial, None,
                    )
                continue
            if not local_quad:
                # "Higher latencies are detected due to the physical
                # locality of the queue versus the destination vault"
                # (§IV.C.2).
                self.latency_events += 1
                if lat_trace:
                    tracer.emit_fast(
                        _EV_LATENCY_PENALTY, cycle, dev_id, self.link_id,
                        quad_of_vault(vault_id), vault_id, -1, -1,
                        pkt.serial, None,
                    )
            vq.push(pkt, cycle)
            self.routed_local += 1
            removed.append(pos)
            moved += 1
        if removed:
            rqst.remove_positions(removed)
        return moved

    def _route_remote(
        self,
        pkt: Packet,
        device: "HMCDevice",
        sim: "HMCSim",
        cycle: int,
        tracer: Tracer,
    ) -> bool:
        if sim is None:
            self._reject(pkt, device, cycle, tracer, ErrStat.UNROUTABLE)
            return True
        hop = sim.next_hop(device.dev_id, pkt.cub)
        if hop is None:
            # Misroute: no path to the destination cube.  Per §IV.2 the
            # user receives an error response rather than a crash.
            self.misroutes += 1
            tracer.event(
                EventType.MISROUTE,
                cycle,
                dev=device.dev_id,
                link=self.link_id,
                serial=pkt.serial,
                extra={"target_cub": pkt.cub},
            )
            self._reject(pkt, device, cycle, tracer, ErrStat.UNROUTABLE)
            return True
        egress_link, peer_dev_id, peer_link = hop
        peer = sim.devices[peer_dev_id]
        peer_xbar = peer.xbars[peer_link]
        if peer_xbar.rqst.is_full:
            self.stall_events += 1
            if tracer.live_mask & _EV_XBAR_RQST_STALL:
                tracer.event(
                    EventType.XBAR_RQST_STALL,
                    cycle,
                    dev=device.dev_id,
                    link=self.link_id,
                    serial=pkt.serial,
                    extra={"remote": True, "target_cub": pkt.cub},
                )
            return False
        link_faults = sim._link_faults
        if link_faults:
            state = link_faults.get((device.dev_id, egress_link))
            if state is not None:
                # In-band gate: the chain hop crosses the link retry
                # protocol.  A failed transmission leaves the packet
                # queued for the replay window; a dead link leaves it
                # for rerouting (next_hop now avoids FAILED links) or a
                # misroute error response when no path survives.
                status = state.try_transmit(
                    (device.dev_id, egress_link), pkt, cycle, tracer
                )
                if status is not TX_OK:
                    if status is TX_DEAD:
                        sim._note_link_failure(state)
                    return False
        pkt.route_stack.append((peer_dev_id, peer_link))
        pkt.hops += 1
        pkt.ingress_link = peer_link
        device.links[egress_link].count_tx(pkt.num_flits)
        peer.links[peer_link].count_rx(pkt.num_flits)
        peer_xbar.rqst.push(pkt, cycle)
        self.routed_remote += 1
        if tracer.live_mask & _EV_CHAIN_HOP:
            tracer.event(
                EventType.CHAIN_HOP,
                cycle,
                dev=device.dev_id,
                link=egress_link,
                serial=pkt.serial,
                extra={"to_dev": peer_dev_id, "to_link": peer_link},
            )
        return True

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
        timeout = sim.config.queue_timeout if sim is not None else 0
        if timeout <= 0:
            return
        for pkt in self.rqst.expire_older_than(cycle, timeout):
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

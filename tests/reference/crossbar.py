"""The parent's Python crossbar stages: the oracle for the C ones.

Stages 1, 2 and 5 (``CrossbarUnit.route_requests``, the clock's
routing loop and its response registration) and the loop around the
stage-3/4 walk are C (``src/repro/core/_vaultwalk.c``).  This module is
their Python as it stood before the move, verbatim:
:class:`ReferenceCrossbarUnit` carries ``route_requests`` and
``_route_remote``, :class:`ReferenceEngine` the clock's ``_stage1`` /
``_stage2`` / ``_route_requests``, ``_walk_vaults`` and the three
``_stage34`` steps, and ``_stage5`` with ``_drain_vault_responses``,
``_egress_link_for`` and ``_cross_chain_responses``.  The vault walk
itself (``Vault.stage34``) stays C on both sides; its own oracle is
``tests/reference/vault_walk.py``.  Two edits since: the one-hop-per-cycle
limit is unconditional, as the engine has no switch for it, and the
batched removal of routed packets is that module's Python
:func:`~tests.reference.vault_walk.remove_positions`, not the engine's
C, so a fault in the C cannot move both sides alike.

:func:`adopt` puts a simulator under the reference: its engine becomes a
:class:`ReferenceEngine` (run state kept) and every crossbar a
:class:`ReferenceCrossbarUnit` (same slots, so the swap is a class
assignment).  ``tests/test_crossbar_reference.py`` drives twins, one
adopted, and requires identical state after every tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.addressing.address_map import AddressMap
from repro.core.clock import ClockEngine
from repro.core.crossbar import CrossbarUnit
from repro.core.device import HMCDevice
from repro.core.quad import closest_quad_of_link, quad_of_vault
from repro.faults.inband import TX_DEAD, TX_OK
from repro.packets.commands import CommandClass
from repro.packets.packet import ErrStat, Packet
from repro.trace.events import EventType
from repro.trace.tracer import Tracer
from tests.reference.vault_walk import remove_positions

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import HMCSim

_EV_XBAR_RQST_STALL = int(EventType.XBAR_RQST_STALL)
_EV_LATENCY_PENALTY = int(EventType.LATENCY_PENALTY)
_EV_CHAIN_HOP = int(EventType.CHAIN_HOP)
_EV_PKT_EXPIRED = int(EventType.PKT_EXPIRED)
_EV_XBAR_RSP_STALL = int(EventType.XBAR_RSP_STALL)
_EV_RSP_REGISTERED = int(EventType.RSP_REGISTERED)


class ReferenceCrossbarUnit(CrossbarUnit):
    """A crossbar routing in Python, as before the C."""

    __slots__ = ()

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

        A held link is offered once per walk: once a remote packet's
        egress stalls in its in-band gate (a replay window or HALF-width
        serialization keeps the direction busy past this cycle), later
        remote packets bound for that egress are skipped.  Offering them
        would change nothing: a busy direction's gate returns before it
        touches any stream, counter or pointer, and the peer queue it
        feeds cannot fill meanwhile — only that link pushes into it.
        """
        rqst = self.rqst
        if not rqst._q or moves <= 0:
            return 0
        if sim is not None and sim.config.queue_timeout > 0:
            self._expire_zombies(device, sim, cycle, tracer)
            if not rqst._q:
                return 0
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
        # Cubes whose egress link is held for the rest of this walk.
        held = None
        # Single in-order pass with one batched removal: a positional
        # peek/pop walk pays O(k) deque access per visited slot, O(n^2)
        # per stage on deep queues.
        for pos, (pkt, stamp) in enumerate(zip(rqst._q, rqst._stamps)):
            if moved >= moves:
                break
            if pkt.cub != dev_id:
                # One-hop-per-cycle for chained forwards.
                if cycle - stamp < 1:
                    continue
                if held is None:
                    held = set()
                elif pkt.cub in held:
                    continue
                if self._route_remote(pkt, device, sim, cycle, tracer, held):
                    removed.append(pos)
                    moved += 1
                # Remote stall (peer queue full / held link / no route
                # handled inside): leave in place, keep scanning.
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
            if cycle - stamp < (1 if local_quad else 1 + penalty):
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
            vqq = vq._q
            n = len(vqq)
            if n >= vq.depth:
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
            # PacketQueue.push, inlined: the room was checked above.
            if not n and vq._act_set is not None:
                vq._act_set.add(vq._act_key)
            vqq.append(pkt)
            vq._stamps.append(cycle)
            vq.total_enqueued += 1
            if pkt.is_special:
                vq.special_count += 1
            if n >= vq.high_water:
                vq.high_water = n + 1
            self.routed_local += 1
            removed.append(pos)
            moved += 1
        remove_positions(rqst, removed)
        return moved

    def _route_remote(
        self,
        pkt: Packet,
        device: "HMCDevice",
        sim: "HMCSim",
        cycle: int,
        tracer: Tracer,
        held: set,
    ) -> bool:
        """Forward *pkt* one hop toward its cube; True iff it left.

        A stall in the egress link's gate adds every cube routed through
        that egress to *held* (the walk's held-link rule).  A dead link
        is not held: the rebuilt routes send its cubes elsewhere.  They
        keep every held cube on its egress — removing a link lengthens
        no path that avoids it.
        """
        if sim is None:
            self._reject(pkt, device, cycle, tracer, ErrStat.UNROUTABLE)
            return True
        # HMCSim.next_hop, inlined: the lazily built table; unknown cube
        # ids (the host's among them) and unreachable cubes have no hop.
        routes = sim._routes
        if routes is None:
            sim._build_routes()
            routes = sim._routes
        dev_id = device.dev_id
        cub = pkt.cub
        table = routes[dev_id]
        hop = table.get(cub) if 0 <= cub < sim.config.num_devs else None
        if hop is None:
            # Misroute: no path to the destination cube.  Per §IV.2 the
            # user receives an error response rather than a crash.
            self.misroutes += 1
            tracer.event(
                EventType.MISROUTE,
                cycle,
                dev=dev_id,
                link=self.link_id,
                serial=pkt.serial,
                extra={"target_cub": cub},
            )
            self._reject(pkt, device, cycle, tracer, ErrStat.UNROUTABLE)
            return True
        egress_link, peer_dev_id, peer_link = hop
        peer = sim.devices[peer_dev_id]
        prq = peer.xbars[peer_link].rqst
        pq = prq._q
        n = len(pq)
        if n >= prq.depth:
            self.stall_events += 1
            if tracer.live_mask & _EV_XBAR_RQST_STALL:
                tracer.event(
                    EventType.XBAR_RQST_STALL,
                    cycle,
                    dev=dev_id,
                    link=self.link_id,
                    serial=pkt.serial,
                    extra={"remote": True, "target_cub": cub},
                )
            return False
        link_faults = sim._link_faults
        if link_faults:
            sender = (dev_id, egress_link)
            state = link_faults.get(sender)
            if state is not None:
                # In-band gate: the chain hop crosses the link retry
                # protocol.  A failed transmission leaves the packet
                # queued for the replay window; a dead link leaves it
                # for rerouting (the rebuilt routes avoid FAILED links)
                # or a misroute error response when no path survives.
                status = state.try_transmit(sender, pkt, cycle, tracer)
                if status is not TX_OK:
                    if status is TX_DEAD:
                        sim._note_link_failure(state)
                    else:
                        for target, route in table.items():
                            if route[0] == egress_link:
                                held.add(target)
                    return False
        flits = pkt.num_flits
        pkt.route_stack.append((peer_dev_id, peer_link))
        pkt.hops += 1
        pkt.ingress_link = peer_link
        # Link.count_tx / count_rx and PacketQueue.push, inlined (the
        # room was checked above).
        link = device.links[egress_link]
        link.tx_packets += 1
        link.tx_flits += flits
        link = peer.links[peer_link]
        link.rx_packets += 1
        link.rx_flits += flits
        if not n and prq._act_set is not None:
            prq._act_set.add(prq._act_key)
        pq.append(pkt)
        prq._stamps.append(cycle)
        prq.total_enqueued += 1
        if pkt.is_special:
            prq.special_count += 1
        if n >= prq.high_water:
            prq.high_water = n + 1
        self.routed_remote += 1
        if tracer.live_mask & _EV_CHAIN_HOP:
            tracer.event(
                EventType.CHAIN_HOP,
                cycle,
                dev=dev_id,
                link=egress_link,
                serial=pkt.serial,
                extra={"to_dev": peer_dev_id, "to_link": peer_link},
            )
        return True



class ReferenceEngine(ClockEngine):
    """The clock with the parent's Python stage 1, 2 and 5 steps and the
    Python loop around ``Vault.stage34``."""

    __slots__ = ()

    def _stage1(self, cycle: int) -> None:
        """Stage 1: child-device crossbars."""
        self.stage_counts[1] += self._route_requests(self._children, cycle)

    def _stage2(self, cycle: int) -> None:
        """Stage 2: root-device crossbars."""
        self.stage_counts[2] += self._route_requests(self._roots, cycle)

    def _route_requests(self, devices: List[HMCDevice], cycle: int) -> int:
        sim = self.sim
        orders = self._link_orders
        order = orders[cycle % len(orders)]
        moves = self._moves
        tracer = sim.tracer
        moved = 0
        for dev in devices:
            act = dev.act_xbar_rqst
            if act:
                xbars = dev.xbars
                for idx in order:
                    if idx in act:  # else empty: route_requests is a no-op
                        moved += xbars[idx].route_requests(
                            dev, sim, cycle, moves, tracer
                        )
        return moved

    def _walk_vaults(self, cycle: int, window: int, width: int) -> tuple:
        """Run ``Vault.stage34`` over the vaults with queued requests,
        ascending id.  A recognition-only pass mutates no queue, so the
        issue pass after it sees the same selection."""
        tracer = self.sim.tracer
        busy, row_timing = self._bank_timing
        conflicts = 0
        issued = 0
        for dev in self.sim.devices:
            act = dev.act_vault_rqst
            if act:
                vaults, amap, dev_id = dev.vaults, dev.amap, dev.dev_id
                for vid in sorted(act):
                    c, i = vaults[vid].stage34(cycle, amap, window, width, busy,
                                               tracer, dev_id, row_timing)
                    conflicts += c
                    issued += i
        return conflicts, issued

    def _stage34(self, cycle: int) -> None:
        """Stages 3+4: bank-conflict recognition (read-only trace pass)
        then vault request processing, one walk per vault: both touch
        only vault-local state."""
        conflicts, issued = self._walk_vaults(cycle, self._window, self._width)
        self.stage_counts[3] += conflicts
        self.stage_counts[4] += issued

    def _stage3(self, cycle: int) -> None:
        """Stage 3 alone, under its marker: the recognition half."""
        self.stage_counts[3] += self._walk_vaults(cycle, self._window, 0)[0]

    def _stage4(self, cycle: int) -> None:
        """Stage 4 alone, under its marker: the issue half."""
        self.stage_counts[4] += self._walk_vaults(cycle, 0, self._width)[1]

    def _stage5(self, cycle: int) -> None:
        """Stage 5: response registration, roots first then children."""
        moved = 0
        for devices in (self._roots, self._children):
            for dev in devices:
                moved += self._cross_chain_responses(dev, cycle)
                moved += self._drain_vault_responses(dev, cycle)
        self.stage_counts[5] += moved

    def _drain_vault_responses(self, dev: HMCDevice, cycle: int) -> int:
        """Move vault response queues into crossbar response queues.

        The route stack's top record names the link this response must
        leave the device on (the request's ingress link, preserving the
        link→bank stream association).
        """
        act = dev.act_vault_rsp
        if not act:
            return 0
        sim = self.sim
        tracer = sim.tracer
        live = tracer.live_mask
        per_vault = self._moves
        dev_id = dev.dev_id
        num_links = len(dev.links)
        vaults = dev.vaults
        xbars = dev.xbars
        moved = 0
        # Ascending vault order; draining empties queues mid-loop, so
        # iterate a sorted snapshot.
        for vid in sorted(act):
            vault = vaults[vid]
            rsp = vault.rsp
            q = rsp._q
            for _ in range(per_vault):
                if not q:
                    break
                pkt = q[0]
                stack = pkt.route_stack
                if stack:
                    # _egress_link_for, inlined for the common case.
                    rec_dev, link_id = stack[-1]
                    if rec_dev != dev_id or not 0 <= link_id < num_links:
                        link_id = None
                else:
                    link_id = self._egress_link_for(pkt, dev)
                if link_id is None:
                    # No usable route record: unreachable response.  Drop
                    # it (zombie prevention, §V.B) and record the event.
                    rsp.pop()
                    sim.dropped_responses += 1
                    if live & _EV_PKT_EXPIRED:
                        tracer.event(EventType.PKT_EXPIRED, cycle, dev=dev_id,
                                     vault=vault.vault_id, serial=pkt.serial)
                    continue
                xrsp = xbars[link_id].rsp
                xq = xrsp._q
                n = len(xq)
                if n >= xrsp.depth:
                    if live & _EV_XBAR_RSP_STALL:
                        tracer.event(EventType.XBAR_RSP_STALL, cycle,
                                     dev=dev_id, link=link_id,
                                     vault=vault.vault_id, serial=pkt.serial)
                    break
                # PacketQueue.pop and .push, inlined (a response is never
                # a FLOW/MODE packet; the room was checked above).
                q.popleft()
                rsp._stamps.popleft()
                rsp.total_dequeued += 1
                if not q and rsp._act_set is not None:
                    rsp._act_set.discard(rsp._act_key)
                if stack:  # its top record is this device's: checked above
                    stack.pop()
                if not n and xrsp._act_set is not None:
                    xrsp._act_set.add(xrsp._act_key)
                xq.append(pkt)
                xrsp._stamps.append(cycle)
                xrsp.total_enqueued += 1
                if n >= xrsp.high_water:
                    xrsp.high_water = n + 1
                moved += 1
                if live & _EV_RSP_REGISTERED:
                    tracer.emit_fast(
                        _EV_RSP_REGISTERED, cycle, dev_id, link_id, -1,
                        vault.vault_id, -1, -1, pkt.serial, None,
                    )
        return moved

    def _egress_link_for(self, pkt: Packet, dev: HMCDevice) -> int | None:
        """Link id a response should exit *dev* on, from its route stack."""
        if pkt.route_stack:
            rec_dev, rec_link = pkt.route_stack[-1]
            if rec_dev == dev.dev_id and 0 <= rec_link < len(dev.links):
                return rec_link
            return None
        # Stackless (e.g. internally generated) responses fall back to
        # the recorded ingress link when it is valid.
        if 0 <= pkt.ingress_link < len(dev.links):
            return pkt.ingress_link
        return None

    def _cross_chain_responses(self, dev: HMCDevice, cycle: int) -> int:
        """Move responses across chain links toward the host.

        Responses sitting in a chain-link crossbar response queue hop to
        the peer device, continuing along their recorded return path.
        Host-link response queues are left alone — the host drains them
        via ``recv``.
        """
        act = dev.act_xbar_rsp
        if not act:
            return 0
        sim = self.sim
        tracer = sim.tracer
        live = tracer.live_mask
        moves = self._moves
        peers = sim._link_peers
        link_faults = sim._link_faults
        dev_id = dev.dev_id
        moved = 0
        # Only chain-link response queues are ever bound into
        # act_xbar_rsp (sync_activity_bindings); a chain link is exactly
        # one whose peer is a (dev, link) pair.  Popping the last packet
        # discards its id from act, so walk a sorted snapshot.
        for lid in sorted(act):
            peer = peers.get((dev_id, lid))
            if peer is None or peer == "host":
                continue
            peer_dev_id, peer_link = peer
            peer_dev = sim.devices[peer_dev_id]
            peer_nlinks = len(peer_dev.links)
            rsp = dev.xbars[lid].rsp
            q = rsp._q
            stamps = rsp._stamps
            link = dev.links[lid]
            fault_state = link_faults.get((dev_id, lid)) if link_faults else None
            for _ in range(moves):
                if not q:
                    break
                pkt = q[0]
                # One hop per cycle: leave same-cycle arrivals alone.
                if stamps[0] >= cycle:
                    break
                stack = pkt.route_stack
                if stack:
                    # _egress_link_for(pkt, peer_dev), inlined.
                    rec_dev, next_link = stack[-1]
                    if rec_dev != peer_dev_id or not 0 <= next_link < peer_nlinks:
                        next_link = None
                else:
                    next_link = self._egress_link_for(pkt, peer_dev)
                if next_link is None:
                    rsp.pop()
                    sim.dropped_responses += 1
                    if live & _EV_PKT_EXPIRED:
                        tracer.event(EventType.PKT_EXPIRED, cycle, dev=dev_id,
                                     link=lid, serial=pkt.serial)
                    continue
                dest = peer_dev.xbars[next_link].rsp
                dq = dest._q
                n = len(dq)
                if n >= dest.depth:
                    if live & _EV_XBAR_RSP_STALL:
                        tracer.event(EventType.XBAR_RSP_STALL, cycle,
                                     dev=dev_id, link=lid, serial=pkt.serial)
                    break
                if fault_state is not None:
                    # In-band gate: the response hop runs the link retry
                    # protocol.  A failure keeps it queued for the replay
                    # window; a dead link strands it (dropped, tokens
                    # leak — the watchdog's deadlock scenario).
                    status = fault_state.try_transmit(
                        (dev_id, lid), pkt, cycle, tracer
                    )
                    if status is not TX_OK:
                        if status is TX_DEAD:
                            sim._note_link_failure(fault_state)
                            rsp.pop()
                            sim.dropped_responses += 1
                            if live & _EV_PKT_EXPIRED:
                                tracer.event(EventType.PKT_EXPIRED, cycle,
                                             dev=dev_id, link=lid,
                                             serial=pkt.serial)
                            continue
                        break
                # PacketQueue.pop / push and Link.count_tx / count_rx,
                # inlined (a response is never a FLOW/MODE packet; the
                # room was checked above).
                q.popleft()
                stamps.popleft()
                rsp.total_dequeued += 1
                if not q and rsp._act_set is not None:
                    rsp._act_set.discard(rsp._act_key)
                if stack:  # its top record is the peer's: checked above
                    stack.pop()
                pkt.hops += 1
                flits = pkt.num_flits
                link.tx_packets += 1
                link.tx_flits += flits
                peer_rx = peer_dev.links[next_link]
                peer_rx.rx_packets += 1
                peer_rx.rx_flits += flits
                if not n and dest._act_set is not None:
                    dest._act_set.add(dest._act_key)
                dq.append(pkt)
                dest._stamps.append(cycle)
                dest.total_enqueued += 1
                if n >= dest.high_water:
                    dest.high_water = n + 1
                moved += 1
        return moved


def adopt(sim: "HMCSim") -> "HMCSim":
    """Put *sim* under the reference stages, run state kept."""
    engine = ReferenceEngine.__new__(ReferenceEngine)
    engine.__setstate__(sim.engine.__getstate__())
    sim.engine = engine
    for dev in sim.devices:
        for xbar in dev.xbars:
            xbar.__class__ = ReferenceCrossbarUnit
    return sim

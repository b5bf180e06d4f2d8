"""The six-sub-cycle clock engine (paper §IV.C, Fig. 3).

One call to the clock function "progresses the internal memory
operations and device clock by a single leading and trailing clock edge,
or one clock cycle".  Internally the cycle is broken into six sub-cycle
operations executed in a strict order; "request and response packets are
only progressed by a single internal stage per sub-cycle operation":

1. process child-device link crossbar transactions;
2. process root-device link crossbar request transactions;
3. recognise bank conflicts on vault request queues (read-only);
4. process vault-queue memory request transactions;
5. register response packets with crossbar response queues —
   root devices first, then children (avoids false congestion);
6. update the internal 64-bit clock value.

Stages 3 and 4 are one walk per vault, ``Vault.stage34``; SUBCYCLE
stage markers make a tick run it twice, one stage each (event-order
contract: docs/clocking.md).

The stages visit active sets: every
:class:`~repro.core.queueing.PacketQueue` keeps its id registered in its
device's active set exactly while it is non-empty, so stages 1–5 visit
only the queues that can possibly make progress.  While no queued packet
can move — none is queued, or all wait behind a crossbar's registered
input (:meth:`ClockEngine.wake_cycle`) — :meth:`ClockEngine.advance`
fast-forwards the clock across the dead window in closed form, bounded
by the next refresh, RAS upset or patrol-scrub cycle, which still run as
real ticks.

A cycle is a list of steps built once (:meth:`ClockEngine._sync_steps`,
docs/clocking.md "The cycle as a list"): the stages always, the
watchdog, refresh, the RAS sub-step and the LRS mirror only when
configured, SUBCYCLE markers and the stage profiler as wrappers around
the steps when switched on.

This is the only engine under ``src/``.  The walk that visits every
queue every cycle and skips nothing is the tests' reference
(``tests/reference/full_walk.py``): cycle counts, trace event streams,
``stage_counts`` and register state must match it bit for bit
(tests/test_scheduler_equivalence.py).
"""

from __future__ import annotations

from functools import wraps
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.device import HMCDevice
from repro.core.errors import WatchdogError
from repro.core.quad import closest_quad_of_link
from repro.faults.inband import TX_DEAD, TX_OK, LinkHealth
from repro.trace.events import EventType
from repro.packets.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import HMCSim

# Hot-path event masks as plain ints: stage helpers test these against
# ``tracer.live_mask`` so disabled tracing skips event construction (and
# IntFlag arithmetic) entirely.
_EV_SUBCYCLE = int(EventType.SUBCYCLE)
_EV_PKT_EXPIRED = int(EventType.PKT_EXPIRED)
_EV_XBAR_RSP_STALL = int(EventType.XBAR_RSP_STALL)
_EV_RSP_REGISTERED = int(EventType.RSP_REGISTERED)

NEVER = 1 << 64  #: ``wake_cycle()`` with nothing queued: past the 64-bit clock


class ClockEngine:
    """Drives the sub-cycle stages over every device of one HMCSim."""

    __slots__ = ("sim", "stage_counts", "_wd_last_cycle", "_wd_marker",
                 "profiler", "_roots", "_children", "_steps", "_steps_key")

    #: What a checkpoint carries.  The rest is host-side: the profiler
    #: like a trace sink, the step list because it holds closures.
    _RUN_STATE = ("sim", "stage_counts", "_wd_last_cycle", "_wd_marker")
    _run_state = attrgetter(*_RUN_STATE)

    def __init__(self, sim: "HMCSim") -> None:
        self.sim = sim
        self.reset()
        self._unbuilt()

    def _unbuilt(self) -> None:
        """No profiler, and a step list to build at the next tick."""
        #: Optional :class:`repro.analysis.profiling.EngineProfiler`;
        #: when set, the steps run inside its timing wrappers.
        self.profiler = None
        self._steps: List[Callable[[int], None]] = []
        self._steps_key = None

    def reset(self) -> None:
        """Zero what a run accumulates (``HMCSim.reset``)."""
        #: Packets moved / processed per stage (1..6), lifetime totals.
        self.stage_counts = [0] * 7
        # No-progress watchdog (armed iff config.watchdog_cycles > 0):
        # the cycle at which the progress signature last changed, and
        # that signature (None until the first check).
        self._wd_last_cycle = 0
        self._wd_marker = None

    def __getstate__(self) -> tuple:
        return self._run_state(self)  # flat, in _RUN_STATE order

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self._RUN_STATE, state, strict=True):
            setattr(self, name, value)
        self._unbuilt()

    # ------------------------------------------------------------------
    # The cycle as a list.
    # ------------------------------------------------------------------

    def _sync_steps(self) -> None:
        """Rebuild the cycle's step list if one of its inputs changed.

        The inputs: the topology, the SUBCYCLE bit of the live trace
        mask, the attached profiler, and whether any in-band link-fault
        state is attached — each can change between two ticks.  What
        the frozen ``SimConfig`` and the devices' ECC decide is read
        here once.  Every step is called as ``step(cycle)``.
        """
        sim = self.sim
        key = (sim._topology_epoch, sim.tracer.live_mask & _EV_SUBCYCLE,
               self.profiler, bool(sim._link_fault_states))
        if key == self._steps_key:
            return
        self._steps_key = key
        _, marked, prof, link_faults = key
        devices = sim.devices
        self._roots = [d for d in devices if d.is_root]
        self._children = [d for d in devices if not d.is_root]
        for d in devices:
            d.sync_activity_bindings()
        cfg = sim.config
        # (profiler bucket, step), in the order a cycle runs them.  The
        # watchdog has no bucket: it is not stage work.
        steps = [(None, self._wd_check)] if cfg.watchdog_cycles else []
        steps += [(1, self._stage1), (2, self._stage2)]
        if cfg.refresh_interval:
            steps.append(("refresh", self._refresh))
        if marked:
            # Only stage markers need every stage 3 before any stage 4.
            steps += [(3, self._stage3), (4, self._stage4)]
        else:
            steps.append((4, self._stage34))
        if any(d.ras is not None for d in devices):
            steps.append(("ras", self._ras_step))
        steps.append((5, self._stage5))
        if link_faults:
            steps.append((6, self._mirror_link_faults))
        steps.append((6, self._stage6))
        if marked:
            seen = set()
            for i, (bucket, step) in enumerate(steps):
                # Marker N precedes the first step of stage N.
                if isinstance(bucket, int) and bucket not in seen:
                    seen.add(bucket)
                    steps[i] = (bucket, self._marked(bucket, step))
        if prof is not None:
            steps = prof.timed(steps)
        self._steps = [step for _, step in steps]

    def _marked(self, stage: int, step: Callable) -> Callable:
        """*step* behind its SUBCYCLE stage marker."""
        sim = self.sim

        @wraps(step)
        def marked(cycle: int) -> None:
            sim.tracer.event(EventType.SUBCYCLE, cycle, stage=stage)
            step(cycle)

        return marked

    # ------------------------------------------------------------------

    def wake_cycle(self) -> int:
        """Earliest cycle at which any queued packet can move.

        Now, once a vault or chain-link response queue holds anything;
        else the soonest a crossbar request leaves its registered input
        (``CrossbarUnit.route_requests``' transit rule); :data:`NEVER`
        with nothing queued.  A lower bound by contract: early costs one
        tick, late is a wrong simulation.
        """
        sim = self.sim
        now = sim.clock_value
        held = []
        for dev in sim.devices:
            if dev.act_vault_rqst or dev.act_vault_rsp or dev.act_xbar_rsp:
                return now
            if dev.act_xbar_rqst:
                held.append(dev)
        if not held:
            return NEVER
        cfg = sim.config
        if not sim.enforce_hop_limit or cfg.queue_timeout > 0:
            return now  # no transit timer / zombie expiry reads every cycle
        penalty = cfg.nonlocal_penalty_cycles
        wake = NEVER
        for dev in held:
            dev_id = dev.dev_id
            vault_of = dev.amap.vault_of
            for link_id in dev.act_xbar_rqst:
                rqst = dev.xbars[link_id].rqst
                quad = closest_quad_of_link(link_id)
                for pkt, stamp in zip(rqst._q, rqst._stamps):
                    ready = stamp + 1
                    # Remote, MODE, FLOW: stamp + 1 (a lower bound for some).
                    if penalty and pkt.cub == dev_id and not pkt.is_special:
                        vault = pkt.dec_vault
                        if vault < 0:
                            vault = vault_of(pkt.addr)
                        if vault >> 2 != quad:  # quad_of_vault, inlined
                            ready += penalty
                    if ready <= now:
                        return now
                    if ready < wake:
                        wake = ready
        return wake

    def advance(self, cycles: int, until: Optional[Callable[[], bool]] = None) -> int:
        """Run *cycles* clock cycles, fast-forwarding dead windows;
        returns the cycles run.

        Windows in which no queued packet can move (:meth:`wake_cycle`
        lies ahead) are skipped in closed form (:meth:`_idle_skip_bound`
        bounds them further); every cycle with any possible observable
        work runs as a real tick.  *until*, when given, is asked after
        every tick — a skipped cycle changes nothing it could read — and
        a true answer ends the run after that cycle.
        """
        self._sync_steps()  # wake_cycle reads the sets this binds
        sim = self.sim
        # Deferred tracing for the whole stepping window: emissions
        # batch up to the ring capacity inside, and end_batch() delivers
        # everything before this call returns — so sink state is exact
        # at every public API boundary (try/finally covers watchdog and
        # link-death aborts, whose events must reach sinks too).
        tracer = sim.tracer
        tracer.begin_batch()
        try:
            remaining = cycles
            wd = sim.config.watchdog_cycles
            wake = -1  # stale: a fast-forward moves nothing, so it keeps it
            while remaining > 0:
                now = sim.clock_value
                if wake < now:
                    wake = self.wake_cycle()
                if wake > now:
                    skip = self._idle_skip_bound(min(remaining, wake - now))
                    if wd and skip > 0:
                        # The watchdog deadline is an observable event:
                        # clamp the fast-forward so the tick at exactly
                        # last_progress + watchdog_cycles runs for real
                        # and fires at the same cycle a tick-by-tick
                        # walk would.
                        self._wd_refresh(now)
                        if self._wd_stuck():
                            skip = min(skip, self._wd_last_cycle + wd - now)
                    if skip > 0:
                        self._fast_forward(skip)
                        remaining -= skip
                        continue
                self.tick()
                remaining -= 1
                wake = -1
                if until is not None and until():
                    break
        finally:
            tracer.end_batch()
        return cycles - remaining

    def _idle_skip_bound(self, limit: int) -> int:
        """Cycles that may be skipped from now without observable effect.

        Returns 0 when this cycle must run for real.  A cycle is
        skippable only when nothing cycle-dependent can happen in it:

        * no SUBCYCLE tracing (stage markers are per-cycle events);
        * no pending RWS register strobe (``regs.tick`` must clear it);
        * no DRAM refresh due (staggered residue condition);
        * no RAS transient-upset arrival or patrol-scrub step due.
        """
        sim = self.sim
        if sim.tracer.live_mask & _EV_SUBCYCLE:
            return 0
        cfg = sim.config
        cycle = sim.clock_value
        skip = limit
        if sim._link_fault_states:
            devices = sim.devices
            for state in sim._link_fault_states:
                if not state.registers_synced(devices):
                    # A host-boundary transmission attempt bumped a link
                    # counter since the last stage-6 mirror; run a real
                    # tick so the LRS registers publish it.
                    return 0
        interval = cfg.refresh_interval
        if interval:
            # A refresh fires at cycle t iff (t + vault_id) % interval
            # == 0 for some vault, i.e. iff (-t) % interval < m below.
            m = min(cfg.device.num_vaults, interval)
            r = (-cycle) % interval
            if r < m:
                return 0
            skip = min(skip, r - m + 1)
        for dev in sim.devices:
            if dev.regs.has_pending_strobes:
                return 0
            ras = dev.ras
            if ras is not None:
                if not ras.registers_synced():
                    # Out-of-band fault injection bumped a counter since
                    # the last stage-6 mirror; run a real tick to sync.
                    return 0
                nxt = ras._next_upset
                if nxt is not None:
                    if nxt <= cycle:
                        return 0
                    skip = min(skip, nxt - cycle)
                interval = ras.scrubber.interval
                if interval:
                    r = cycle % interval
                    if r == 0:
                        return 0
                    skip = min(skip, interval - r)
        return skip

    def _fast_forward(self, cycles: int) -> None:
        """Apply *cycles* dead ticks in closed form.

        Per skipped cycle the only state a real tick would change is the
        clock itself, stage-6 accounting, the STAT register and the RAS
        controller's cycle cursor — everything else was proven inert by
        :meth:`wake_cycle` and :meth:`_idle_skip_bound`.
        """
        sim = self.sim
        end = sim.clock_value + cycles
        for dev in sim.devices:
            dev.regs.internal_write("STAT", end)
            if dev.ras is not None:
                dev.ras.cycle = end - 1
        sim.clock_value = end
        self.stage_counts[6] += cycles
        prof = self.profiler
        if prof is not None:
            prof.ff_cycles += cycles

    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Run one full clock cycle: every step of the list, in order."""
        self._sync_steps()
        cycle = self.sim.clock_value
        for step in self._steps:
            step(cycle)

    # ------------------------------------------------------------------
    # The steps.
    # ------------------------------------------------------------------

    def _stage1(self, cycle: int) -> None:
        """Stage 1: child-device crossbars."""
        self.stage_counts[1] += self._route_requests(self._children, cycle)

    def _stage2(self, cycle: int) -> None:
        """Stage 2: root-device crossbars."""
        self.stage_counts[2] += self._route_requests(self._roots, cycle)

    def _route_requests(self, devices: List[HMCDevice], cycle: int) -> int:
        sim = self.sim
        cfg = sim.config
        moves = cfg.xbar_moves_per_cycle
        rotating = cfg.xbar_arbitration == "rotating"
        tracer = sim.tracer
        moved = 0
        for dev in devices:
            act = dev.act_xbar_rqst
            if not act:
                continue
            xbars = dev.xbars
            n = len(xbars)
            # Link service order: fixed priority, or per-cycle rotation
            # for fair arbitration of contended vault queue slots.
            start = cycle % n if rotating else 0
            for i in range(n):
                idx = (start + i) % n
                if idx in act:  # else empty: route_requests is a no-op
                    moved += xbars[idx].route_requests(
                        dev, sim, cycle, moves, tracer
                    )
        return moved

    def _refresh(self, cycle: int) -> None:
        """Optional DRAM refresh, staggered across vaults so the whole
        device never freezes at once (the paper's model has none;
        ``SimConfig.refresh_interval = 0`` keeps this out of the list)."""
        cfg = self.sim.config
        for dev in self.sim.devices:
            for vault in dev.vaults:
                if (cycle + vault.vault_id) % cfg.refresh_interval == 0:
                    vault.refresh(cycle, cfg.refresh_cycles)

    def _walk_vaults(self, cycle: int, window: int, width: int) -> tuple:
        """Run ``Vault.stage34`` over the vaults with queued requests,
        ascending id.  A recognition-only pass mutates no queue, so the
        issue pass after it sees the same selection."""
        sim = self.sim
        cfg = sim.config
        tracer = sim.tracer
        busy = cfg.bank_busy_cycles
        row_timing = (
            (cfg.row_hit_cycles, cfg.row_miss_cycles)
            if cfg.row_policy == "open"
            else None
        )
        conflicts = 0
        issued = 0
        for dev in sim.devices:
            act = dev.act_vault_rqst
            if not act:
                continue
            vaults = dev.vaults
            amap = dev.amap
            dev_id = dev.dev_id
            for vid in sorted(act):
                c, i = vaults[vid].stage34(
                    cycle, amap, window, width, busy, tracer,
                    dev_id, row_timing=row_timing,
                )
                conflicts += c
                issued += i
        return conflicts, issued

    def _stage34(self, cycle: int) -> None:
        """Stages 3+4: bank-conflict recognition (read-only trace pass)
        then vault request processing, one walk per vault: both touch
        only vault-local state."""
        cfg = self.sim.config
        conflicts, issued = self._walk_vaults(
            cycle, cfg.conflict_window, cfg.vault_issue_width
        )
        self.stage_counts[3] += conflicts
        self.stage_counts[4] += issued

    def _stage3(self, cycle: int) -> None:
        """Stage 3 alone, under its marker: the recognition half."""
        window = self.sim.config.conflict_window
        self.stage_counts[3] += self._walk_vaults(cycle, window, 0)[0]

    def _stage4(self, cycle: int) -> None:
        """Stage 4 alone, under its marker: the issue half."""
        width = self.sim.config.vault_issue_width
        self.stage_counts[4] += self._walk_vaults(cycle, 0, width)[1]

    def _ras_step(self, cycle: int) -> None:
        """RAS sub-step (only with an ECC-enabled device): transient
        fault arrivals and the patrol scrubber.  Timing-neutral — it
        never occupies banks or moves packets, so cycle counts match the
        unprotected model exactly."""
        for dev in self.sim.devices:
            if dev.ras is not None:
                dev.ras.tick(cycle)

    def _stage5(self, cycle: int) -> None:
        """Stage 5: response registration, roots first then children."""
        moved = 0
        for devices in (self._roots, self._children):
            for dev in devices:
                moved += self._cross_chain_responses(dev, cycle)
                moved += self._drain_vault_responses(dev, cycle)
        self.stage_counts[5] += moved

    def _mirror_link_faults(self, cycle: int) -> None:
        """Mirror per-link health/retry counters into the LRS registers
        of every endpoint device before the register tick, so host
        writes strobed this cycle rebase the write-to-clear deltas (same
        pattern as the RAS mirror)."""
        devices = self.sim.devices
        for state in self.sim._link_fault_states:
            state.sync_registers(devices)

    def _stage6(self, cycle: int) -> None:
        """Stage 6: update the internal clock value."""
        sim = self.sim
        for dev in sim.devices:
            if dev.ras is not None:
                # Mirror RAS counters before the register tick so host
                # writes strobed this cycle are observed (write-to-clear).
                dev.ras.sync_registers()
            dev.regs.tick()
            dev.regs.internal_write("STAT", cycle + 1)
        sim.clock_value = cycle + 1
        self.stage_counts[6] += 1

    # ------------------------------------------------------------------
    # No-progress watchdog.
    # ------------------------------------------------------------------

    def _wd_signature(self) -> tuple:
        """Everything that counts as forward progress.

        Stage 1/2/4/5 move counters, host send/recv totals, dropped
        responses (a dead link actively draining stranded work is still
        progress), and in-band link transmissions (a replaying link is
        working toward recovery, not livelocked).
        """
        sim = self.sim
        sc = self.stage_counts
        tx = 0
        for state in sim._link_fault_states:
            tx += state.stats.transmissions
        return (
            sc[1],
            sc[2],
            sc[4],
            sc[5],
            sim.packets_sent,
            sim.packets_received,
            sim.dropped_responses,
            tx,
        )

    def _wd_refresh(self, cycle: int) -> None:
        """Record *cycle* as the last-progress point if anything moved."""
        sig = self._wd_signature()
        if sig != self._wd_marker:
            self._wd_marker = sig
            self._wd_last_cycle = cycle

    def _wd_stuck(self) -> bool:
        """True iff pending work cannot complete without intervention.

        Either a device holds queued packets that stages are not moving,
        or flow-control tokens are outstanding with no deliverable
        response left anywhere the host could drain them from — the
        dropped-TRET deadlock.
        """
        sim = self.sim
        for d in sim.devices:
            if not d.is_idle():
                return True
        link_faults = sim._link_faults
        if link_faults:
            devices = sim.devices
            for d, l in sim._host_links:
                state = link_faults.get((d, l))
                if (
                    state is not None
                    and state.health is LinkHealth.FAILED
                    and devices[d].xbars[l].rsp._q
                ):
                    # Responses stranded behind a dead host link can
                    # never be delivered.
                    return True
        tokens = sim._tokens
        if tokens and any(t.available < t.capacity for t in tokens.values()):
            link_faults = sim._link_faults
            devices = sim.devices
            for d, l in sim._host_links:
                if devices[d].xbars[l].rsp._q:
                    state = link_faults.get((d, l)) if link_faults else None
                    if state is None or state.health is not LinkHealth.FAILED:
                        # A response the host can still receive exists;
                        # the tokens it holds are recoverable.
                        return False
            return True
        return False

    def _wd_check(self, cycle: int) -> None:
        """Tick-start watchdog: abort when stuck past the deadline."""
        self._wd_refresh(cycle)
        wd = self.sim.config.watchdog_cycles
        if cycle - self._wd_last_cycle >= wd and self._wd_stuck():
            self._wd_abort(cycle)

    def _wd_abort(self, cycle: int) -> None:
        sim = self.sim
        sim.watchdog_trips += 1
        report = sim.link_report()
        report.update(
            {
                "last_progress_cycle": self._wd_last_cycle,
                "watchdog_cycles": sim.config.watchdog_cycles,
                "pending_packets": sim.pending_packets,
                "in_flight": sim.in_flight,
                "queues": {
                    f"dev{d.dev_id}": {
                        "xbar_rqst": [len(x.rqst) for x in d.xbars],
                        "xbar_rsp": [len(x.rsp) for x in d.xbars],
                        "vault_rqst": [len(v.rqst) for v in d.vaults],
                        "vault_rsp": [len(v.rsp) for v in d.vaults],
                    }
                    for d in sim.devices
                },
            }
        )
        sim.tracer.event(
            EventType.WATCHDOG,
            cycle,
            extra={
                "last_progress_cycle": self._wd_last_cycle,
                "in_flight": sim.in_flight,
            },
        )
        raise WatchdogError(
            f"no forward progress for {cycle - self._wd_last_cycle} cycles "
            f"at cycle {cycle} with work outstanding (livelock)",
            report=report,
        )

    # ------------------------------------------------------------------
    # Stage 5 helpers.
    # ------------------------------------------------------------------

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
        per_vault = sim.config.xbar_moves_per_cycle
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
                        tracer.event(
                            EventType.PKT_EXPIRED,
                            cycle,
                            dev=dev_id,
                            vault=vault.vault_id,
                            serial=pkt.serial,
                        )
                    continue
                xrsp = xbars[link_id].rsp
                xq = xrsp._q
                n = len(xq)
                if n >= xrsp.depth:
                    if live & _EV_XBAR_RSP_STALL:
                        tracer.event(
                            EventType.XBAR_RSP_STALL,
                            cycle,
                            dev=dev_id,
                            link=link_id,
                            vault=vault.vault_id,
                            serial=pkt.serial,
                        )
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
        moves = sim.config.xbar_moves_per_cycle
        hop_limit = sim.enforce_hop_limit
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
                if hop_limit and stamps[0] >= cycle:
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
                        tracer.event(
                            EventType.PKT_EXPIRED,
                            cycle,
                            dev=dev_id,
                            link=lid,
                            serial=pkt.serial,
                        )
                    continue
                dest = peer_dev.xbars[next_link].rsp
                dq = dest._q
                n = len(dq)
                if n >= dest.depth:
                    if live & _EV_XBAR_RSP_STALL:
                        tracer.event(
                            EventType.XBAR_RSP_STALL,
                            cycle,
                            dev=dev_id,
                            link=lid,
                            serial=pkt.serial,
                        )
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
                                tracer.event(
                                    EventType.PKT_EXPIRED,
                                    cycle,
                                    dev=dev_id,
                                    link=lid,
                                    serial=pkt.serial,
                                )
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

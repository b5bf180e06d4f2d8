"""One shard of the pool: slots, sessions, and the deterministic pump.

A :class:`Shard` wraps one provisioned :class:`~repro.core.simulator.HMCSim`
(a chained-cube group) and its host links.  Each host link is a *slot*
leased to at most one tenant session; the session drives its request
stream through a partitioned :class:`~repro.host.host.Host` bound to
that single link, so co-resident tenants never steal each other's
responses but do contend on the shard's chain links and crossbars.

Determinism contract — everything the pump does is ordered:

* sessions take their send phase in ascending slot order;
* every pumped cycle is one simulated cycle — the pump folds the cycles
  in which no session can act into one clock call, and no order below
  moves (:meth:`Shard.pump_until`);
* responses drain in ascending slot order, after every tick;
* fault events are attributed in fault-state registration order, with
  shared chain-link events charged round-robin over the resident
  sessions (a persistent rotor), so per-tenant integers always sum to
  the shard's own counters.

No wall clock and no RNG enter this module; a fixed (config, specs)
pair pumps to the same per-tenant accounting every time, on the engine
and on the tests' full-walk reference.

Self-healing (PR 8) — with ``checkpoint_interval`` armed the shard
keeps an *epoch*: a :func:`~repro.core.checkpoint.snapshot_bundle` of
its sim + per-slot hosts plus copies of every resumable counter.  An
epoch becomes *due* every N pumped cycles and at each lease and
retirement (so a completed session is always durable — a restore can
never resurrect resolved work), and the due epoch is taken once, at the
top of the next pass: before chaos fires and before the send phase, the
only places a crash can originate, and after every lease of the tick —
so it is the same epoch an eager one would have left behind, at most
one per pass.  The banks live in the shard's
:class:`~repro.core.checkpoint.PageStore` — counters re-read, pages
refreshed from the dirty sets, per epoch; the epoch blob carries
everything else.  Sessions journal the request items they consume; a
crash (chaos ``shard_crash``, chaos ``watchdog_trip``, or an organic
:class:`~repro.core.errors.WatchdogError`) restores the epoch and
re-feeds the post-epoch journal through the same deterministic pump, so
recovery itself is bit-reproducible.  Counted account fields rewind
with the epoch; the monotone recovery-history fields
(``replayed_requests`` / ``replay_cycles`` / ``crash_recoveries``)
accrue across restores, which is how replayed work gets billed without
double-counting the consistency block.  Chaos events are stamped at
per-shard pumped cycles and fire exactly once — a restore heals
whatever an earlier event broke, it never re-fires it.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.checkpoint import PageStore, restore_bundle, snapshot_bundle
from repro.core.errors import LinkDeadError, WatchdogError
from repro.core.simulator import HMCSim
from repro.faults.chaos import ChaosEvent
from repro.faults.inband import LinkHealth
from repro.host.host import Host
from repro.packets.commands import REQUEST_DATA_BYTES, is_read, is_write
from repro.service.accounting import TenantAccount
from repro.service.admission import FabricPort, TokenBucket
from repro.service.config import ServiceConfig, TenantSpec

#: Account fields captured per epoch and rewound by a crash restore.
#: The recovery-history fields (failovers, lost_inflight,
#: replayed_requests, replay_cycles, crash_recoveries, terminations)
#: are deliberately absent: they are monotone across restores.
_ACCT_EPOCH_FIELDS = (
    "status", "requests_sent", "responses", "errors", "bytes_read",
    "bytes_written", "slot_cycles", "throttle_cycles",
    "network_delay_cycles", "send_stalls", "hostlink_retries",
    "shared_retries", "degradations_seen", "degraded_cycles",
    "deadline_misses",
)

#: Bytes a sent request bills to ``bytes_read`` / ``bytes_written``.
_READ_BYTES = {c: n for c, n in REQUEST_DATA_BYTES.items() if is_read(c)}
_WRITE_BYTES = {c: n for c, n in REQUEST_DATA_BYTES.items() if is_write(c)}


def _fault_events(states) -> int:
    """Link fault events the shard attributes: IRTRYs plus ladder steps
    (the only way a tick changes a link's health)."""
    return sum(st.stats.irtry_events + st.degradations for st in states)


def _degraded(states) -> bool:
    return any(st.health is not LinkHealth.FULL for st in states)


class Session:
    """One tenant resident on one slot."""

    __slots__ = (
        "spec", "account", "host", "slot", "_it", "_bucket",
        "_pending", "_pending_since", "_eligible_at", "_exhausted",
        "_consumed", "done", "failed",
    )

    def __init__(
        self,
        spec: TenantSpec,
        account: TenantAccount,
        host: Host,
        slot: int,
    ) -> None:
        self.spec = spec
        self.account = account
        self.host = host
        self.slot = slot
        self._it: Iterator[Tuple] = iter(spec.requests)
        self._bucket = TokenBucket(spec.rate, spec.burst)
        self._pending: Optional[Tuple] = None
        self._pending_since = 0
        self._eligible_at = 0
        self._exhausted = False
        #: Granted-request journal (resilience armed only): every item
        #: pulled from the stream, in injection order.  A crash restore
        #: re-feeds the post-epoch suffix; a failover salvages the
        #: unacknowledged tail.
        self._consumed: List[Tuple] = []
        self.done = False
        self.failed = False

    @property
    def finished(self) -> bool:
        """Stream drained and every outstanding response returned."""
        return (
            self._exhausted
            and self._pending is None
            and self.host.outstanding == 0
        )

    def salvage(self) -> Iterator[Tuple]:
        """What a failover re-sends: the journal's unacknowledged tail —
        in-flight requests plus the not-yet-injected pending head — ahead
        of the rest of the stream, in original FIFO order."""
        tail = self.host.outstanding + (self._pending is not None)
        consumed = self._consumed
        return chain(consumed[len(consumed) - tail:] if tail else (), self._it)


class Shard:
    """A provisioned sim plus its slot leases and accounting taps."""

    def __init__(
        self,
        shard_id: int,
        sim: HMCSim,
        config: ServiceConfig,
    ) -> None:
        self.shard_id = shard_id
        self.sim = sim
        self.config = config
        self.port = FabricPort(
            config.network_base_delay, config.network_port_interval
        )
        self.sessions: Dict[int, Session] = {}
        self._resident: Optional[List[Session]] = None
        self.free_slots: List[int] = list(range(config.slots_per_shard))
        self.dead_slots: List[int] = []
        self.dead = False
        self.dead_reason = ""
        # Consistency baselines: provisioning traffic predates tenants,
        # so tenant sums are checked against *deltas* from here.
        self.base_cycle = sim.clock_value
        self.base_packets_sent = sim.packets_sent
        self.base_packets_received = sim.packets_received
        self.base_send_stalls = sim.send_stalls
        self.cycles_pumped = 0
        #: Σ over pumped cycles of the number of resident sessions —
        #: the shard-side total that per-tenant ``slot_cycles`` sum to.
        self.active_session_cycles = 0
        #: Fault events with no resident session to charge (still
        #: counted, so attribution sums stay exact).
        self.unattributed_retries = 0
        self.unattributed_degradations = 0
        self._fault_base: List[Tuple[int, int]] = [
            (st.stats.irtry_events, st.degradations)
            for st in sim._link_fault_states
        ]
        self._fault_base0 = list(self._fault_base)
        self._rr = 0
        self._capacity = config.device.capacity_bytes
        self._ncubs = config.devs_per_shard
        # -- resilience state --------------------------------------------------
        #: Epoch checkpointing armed: crashes restore instead of retiring.
        self._recovery_armed = config.checkpoint_interval > 0
        #: Journal request items (needed by both crash replay and failover).
        self._journaling = self._recovery_armed or config.failover_retries > 0
        self._epoch: Optional[dict] = None
        #: Set by lease / retirement / the interval tick; the next pass
        #: takes the epoch before anything can crash.
        self._epoch_due = False
        self._page_store = PageStore()
        self.crashes = 0
        self.recoveries = 0
        self.recovery_events: List[dict] = []
        #: Chaos campaign slice targeting this shard (install_chaos).
        self._chaos: List[ChaosEvent] = []
        self._chaos_idx = 0
        self.chaos_fired: List[dict] = []

    # -- slot leasing ---------------------------------------------------------

    @property
    def has_free_slot(self) -> bool:
        return bool(self.free_slots) and not self.dead

    @property
    def busy(self) -> bool:
        return bool(self.sessions) and not self.dead

    def lease(self, spec: TenantSpec, account: TenantAccount) -> Session:
        """Bind *spec* to the lowest free slot of this shard."""
        if self.dead:
            raise RuntimeError(f"shard {self.shard_id} is retired")
        slot = self.free_slots.pop(0)
        host = Host(self.sim, links=[(0, slot)])
        session = Session(spec, account, host, slot)
        account.shard_id = self.shard_id
        account.slot = slot
        account.status = "active"
        self.sessions[slot] = session
        self._resident = None
        # Membership changed: a later restore must bring the new
        # resident back with everyone else.
        self._epoch_due = self._recovery_armed
        return session

    def install_chaos(self, events: List[ChaosEvent]) -> None:
        """Arm this shard's slice of the chaos campaign (front end)."""
        self._chaos = list(events)
        self._chaos_idx = 0

    # -- the pump -------------------------------------------------------------

    def pump_until(self, limit: int) -> List[Session]:
        """Pump up to *limit* cycles; returns the sessions that completed,
        in the order they completed.

        One pass is a run of pumped cycles of which only the first can
        send: epoch (if due) → chaos → send phase (slot order) → one
        clock call to :meth:`next_event`, receiving (slot order) after
        every tick → fault attribution → cycle charging → retirement.
        The clock call stops early at a cycle whose receive finished a
        session or moved a link fault counter.  Every other folded cycle
        is one in which the per-cycle pump would only have ticked,
        received and charged, so ``pump_until(1)`` called *limit* times
        gives the same shard.  A crash counts as one cycle, as it did
        when it was a pump of its own.
        """
        completed: List[Session] = []
        while limit > 0 and self.sessions and not self.dead:
            if self._epoch_due:
                self._take_epoch()
            if self._chaos_idx < len(self._chaos):
                displaced = self._fire_chaos()
                if displaced is not None:
                    completed += displaced
                    limit -= 1
                    continue
            sim = self.sim
            cycle = sim.clock_value
            resident = self._residents()
            for sess in resident:
                # The send phase is a no-op when the stream is exhausted
                # with no pending head, or the head (with no deadline to
                # expire) is still crossing the fabric.
                if sess.failed:
                    continue
                if sess._pending is None:
                    if sess._exhausted:
                        continue
                elif cycle < sess._eligible_at and not sess.spec.deadline_cycles:
                    continue
                self._send_phase(sess, cycle)
            states = sim._link_fault_states
            seen = _fault_events(states) if states else 0
            was_degraded = bool(states) and _degraded(states)
            if sim._response_pending():
                # A response a link holds back for an in-band replay (or
                # strands on a dead slot): one cycle, then the receive
                # retries it — a skipped cycle would not.
                k, receive = 1, None
            else:
                k = self.next_event(cycle + limit) - cycle
                receive = lambda: self._receive(resident, seen)
            tripped = None
            try:
                ran = sim.clock_until_response(k, receive)
            except WatchdogError as exc:
                # The tick of cycle clock_value tripped; the ones before
                # it ran, each the clock of a pump of its own.
                ran, tripped = sim.clock_value - cycle, exc
            if ran:
                if receive is None:
                    self._receive(resident, seen)
                self._charge(resident, ran, tripped is not None, was_degraded)
                limit -= ran
                retired = self._retire_finished() if any(
                    sess.failed or sess.finished for sess in resident) else []
                completed += retired
                if self._recovery_armed and (
                    retired
                    or self.cycles_pumped % self.config.checkpoint_interval == 0
                ):
                    # Retirement makes an epoch due: completed work is
                    # durable and can never be resurrected (and re-billed)
                    # by a restore.
                    self._epoch_due = True
            if tripped is not None:
                completed += self._crash(f"watchdog: {tripped}", status="watchdog")
                limit -= 1
        return completed

    def next_event(self, horizon: int) -> int:
        """The first cycle after this one at which the pump can act, or
        *horizon* if that comes first.

        Asked after the send phase.  The minimum over each resident's
        next send opportunity (its pending head's fabric eligibility or
        deadline expiry, or the cycle its throttled bucket admits — now
        + 1 for a session that failed or finished and retires this
        cycle), the next chaos event and the next epoch boundary.
        """
        now = self.sim.clock_value
        nxt = horizon
        if self._chaos_idx < len(self._chaos):
            nxt = min(nxt, now + self._chaos[self._chaos_idx].at - self.cycles_pumped)
        if self._recovery_armed:
            interval = self.config.checkpoint_interval
            nxt = min(nxt, now + interval - self.cycles_pumped % interval)
        for sess in self._residents():
            if sess.failed:
                return now + 1
            if sess._pending is not None:
                at = sess._eligible_at
                deadline = sess.spec.deadline_cycles
                if deadline:
                    at = min(at, sess._pending_since + deadline + 1)
                if at <= now + 1:
                    return now + 1
                nxt = min(nxt, at)
            elif not sess._exhausted:
                # Throttled at this cycle's send phase: last_cycle == now.
                nxt = sess._bucket.ready_at(nxt)
            elif not sess.host.outstanding:
                return now + 1
        return nxt

    def _receive(self, resident: List[Session], faults_seen: int) -> bool:
        """The receive that ends a pumped cycle: drain every live
        resident whose host link holds a response, in slot order.
        True when the pass must end at this cycle — a resident finished
        and retires now, or a link fault counter moved and is attributed
        now."""
        xbars = self.sim.devices[0].xbars
        finished = False
        for sess in resident:
            # Host.responses_queued() of a host partitioned onto (0, slot):
            if sess.failed or not xbars[sess.slot].rsp._q:
                continue
            before = sess.host.mark()
            sess.host.drain_responses()
            _, received, errors, latencies = sess.host.delta(before)
            acct = sess.account
            acct.responses += received
            acct.errors += errors
            acct.latencies.extend(latencies)
            deadline = sess.spec.deadline_cycles
            if deadline:
                acct.deadline_misses += sum(
                    1 for lat in latencies if lat > deadline
                )
            finished = finished or sess.finished
        states = self.sim._link_fault_states
        return finished or (bool(states) and _fault_events(states) != faults_seen)

    def _charge(self, resident: List[Session], ran: int, tripped: bool,
                was_degraded: bool) -> None:
        """Book *ran* pumped cycles: charge every live resident, replay
        the send phase of each cycle after the first — the tripped
        cycle's too, which ran before its clock did — for the throttled
        sessions, and attribute link faults."""
        throttled = ran if tripped else ran - 1
        live = 0
        for sess in resident:
            if sess.failed:
                continue
            live += 1
            acct = sess.account
            acct.slot_cycles += ran
            if throttled and sess._pending is None and not sess._exhausted:
                sess._bucket.wait(throttled)
                acct.throttle_cycles += throttled
        self.active_session_cycles += ran * live
        self.cycles_pumped += ran
        states = self.sim._link_fault_states
        if states:
            self._attribute_faults(resident)
            # Only the last cycle can have moved the link health.
            degraded = (ran - 1) * was_degraded + _degraded(states)
            if degraded:
                for sess in resident:
                    if not sess.failed:
                        sess.account.degraded_cycles += degraded

    def _send_phase(self, sess: Session, cycle: int) -> None:
        """Inject as many of *sess*'s requests as the gates allow."""
        acct = sess.account
        sent_any = False
        throttled = False
        while True:
            if sess._pending is None:
                if sess._exhausted:
                    break
                if not sess._bucket.ready(cycle):
                    throttled = True
                    break
                try:
                    item = next(sess._it)
                except StopIteration:
                    sess._exhausted = True
                    break
                sess._bucket.consume(cycle)
                eligible = self.port.admit(cycle)
                acct.network_delay_cycles += eligible - cycle
                sess._pending = item
                sess._pending_since = cycle
                sess._eligible_at = eligible
                if self._journaling:
                    sess._consumed.append(item)
            deadline = sess.spec.deadline_cycles
            if deadline and cycle - sess._pending_since > deadline:
                # The head request aged out before it could inject
                # (fabric backlog / stalls): an E_DEADLINE drop, billed
                # as a miss.  It was never injected, so conservation
                # (requests == responses + lost_inflight) is untouched.
                acct.deadline_misses += 1
                sess._pending = None
                continue
            if cycle < sess._eligible_at:
                break  # still crossing the fabric
            cmd, addr, payload = sess._pending
            if sess.spec.cub is not None:
                cub, local = sess.spec.cub, addr % self._capacity
            else:
                # Pool-wide address space: each capacity-sized block
                # lives on the next cube of the chain, so co-resident
                # tenants exercise (and contend on) the chain links.
                cub, local = divmod(addr, self._capacity)
                cub %= self._ncubs
            try:
                tag = sess.host.send_request(cmd, local, cub=cub, payload=payload)
            except LinkDeadError:
                self._fail_session(sess, "link_failed")
                return
            if tag is None:
                acct.send_stalls += 1
                break
            sess._pending = None
            acct.requests_sent += 1
            acct.bytes_read += _READ_BYTES.get(cmd, 0)
            acct.bytes_written += _WRITE_BYTES.get(cmd, 0)
            sent_any = True
        if throttled and not sent_any:
            acct.throttle_cycles += 1

    # -- fault attribution ----------------------------------------------------

    def _attribute_faults(self, resident: List[Session]) -> None:
        states = self.sim._link_fault_states
        active = [s for s in resident if not s.failed]
        while len(self._fault_base) < len(states):
            self._fault_base.append((0, 0))  # state attached mid-run
        for i, st in enumerate(states):
            prev_ir, prev_deg = self._fault_base[i]
            ir, deg = st.stats.irtry_events, st.degradations
            d_ir, d_deg = ir - prev_ir, deg - prev_deg
            if not d_ir and not d_deg:
                continue
            self._fault_base[i] = (ir, deg)
            ep = st.endpoints[0]
            if self.sim.link_peer(*ep) == "host":
                # Host link: the slot has exactly one owner — exact charge.
                owner = self.sessions.get(ep[1]) if ep[0] == 0 else None
                if owner is not None and not owner.failed:
                    owner.account.hostlink_retries += d_ir
                    owner.account.degradations_seen += d_deg
                else:
                    self.unattributed_retries += d_ir
                    self.unattributed_degradations += d_deg
            elif active:
                # Chain link: shared by construction — charge each unit
                # event round-robin so the split stays integer-exact.
                for _ in range(d_ir):
                    active[self._rr % len(active)].account.shared_retries += 1
                    self._rr += 1
                for _ in range(d_deg):
                    active[self._rr % len(active)].account.degradations_seen += 1
                    self._rr += 1
            else:
                self.unattributed_retries += d_ir
                self.unattributed_degradations += d_deg

    # -- chaos injection ------------------------------------------------------

    def _fire_chaos(self) -> Optional[List[Session]]:
        """Fire every due chaos event (exactly once each).

        Returns a displaced-session list when a crash-kind event ended
        the pump (empty when the crash was recovered in place), or
        ``None`` when pumping should continue normally.
        """
        while self._chaos_idx < len(self._chaos):
            ev = self._chaos[self._chaos_idx]
            if ev.at > self.cycles_pumped:
                return None
            self._chaos_idx += 1
            fired = ev.as_dict()
            fired["fired_at"] = self.cycles_pumped
            self.chaos_fired.append(fired)
            if ev.kind == "shard_crash":
                return self._crash("chaos: shard_crash", status="crashed")
            if ev.kind == "watchdog_trip":
                return self._crash("chaos: watchdog_trip", status="watchdog")
            if ev.kind == "link_kill":
                self._chaos_kill_link(ev)
            elif ev.kind == "link_degrade":
                self._chaos_degrade_link(ev)
            elif ev.kind == "latency_spike":
                self.port.spike(
                    ev.extra_delay, self.sim.clock_value + ev.duration
                )
        return None

    def _chaos_link_state(self, dev: int, link: int):
        """The in-band state covering (dev, link), attaching a clean
        one when the link is configured but unarmed; None when the
        event targets a link this topology does not have."""
        state = self.sim._link_faults.get((dev, link))
        if state is not None:
            return state
        if self.sim.link_peer(dev, link) is None:
            return None
        from repro.faults.link_model import LinkFaultModel

        return self.sim.attach_link_fault(
            dev, link, LinkFaultModel(ber=0.0, drop_rate=0.0, seed=1)
        )

    def _chaos_kill_link(self, ev: ChaosEvent) -> None:
        state = self._chaos_link_state(ev.dev, ev.link)
        if state is None or state.health is LinkHealth.FAILED:
            return
        state.fail()
        self.sim._note_link_failure(state)

    def _chaos_degrade_link(self, ev: ChaosEvent) -> None:
        state = self._chaos_link_state(ev.dev, ev.link)
        if state is None:
            return
        state.force_degrade(self.sim.clock_value, self.sim.tracer)
        if state.health is LinkHealth.FAILED:
            self.sim._note_link_failure(state)

    # -- epoch checkpointing & crash recovery ---------------------------------

    def _take_epoch(self) -> None:
        """Checkpoint everything a restore needs to resume this shard.

        The sim and the per-slot hosts are pickled in one bundle (so
        restored hosts share the restored sim); everything else —
        session cursors, account countables, shard counters — is copied
        as plain data.  Request iterators are generators and cannot be
        pickled: the journal marks recorded here are what makes them
        resumable.  Latencies are append-only between epochs, so their
        length is the whole record.
        """
        self._epoch_due = False
        sessions: Dict[int, dict] = {}
        accounts: Dict[int, dict] = {}
        hosts: Dict[int, Host] = {}
        for slot, sess in self.sessions.items():
            hosts[slot] = sess.host
            sessions[slot] = {
                "pending": sess._pending,
                "pending_since": sess._pending_since,
                "eligible_at": sess._eligible_at,
                "exhausted": sess._exhausted,
                "bucket": (sess._bucket.tokens, sess._bucket.last_cycle),
                "mark": len(sess._consumed),
            }
            snap = {f: getattr(sess.account, f) for f in _ACCT_EPOCH_FIELDS}
            snap["latencies"] = len(sess.account.latencies)
            accounts[slot] = snap
        self._epoch = {
            "blob": snapshot_bundle(self.sim, hosts, store=self._page_store),
            "sessions": sessions,
            "accounts": accounts,
            "cycles_pumped": self.cycles_pumped,
            "active_session_cycles": self.active_session_cycles,
            "unattributed_retries": self.unattributed_retries,
            "unattributed_degradations": self.unattributed_degradations,
            "fault_base": list(self._fault_base),
            "rr": self._rr,
            "port": self.port.state(),
            "free_slots": list(self.free_slots),
            "dead_slots": list(self.dead_slots),
        }

    def _crash(self, reason: str, status: str = "crashed") -> List[Session]:
        """The shard lost its volatile state.

        With recovery armed and budget left: restore the last epoch and
        resume (the granted-request journal replays deterministically);
        otherwise retire terminally, displacing every resident session
        with *status* so the front end can fail them over.
        """
        self.crashes += 1
        if (
            self._recovery_armed
            and self._epoch is not None
            and self.recoveries < self.config.max_shard_recoveries
        ):
            self._restore_epoch(reason)
            return []
        return self._retire_shard(reason, status=status)

    def _restore_epoch(self, reason: str) -> None:
        ep = self._epoch
        lost_cycles = self.cycles_pumped - ep["cycles_pumped"]
        sim, (hosts,) = restore_bundle(ep["blob"], store=self._page_store)
        self.sim = sim  # the crashed sim is discarded
        replayed_total = 0
        for slot in sorted(self.sessions):
            sess = self.sessions[slot]
            st = ep["sessions"][slot]
            sess.host = hosts[slot]
            sess._bucket.tokens, sess._bucket.last_cycle = st["bucket"]
            sess._pending = st["pending"]
            sess._pending_since = st["pending_since"]
            sess._eligible_at = st["eligible_at"]
            sess._exhausted = st["exhausted"]
            # A session failed between the epoch and the crash (e.g. a
            # link died the same pump the watchdog tripped) resumes
            # with everyone else: the restore healed its world.
            sess.failed = False
            sess.done = False
            mark = st["mark"]
            replay = sess._consumed[mark:]
            if replay:
                # Re-feed the post-epoch journal ahead of the original
                # iterator; the truncated journal regrows identically
                # as the replay is re-consumed.
                sess._it = chain(iter(replay), sess._it)
                del sess._consumed[mark:]
            acct = sess.account
            snap = ep["accounts"][slot]
            for f in _ACCT_EPOCH_FIELDS:
                setattr(acct, f, snap[f])
            del acct.latencies[snap["latencies"]:]
            acct.replayed_requests += len(replay)
            acct.replay_cycles += lost_cycles
            acct.crash_recoveries += 1
            replayed_total += len(replay)
        self.cycles_pumped = ep["cycles_pumped"]
        self.active_session_cycles = ep["active_session_cycles"]
        self.unattributed_retries = ep["unattributed_retries"]
        self.unattributed_degradations = ep["unattributed_degradations"]
        self._fault_base = list(ep["fault_base"])
        self._rr = ep["rr"]
        self.port.restore_state(ep["port"])
        self.free_slots = list(ep["free_slots"])
        self.dead_slots = list(ep["dead_slots"])
        self.recoveries += 1
        self.recovery_events.append({
            "kind": "crash_recovered",
            "reason": reason,
            "at_cycle": ep["cycles_pumped"] + lost_cycles,
            "restored_to": ep["cycles_pumped"],
            "replay_cycles": lost_cycles,
            "replayed_requests": replayed_total,
            "recovery": self.recoveries,
        })

    # -- retirement -----------------------------------------------------------

    def _fail_session(self, sess: Session, status: str) -> None:
        sess.failed = True
        sess.done = True
        sess.account.status = status

    def _retire_shard(self, reason: str, status: str = "watchdog") -> List[Session]:
        """Terminal: the whole shard is retired, sessions are displaced."""
        self.dead = True
        self.dead_reason = reason
        completed = self._residents()
        for sess in completed:
            self._fail_session(sess, status)
            self.dead_slots.append(sess.slot)
        self.sessions.clear()
        self._resident = None
        self.free_slots.clear()
        self.recovery_events.append({
            "kind": "shard_retired",
            "reason": reason,
            "at_cycle": self.cycles_pumped,
            "displaced": len(completed),
        })
        return completed

    def _residents(self) -> List[Session]:
        """``sessions`` in slot order, re-sorted after a lease or retirement."""
        if self._resident is None:
            self._resident = [self.sessions[s] for s in sorted(self.sessions)]
        return self._resident

    def _retire_finished(self) -> List[Session]:
        completed: List[Session] = []
        for sess in self._residents():
            slot = sess.slot
            if sess.failed:
                # The slot's link is dead; never lease it again.
                del self.sessions[slot]
                self.dead_slots.append(slot)
                completed.append(sess)
            elif sess.finished:
                sess.done = True
                sess.account.status = "done"
                del self.sessions[slot]
                self.free_slots.append(slot)
                self.free_slots.sort()
                completed.append(sess)
        self._resident = None
        return completed

    # -- reporting ------------------------------------------------------------

    def traffic_delta(self) -> Tuple[int, int]:
        """(packets_sent, packets_received) since tenant traffic began."""
        return (
            self.sim.packets_sent - self.base_packets_sent,
            self.sim.packets_received - self.base_packets_received,
        )

    def fault_event_total(self) -> Tuple[int, int]:
        """(irtry_events, degradations) since tenant traffic began."""
        ir = deg = 0
        for st in self.sim._link_fault_states:
            ir += st.stats.irtry_events
            deg += st.degradations
        # Subtract the provisioning-era baseline captured at creation.
        for b_ir, b_deg in self._fault_base0:
            ir -= b_ir
            deg -= b_deg
        return ir, deg

    def stats(self) -> dict:
        sent, received = self.traffic_delta()
        out = {
            "shard": self.shard_id,
            "dead": self.dead,
            "dead_reason": self.dead_reason,
            "dead_slots": list(self.dead_slots),
            "cycles_pumped": self.cycles_pumped,
            "sim_cycles": self.sim.clock_value - self.base_cycle,
            "packets_sent": sent,
            "packets_received": received,
            "send_stalls": self.sim.send_stalls - self.base_send_stalls,
            "active_session_cycles": self.active_session_cycles,
            "unattributed_retries": self.unattributed_retries,
            "unattributed_degradations": self.unattributed_degradations,
            "port": {
                "admitted": self.port.admitted,
                "queued_cycles": self.port.queued_cycles,
            },
            "crashes": self.crashes,
            "recoveries": self.recoveries,
        }
        if self.recovery_events:
            out["recovery_events"] = list(self.recovery_events)
        if self.chaos_fired:
            out["chaos_fired"] = list(self.chaos_fired)
        if self.sim._link_fault_states:
            out["links"] = {
                f"dev{st.endpoints[0][0]}.link{st.endpoints[0][1]}":
                    st.stats_dict()
                for st in self.sim._link_fault_states
            }
        return out

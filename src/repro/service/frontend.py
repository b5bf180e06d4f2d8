"""The async front end: many tenants, one deterministic driver.

:class:`MemoryService` multiplexes an arbitrary number of concurrent
simulated-tenant request streams onto a bounded pool of chained-cube
shards.  Concurrency and determinism coexist through a strict division
of labour:

* every tenant is an :mod:`asyncio` task, but tenant tasks only *await*
  — a lease future resolved by admission, then a completion future
  resolved when their stream drains.  They never touch a simulator.
* one driver coroutine owns all simulated state.  Each scheduler tick
  it grants leases in ``(priority, arrival)`` order, pumps every busy
  shard ``cycles_per_yield`` cycles in shard order, resolves completed
  sessions, and yields the event loop once.

Because the driver's work per tick is a pure function of (config,
specs) — no wall clock, no RNG, no dependence on event-loop scheduling
order — a service run over thousands of tenants produces bit-identical
per-tenant accounting on every execution, on the engine and on the
tests' full-walk reference.  Wall-clock timing appears only in the
spin-up metrics
(:mod:`repro.service.sessions`), clearly segregated in the report.

Failure containment: a dead host link fails only its session (the slot
is retired), a watchdog trip retires the whole shard and fails its
residents, and tenants that can never be placed (pool exhausted, all
shards dead) are failed with ``no_capacity`` — ``serve`` always
returns a complete report, it never hangs.

Self-healing (PR 8) — all of it disarmed by default, so a config with
the resilience knobs at zero behaves exactly as before:

* ``checkpoint_interval > 0``: shard crashes (chaos or an organic
  watchdog trip) restore the last epoch and replay the journal inside
  the shard (see :mod:`repro.service.shard`) instead of retiring it;
* ``failover_retries > 0``: a session displaced by a terminal failure
  (dead link, dead shard) re-queues onto a surviving — or respun —
  shard after an exponential backoff in *simulated* cycles, its
  unacknowledged request tail salvaged from the journal.  Lost
  in-flight requests are billed to ``lost_inflight`` so per-tenant
  conservation (``requests_sent == responses + lost_inflight``) holds;
* ``breaker_threshold > 0``: per-shard circuit breakers gate lease
  placement onto repeatedly-failing shards
  (:mod:`repro.service.recovery`);
* ``chaos``: a :class:`~repro.faults.chaos.ChaosSchedule` is sliced
  per shard at spin-up and fired by the shard's own pump at stamped
  pumped-cycle offsets — the single-driver determinism contract is
  untouched, so a chaos campaign is bit-reproducible.

The driver keeps a monotone simulated clock (``sim_time``, advanced
``cycles_per_yield`` per tick, busy or idle) that clocks backoffs and
breaker cooldowns; an idle-spin bound guarantees termination, shedding
whatever is still parked as ``no_capacity`` if the pool never heals.
The end-of-run report carries recovery events, breaker states, the
fired chaos events, a per-class SLO block and an invariant audit.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.accounting import AccountingLedger
from repro.service.admission import AdmissionController, Ticket
from repro.service.config import ServiceConfig, TenantSpec
from repro.service.recovery import CircuitBreaker
from repro.service.sessions import SessionPool
from repro.service.shard import Session, Shard

#: Displacement statuses eligible for failover (vs. ``done``).
FAILOVER_STATUSES = frozenset(("link_failed", "watchdog", "crashed"))


def specs_from_profiles(
    profiles: Sequence[dict], config: ServiceConfig
) -> List[TenantSpec]:
    """Turn :func:`repro.workloads.mixes.tenant_mix_profiles` output into
    tenant specs addressing the whole shard-wide address space."""
    capacity = config.devs_per_shard * config.device.capacity_bytes
    return [TenantSpec.from_profile(p, capacity) for p in profiles]


class MemoryService:
    """A rack-scale disaggregated memory service over simulated cubes."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.pool = SessionPool(self.config)
        self.admission = AdmissionController(self.config)
        self.ledger = AccountingLedger()
        self.shards: List[Shard] = []
        self.tick = 0
        self._completion: Dict[str, asyncio.Future] = {}
        # -- resilience state --------------------------------------------------
        #: Monotone simulated time: cycles_per_yield per driver tick,
        #: busy or idle.  Clocks failover backoffs and breaker cooldowns.
        self.sim_time = 0
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._failover_attempts: Dict[str, int] = {}
        #: Set when a breaker refused an otherwise-free slot this tick —
        #: the idle loop keeps time advancing until the cooldown expires.
        self._leases_blocked = False
        # Termination bound for the idle loop: enough ticks to outlast
        # the longest backoff and a breaker cooldown with slack.
        cfg = self.config
        horizon = max(
            cfg.breaker_cooldown,
            cfg.failover_backoff << max(0, cfg.failover_retries - 1),
        )
        self._idle_limit = 8 + (8 * horizon) // cfg.cycles_per_yield

    # -- pool management ------------------------------------------------------

    def _spin_up_shard(self) -> Tuple[Shard, float]:
        sim, ms = self.pool.spin_up()
        shard = Shard(len(self.shards), sim, self.config)
        shard.spin_up_ms = ms
        self.shards.append(shard)
        if self.config.chaos is not None:
            shard.install_chaos(self.config.chaos.for_shard(shard.shard_id))
        if self.config.breaker_threshold > 0:
            self._breakers[shard.shard_id] = CircuitBreaker(
                self.config.breaker_threshold, self.config.breaker_cooldown
            )
        return shard, ms

    def _find_free_slot(self) -> Tuple[Optional[Shard], float, bool]:
        """Lowest shard with a free slot, growing the pool if allowed.

        Returns ``(shard, spin_up_ms, blocked)`` — the wall cost is
        nonzero only when this call had to spin a new shard up, and is
        attributed to the lease that triggered the growth; *blocked* is
        True when a free slot existed but its breaker refused placement
        (the caller should keep simulated time moving rather than shed).

        With failover armed, dead shards no longer count against
        ``max_shards`` — the pool respins replacements for retired
        shards, which is what makes displaced sessions placeable again.
        """
        blocked = False
        for shard in self.shards:
            if not shard.has_free_slot:
                continue
            breaker = self._breakers.get(shard.shard_id)
            if breaker is not None and not breaker.try_acquire(self.sim_time):
                blocked = True
                continue
            return shard, 0.0, blocked
        if self.config.failover_retries > 0:
            population = sum(1 for sh in self.shards if not sh.dead)
        else:
            population = len(self.shards)
        if population < self.config.max_shards:
            shard, ms = self._spin_up_shard()
            return shard, ms, blocked
        return None, 0.0, blocked

    # -- the tenant side ------------------------------------------------------

    async def _tenant_task(self, ticket: Ticket) -> str:
        """What one tenant does: wait for a lease, wait for completion."""
        granted = await ticket.future
        if granted:
            await self._completion[ticket.spec.tenant_id]
        return ticket.spec.tenant_id

    # -- the driver side ------------------------------------------------------

    def _grant_leases(self, loop: asyncio.AbstractEventLoop) -> None:
        self._leases_blocked = False
        while self.admission.waiting:
            shard, spun_ms, blocked = self._find_free_slot()
            if shard is None:
                self._leases_blocked = blocked
                break
            ticket = self.admission.next_grant(self.tick)
            tid = ticket.spec.tenant_id
            acct = self.ledger.get(tid)
            if ticket.grants == 1:
                acct.admission_wait_ticks = ticket.wait_ticks
            acct.lease_spin_up_ms += spun_ms
            shard.lease(ticket.spec, acct)
            if tid not in self._completion:
                self._completion[tid] = loop.create_future()
            if not ticket.future.done():
                # Failover re-grants find the lease future already
                # resolved; the tenant task is parked on completion.
                ticket.future.set_result(True)

    def _resolve(self, completed: List[Session]) -> None:
        """Terminal bookkeeping for sessions a pump handed back.

        Displaced sessions with failover budget left are re-queued
        instead of resolved; everything else gets its terminal status
        assigned exactly once (``finish``), its stranded in-flight
        requests billed, and its completion future resolved.
        """
        for sess in completed:
            tid = sess.spec.tenant_id
            acct = sess.account
            status = acct.status
            breaker = self._breakers.get(acct.shard_id)
            if status == "done":
                if breaker is not None:
                    breaker.record_success(self.sim_time)
                acct.finish("done")
            else:
                if breaker is not None:
                    breaker.record_failure(self.sim_time)
                if (
                    status in FAILOVER_STATUSES
                    and self._failover_attempts.get(tid, 0)
                    < self.config.failover_retries
                ):
                    self._failover(sess)
                    continue
                # Terminal failure: whatever was in flight is lost.
                acct.lost_inflight += sess.host.outstanding
                acct.finish(status)
            fut = self._completion.get(tid)
            if fut is not None and not fut.done():
                fut.set_result(acct.status)

    def _failover(self, sess: Session) -> None:
        """Re-queue a displaced session onto the pool after backoff.

        The journal's unacknowledged tail — in-flight requests plus the
        not-yet-injected pending head — is salvaged ahead of the
        original iterator, giving at-least-once semantics in original
        FIFO order.  The lost in-flight requests are billed now (the
        salvaged copies will be re-counted when re-sent, and answered).
        """
        tid = sess.spec.tenant_id
        acct = sess.account
        attempt = self._failover_attempts.get(tid, 0) + 1
        self._failover_attempts[tid] = attempt
        acct.failovers += 1
        acct.lost_inflight += sess.host.outstanding
        tail = sess.host.outstanding + (1 if sess._pending is not None else 0)
        consumed = sess._consumed
        salvage = consumed[len(consumed) - tail:] if tail else []
        stream = chain(iter(salvage), sess._it)
        ticket = self.admission.tickets[tid]
        ticket.spec = replace(sess.spec, requests=stream)
        backoff = self.config.failover_backoff << (attempt - 1)
        self.admission.requeue(ticket, self.sim_time + backoff)

    def _fail_ticket(self, ticket: Ticket) -> None:
        """Resolve one ticket as ``no_capacity`` (both futures)."""
        acct = self.ledger.get(ticket.spec.tenant_id)
        acct.finish("no_capacity")
        if ticket.grants == 1 and ticket.granted_tick is not None:
            acct.admission_wait_ticks = ticket.wait_ticks
        if not ticket.future.done():
            ticket.future.set_result(False)
        fut = self._completion.get(ticket.spec.tenant_id)
        if fut is not None and not fut.done():
            # A failed-over tenant already holds a granted lease future
            # and awaits completion instead.
            fut.set_result("no_capacity")

    def _fail_unplaceable(self) -> None:
        """No busy shard, no free slot, no growth left: shed the queue."""
        while self.admission.waiting:
            self._fail_ticket(self.admission.next_grant(self.tick))

    def _shed_everything(self) -> None:
        """Idle bound hit: the pool will never heal — shed parked and
        waiting tenants so ``serve`` terminates with a full report."""
        for ticket in self.admission.drain_parked():
            self._fail_ticket(ticket)
        self._fail_unplaceable()

    async def _drive(self) -> None:
        loop = asyncio.get_running_loop()
        cycles_per_yield = self.config.cycles_per_yield
        idle_spins = 0
        while True:
            self.admission.release_parked(self.sim_time)
            self._grant_leases(loop)
            busy = [sh for sh in self.shards if sh.busy]
            if busy:
                idle_spins = 0
                for shard in busy:
                    for _ in range(cycles_per_yield):
                        self._resolve(shard.pump())
                        if not shard.busy:
                            break
                self.tick += 1
                self.sim_time += cycles_per_yield
                await asyncio.sleep(0)
                continue
            # Idle: nothing is pumping.  Keep simulated time moving only
            # while something can still become placeable (a parked
            # backoff or a breaker cooldown); otherwise shed and stop.
            if self.admission.parked or self._leases_blocked:
                idle_spins += 1
                if idle_spins > self._idle_limit:
                    self._shed_everything()
                    break
                self.tick += 1
                self.sim_time += cycles_per_yield
                await asyncio.sleep(0)
                continue
            if self.admission.waiting:
                self._fail_unplaceable()
            break

    # -- entry points ---------------------------------------------------------

    async def serve(self, specs: Sequence[TenantSpec]) -> dict:
        """Serve every tenant in *specs* to completion; returns the report.

        Registration happens synchronously in spec order before any
        simulated work, so the admission queue — and therefore the whole
        run — is independent of event-loop scheduling.
        """
        loop = asyncio.get_running_loop()
        while len(self.shards) < self.config.initial_shards:
            self._spin_up_shard()
        tasks = []
        for spec in specs:
            acct = self.ledger.open(spec.tenant_id, spec.klass)
            ticket = self.admission.register(spec, self.tick)
            ticket.future = loop.create_future()
            if ticket.rejected:
                acct.finish("rejected")
                ticket.future.set_result(False)
            tasks.append(asyncio.ensure_future(self._tenant_task(ticket)))
        driver = asyncio.ensure_future(self._drive())
        await asyncio.gather(*tasks)
        await driver
        return self.report()

    def serve_sync(self, specs: Sequence[TenantSpec]) -> dict:
        """Blocking wrapper around :meth:`serve` (CLI, tests, benchmarks)."""
        return asyncio.run(self.serve(specs))

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict:
        """Statdump-style JSON tree for the whole service run."""
        accounting = self.ledger.report()
        totals = accounting["totals"]
        shard_stats = [sh.stats() for sh in self.shards]
        pool_sent = sum(s["packets_sent"] for s in shard_stats)
        pool_received = sum(s["packets_received"] for s in shard_stats)
        pool_active = sum(s["active_session_cycles"] for s in shard_stats)
        unattr_ir = sum(s["unattributed_retries"] for s in shard_stats)
        unattr_deg = sum(s["unattributed_degradations"] for s in shard_stats)
        pool_ir = sum(sh.fault_event_total()[0] for sh in self.shards)
        pool_deg = sum(sh.fault_event_total()[1] for sh in self.shards)
        consistency = {
            "tenant_requests": totals["requests_sent"],
            "pool_packets_sent": pool_sent,
            "requests_match": totals["requests_sent"] == pool_sent,
            "tenant_responses": totals["responses"],
            "pool_packets_received": pool_received,
            "responses_match": totals["responses"] == pool_received,
            "tenant_slot_cycles": totals["slot_cycles"],
            "pool_active_session_cycles": pool_active,
            "slot_cycles_match": totals["slot_cycles"] == pool_active,
            "tenant_retry_events":
                totals["hostlink_retries"] + totals["shared_retries"] + unattr_ir,
            "pool_retry_events": pool_ir,
            "retry_events_match":
                totals["hostlink_retries"] + totals["shared_retries"] + unattr_ir
                == pool_ir,
            "tenant_degradations": totals["degradations_seen"] + unattr_deg,
            "pool_degradations": pool_deg,
            "degradations_match":
                totals["degradations_seen"] + unattr_deg == pool_deg,
        }
        cfg = self.config
        recovery_events = []
        for sh in self.shards:
            for ev in sh.recovery_events:
                recovery_events.append(dict(ev, shard=sh.shard_id))
        recovery = {
            "crashes": sum(sh.crashes for sh in self.shards),
            "recoveries": sum(sh.recoveries for sh in self.shards),
            "failovers": totals["failovers"],
            "lost_inflight": totals["lost_inflight"],
            "replayed_requests": totals["replayed_requests"],
            "events": recovery_events,
        }
        if self._breakers:
            recovery["breakers"] = {
                str(sid): brk.as_dict()
                for sid, brk in sorted(self._breakers.items())
            }
        out = {
            "config": {
                "devs_per_shard": cfg.devs_per_shard,
                "slots_per_shard": cfg.slots_per_shard,
                "max_shards": cfg.max_shards,
                # A constant since the engine became the only one; two
                # hashes still contain it: tests/fixtures/serve_golden.json
                # and the spine's serve128_armed sim_fingerprint.
                "scheduler": "active",
                "spin_up": cfg.spin_up,
                "link_ber": cfg.link_ber,
                "link_drop_rate": cfg.link_drop_rate,
                "provision_requests": cfg.provision_requests,
                "checkpoint_interval": cfg.checkpoint_interval,
                "failover_retries": cfg.failover_retries,
                "breaker_threshold": cfg.breaker_threshold,
            },
            "ticks": self.tick,
            "admission": self.admission.stats(),
            "spin_up": self.pool.stats.as_dict(),
            "shards": shard_stats,
            "accounting": accounting,
            "consistency": consistency,
            "recovery": recovery,
        }
        if cfg.chaos is not None:
            out["chaos"] = {
                "schedule": cfg.chaos.as_dict(),
                "fired": [
                    dict(ev, shard=sh.shard_id)
                    for sh in self.shards
                    for ev in sh.chaos_fired
                ],
            }
        # Computed last: both walk the assembled report tree.
        from repro.analysis.tenants import audit_report, slo_report

        out["slo"] = slo_report(out)
        out["audit"] = audit_report(out)
        return out

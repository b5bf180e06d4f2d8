"""Admission control and QoS: rate limits, priorities, network delay.

Three deterministic mechanisms sit between a tenant and the cube pool:

* :class:`TokenBucket` — per-tenant rate limiting in simulated cycles.
  A tenant whose bucket is dry holds its next request until tokens
  accrue; the throttled cycles are accounted to the tenant.
* :class:`FabricPort` — the tenant↔pool network, modelled as a
  deterministic G/D/1 queue per shard: each admitted request departs at
  ``max(arrival + base_delay, previous_departure + interval)``, so
  queueing delay emerges under contention without any randomness.
* :class:`AdmissionController` — the lease queue.  Tenants register in
  a fixed order; free slots are granted in ``(priority class,
  registration sequence)`` order, so gold tenants pass the queue first
  but never starve an earlier gold arrival.  A full queue (``max_waiting``)
  rejects new tenants outright — overload sheds load at the front door
  instead of collapsing the pool.

Everything here is pure bookkeeping on integers and floats fed from
simulated cycle counts — no wall clock, no RNG — which is what makes a
whole service run reproducible bit-for-bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.config import PriorityClass, ServiceConfig, TenantSpec


class TokenBucket:
    """Cycle-based token bucket: ``rate`` tokens/cycle, ``burst`` cap.

    ``rate=0`` disables limiting (always ready).  Refill is computed
    lazily from the cycle delta, so idle tenants pay nothing.
    """

    __slots__ = ("rate", "burst", "tokens", "last_cycle")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = max(1.0, float(burst))
        self.tokens = self.burst
        self.last_cycle = 0

    def _refill(self, cycle: int) -> None:
        if cycle > self.last_cycle:
            self.tokens = min(self.burst,
                              self.tokens + self.rate * (cycle - self.last_cycle))
            self.last_cycle = cycle

    def ready(self, cycle: int) -> bool:
        if self.rate <= 0:
            return True
        self._refill(cycle)
        return self.tokens >= 1.0

    def consume(self, cycle: int) -> None:
        if self.rate <= 0:
            return
        self._refill(cycle)
        self.tokens -= 1.0


class FabricPort:
    """Deterministic G/D/1 queue: the shared network port of one shard."""

    __slots__ = ("base_delay", "interval", "_last_departure", "admitted",
                 "queued_cycles", "spike_extra", "spike_until")

    def __init__(self, base_delay: int, interval: float) -> None:
        self.base_delay = int(base_delay)
        self.interval = float(interval)
        self._last_departure = 0.0
        #: Requests that crossed the port / total queueing delay beyond
        #: the base latency (both lifetime, for the shard report).
        self.admitted = 0
        self.queued_cycles = 0
        #: Chaos latency spike: extra base delay applied while the
        #: arrival cycle is below ``spike_until``.
        self.spike_extra = 0
        self.spike_until = 0

    def admit(self, cycle: int) -> int:
        """Admit one request arriving at *cycle*; returns the cycle at
        which it becomes eligible to inject at the cube pool."""
        delay = self.base_delay
        if cycle < self.spike_until:
            delay += self.spike_extra
        earliest = cycle + delay
        departure = max(float(earliest), self._last_departure + self.interval)
        self._last_departure = departure
        eligible = int(departure)
        self.admitted += 1
        self.queued_cycles += eligible - earliest
        return eligible

    def spike(self, extra: int, until: int) -> None:
        """Raise the port's base delay by *extra* until cycle *until*."""
        self.spike_extra = int(extra)
        self.spike_until = int(until)

    def state(self) -> tuple:
        """Resumable counters (epoch checkpointing)."""
        return (self._last_departure, self.admitted, self.queued_cycles,
                self.spike_extra, self.spike_until)

    def restore_state(self, state: tuple) -> None:
        (self._last_departure, self.admitted, self.queued_cycles,
         self.spike_extra, self.spike_until) = state


@dataclass
class Ticket:
    """One tenant's place in the admission queue."""

    spec: TenantSpec
    seq: int
    registered_tick: int
    granted_tick: Optional[int] = None
    rejected: bool = False
    #: Times this ticket has been granted a lease — 1 on the normal
    #: path; >1 when failover re-queues the tenant after displacement.
    grants: int = 0
    #: Set by the front end so awaiting tenant tasks can be woken.
    future: object = field(default=None, repr=False, compare=False)

    @property
    def wait_ticks(self) -> Optional[int]:
        if self.granted_tick is None:
            return None
        return self.granted_tick - self.registered_tick


class AdmissionController:
    """Priority lease queue with bounded waiting room."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._seq = 0
        self._waiting: List[tuple] = []  # heap of (class, seq, Ticket)
        #: Failover backoff room: heap of (eligible_at, class, seq,
        #: Ticket) — re-queued tenants park here until their backoff
        #: expires, then re-enter the waiting heap at their original
        #: (class, seq) priority.
        self._parked: List[tuple] = []
        self.tickets: Dict[str, Ticket] = {}
        # Stats.
        self.registered = 0
        self.granted = 0
        self.rejected = 0
        self.requeued = 0
        self.wait_ticks: List[int] = []

    def register(self, spec: TenantSpec, tick: int) -> Ticket:
        """Queue one tenant for a slot lease; may reject on overload."""
        if spec.tenant_id in self.tickets:
            raise ValueError(f"tenant {spec.tenant_id!r} already registered")
        ticket = Ticket(spec=spec, seq=self._seq, registered_tick=tick)
        self._seq += 1
        self.registered += 1
        self.tickets[spec.tenant_id] = ticket
        if self.config.max_waiting and len(self._waiting) >= self.config.max_waiting:
            ticket.rejected = True
            self.rejected += 1
            return ticket
        heapq.heappush(
            self._waiting, (int(ticket.spec.klass), ticket.seq, ticket)
        )
        return ticket

    def next_grant(self, tick: int) -> Optional[Ticket]:
        """Pop the highest-priority waiting ticket, if any.

        Queue stats count each *tenant* once: a failover re-grant
        (``ticket.grants > 1``) neither increments ``granted`` nor adds
        a wait sample, so ``registered == granted + rejected`` stays an
        auditor invariant however many times a tenant is re-placed.
        """
        if not self._waiting:
            return None
        _, _, ticket = heapq.heappop(self._waiting)
        ticket.granted_tick = tick
        ticket.grants += 1
        if ticket.grants == 1:
            self.granted += 1
            self.wait_ticks.append(ticket.wait_ticks)
        return ticket

    def requeue(self, ticket: Ticket, eligible_at: int) -> None:
        """Park a displaced tenant until its failover backoff expires."""
        heapq.heappush(
            self._parked,
            (eligible_at, int(ticket.spec.klass), ticket.seq, ticket),
        )
        self.requeued += 1

    def release_parked(self, now: int) -> int:
        """Move every parked ticket whose backoff expired back into the
        waiting heap; returns how many were released."""
        released = 0
        while self._parked and self._parked[0][0] <= now:
            _, klass, seq, ticket = heapq.heappop(self._parked)
            heapq.heappush(self._waiting, (klass, seq, ticket))
            released += 1
        return released

    @property
    def waiting(self) -> int:
        return len(self._waiting)

    @property
    def parked(self) -> int:
        return len(self._parked)

    def drain_parked(self) -> List[Ticket]:
        """Remove and return every parked ticket (overload shedding)."""
        out = [t for _, _, _, t in self._parked]
        self._parked.clear()
        return out

    def stats(self) -> dict:
        out = {
            "registered": self.registered,
            "granted": self.granted,
            "rejected": self.rejected,
            "waiting": self.waiting,
            "parked": self.parked,
            "requeued": self.requeued,
        }
        if self.wait_ticks:
            waits = sorted(self.wait_ticks)
            out["wait_ticks"] = {
                "mean": sum(waits) / len(waits),
                "max": waits[-1],
                "p50": waits[len(waits) // 2],
            }
        return out

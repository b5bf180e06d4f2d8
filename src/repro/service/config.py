"""Service-level configuration: tenants, priorities, pool shape.

The rack-scale memory service multiplexes many simulated tenants onto a
pool of *shards* — independent :class:`~repro.core.simulator.HMCSim`
objects, each a chained-cube topology with several host links.  Every
host link is one *slot*: a tenant session leases a slot, drives its
request stream through a partitioned :class:`~repro.host.host.Host`
bound to that link, and releases the slot when the stream drains.

All knobs live here so a service run is fully described by one
:class:`ServiceConfig` plus a list of :class:`TenantSpec` — the same
pair always reproduces the same simulated outcome, bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro.core.config import DeviceConfig, SimConfig
from repro.core.errors import InitError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.chaos import ChaosSchedule


class PriorityClass(enum.IntEnum):
    """Tenant service classes; lower value = served first."""

    GOLD = 0
    SILVER = 1
    BRONZE = 2

    @classmethod
    def parse(cls, name: "str | PriorityClass") -> "PriorityClass":
        if isinstance(name, cls):
            return name
        try:
            return cls[str(name).upper()]
        except KeyError:
            raise InitError(
                f"unknown priority class {name!r} "
                f"(want one of {[c.name.lower() for c in cls]})"
            ) from None


@dataclass
class TenantSpec:
    """One simulated tenant: identity, QoS class and workload.

    ``requests`` yields ``(cmd, addr, payload)`` tuples (the host run
    loop's request shape).  ``rate`` is the token-bucket refill in
    requests per simulated cycle (0 disables rate limiting); ``burst``
    is the bucket capacity.  ``cub`` pins all traffic to one cube of
    the leased shard; ``None`` spreads requests across the shard's
    chain by address block, which is what makes co-resident tenants
    contend on chain links.  ``deadline_cycles`` is the per-request
    service deadline (0 = none): a response arriving later — or a head
    request that cannot even inject within the deadline — is billed as
    a ``deadline_misses`` count (errno ``E_DEADLINE``) feeding the
    per-class SLO report.
    """

    tenant_id: str
    requests: Iterator[Tuple]
    klass: PriorityClass = PriorityClass.BRONZE
    rate: float = 0.0
    burst: float = 8.0
    cub: Optional[int] = None
    deadline_cycles: int = 0

    def __post_init__(self) -> None:
        if self.deadline_cycles < 0:
            raise InitError(
                f"deadline_cycles must be >= 0 (0 disables the deadline), "
                f"got {self.deadline_cycles}"
            )

    @classmethod
    def from_profile(cls, profile: dict, capacity_bytes: int) -> "TenantSpec":
        """Build a spec from a :func:`repro.workloads.mixes.tenant_mix_profiles`
        entry."""
        from repro.workloads.mixes import tenant_requests

        return cls(
            tenant_id=str(profile["tenant_id"]),
            requests=tenant_requests(profile, capacity_bytes),
            klass=PriorityClass.parse(profile.get("klass", "bronze")),
            rate=float(profile.get("rate", 0.0)),
            burst=float(profile.get("burst", 8.0)),
            deadline_cycles=int(profile.get("deadline_cycles", 0)),
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Shape and policy of one memory-service deployment."""

    #: Physical shape of every shard's devices.
    device: DeviceConfig = field(default_factory=DeviceConfig)
    #: Cubes chained per shard (the "chained-cube pool" members).
    devs_per_shard: int = 2
    #: Host links (= concurrent tenant slots) per shard, on dev 0.
    slots_per_shard: int = 2
    #: Shards spun up before the first lease is granted.
    initial_shards: int = 1
    #: Pool growth ceiling; demand beyond ``max_shards * slots`` queues
    #: in the admission controller.
    max_shards: int = 4
    #: In-band link fault knobs, forwarded to each shard's SimConfig.
    link_ber: float = 0.0
    link_drop_rate: float = 0.0
    link_seed: int = 1
    watchdog_cycles: int = 0
    #: Provisioning traffic baked into the warm template: the cold boot
    #: runs this many random-access requests (link training + row
    #: warm-up) before a shard is serviceable; warm spin-up restores
    #: the post-provisioning snapshot instead of re-running them.
    provision_requests: int = 256
    provision_seed: int = 97
    #: Shard spin-up mode: "warm" (checkpoint restore) or "cold"
    #: (rebuild + re-provision).  Both produce bit-identical shards;
    #: only the wall-clock cost differs (docs/service.md).
    spin_up: str = "warm"
    #: Deterministic tenant↔pool network model: a request leaving the
    #: tenant crosses a shared per-shard fabric port with this service
    #: interval (cycles per request; the G/D/1 queueing delay under
    #: contention) after a fixed base latency (cycles).
    network_base_delay: int = 8
    network_port_interval: float = 0.25
    #: Admission bound: tenants beyond this many waiting leases are
    #: rejected outright (0 = unbounded queue).
    max_waiting: int = 0
    #: Async front end: simulated cycles advanced between event-loop
    #: yields (higher = less asyncio overhead, coarser liveness).
    cycles_per_yield: int = 64
    #: -- resilience (all disarmed by default: 0 = PR-6 behaviour) ----
    #: Pumped cycles between epoch checkpoints of each shard (plus a
    #: forced epoch at every lease and retirement).  0 disarms shard
    #: crash-recovery: a crash retires the shard terminally.
    checkpoint_interval: int = 0
    #: Epoch restores allowed per shard before a crash turns terminal.
    max_shard_recoveries: int = 2
    #: Failover budget per tenant: how many times a displaced session
    #: (dead link / dead shard) is re-queued onto surviving or respun
    #: shards.  0 disarms failover (and pool respin): failures are
    #: terminal, exactly as before.
    failover_retries: int = 0
    #: Base failover backoff in simulated cycles; attempt *n* waits
    #: ``failover_backoff << (n - 1)`` cycles before re-queuing.
    failover_backoff: int = 64
    #: Consecutive session failures that open a shard's circuit
    #: breaker (0 = breakers disabled).
    breaker_threshold: int = 0
    #: Simulated cycles an open breaker waits before its half-open
    #: probe lease.
    breaker_cooldown: int = 1024
    #: Declarative fault campaign (:class:`repro.faults.chaos.ChaosSchedule`)
    #: injected by the driver; ``None`` = no chaos.
    chaos: "Optional[ChaosSchedule]" = None

    def __post_init__(self) -> None:
        if self.devs_per_shard <= 0:
            raise InitError("devs_per_shard must be positive")
        if not 1 <= self.slots_per_shard <= self.device.num_links:
            raise InitError(
                f"slots_per_shard must be 1..{self.device.num_links}, "
                f"got {self.slots_per_shard}"
            )
        if self.devs_per_shard > 1 and self.slots_per_shard >= self.device.num_links:
            raise InitError(
                "a chained shard needs a free link for the chain hop; "
                f"slots_per_shard must be < {self.device.num_links}"
            )
        if self.initial_shards < 0 or self.max_shards <= 0:
            raise InitError("shard counts must be positive")
        if self.initial_shards > self.max_shards:
            raise InitError("initial_shards cannot exceed max_shards")
        if self.spin_up not in ("warm", "cold"):
            raise InitError(f"spin_up must be 'warm' or 'cold', got {self.spin_up!r}")
        if self.provision_requests < 0:
            raise InitError("provision_requests must be >= 0")
        if self.network_base_delay < 0 or self.network_port_interval < 0:
            raise InitError("network model parameters must be >= 0")
        if self.max_waiting < 0:
            raise InitError("max_waiting must be >= 0")
        if self.cycles_per_yield <= 0:
            raise InitError("cycles_per_yield must be positive")
        if self.checkpoint_interval < 0:
            raise InitError(
                f"checkpoint_interval must be >= 0 (0 disarms recovery), "
                f"got {self.checkpoint_interval}"
            )
        if self.max_shard_recoveries < 0:
            raise InitError(
                f"max_shard_recoveries must be >= 0, "
                f"got {self.max_shard_recoveries}"
            )
        if self.failover_retries < 0:
            raise InitError(
                f"failover_retries must be >= 0 (0 disarms failover), "
                f"got {self.failover_retries}"
            )
        if self.failover_backoff <= 0:
            raise InitError(
                f"failover_backoff must be positive cycles, "
                f"got {self.failover_backoff}"
            )
        if self.breaker_threshold < 0:
            raise InitError(
                f"breaker_threshold must be >= 0 (0 disables breakers), "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0:
            raise InitError(
                f"breaker_cooldown must be positive cycles, "
                f"got {self.breaker_cooldown}"
            )
        if self.chaos is not None:
            from repro.faults.chaos import ChaosSchedule

            if not isinstance(self.chaos, ChaosSchedule):
                raise InitError(
                    f"chaos must be a ChaosSchedule, got {type(self.chaos)!r}"
                )

    def sim_config(self) -> SimConfig:
        """The per-shard engine configuration."""
        return SimConfig(
            device=self.device,
            num_devs=self.devs_per_shard,
            link_ber=self.link_ber,
            link_drop_rate=self.link_drop_rate,
            link_seed=self.link_seed,
            watchdog_cycles=self.watchdog_cycles,
        )

    @property
    def total_slots(self) -> int:
        return self.max_shards * self.slots_per_shard

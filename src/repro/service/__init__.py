"""Rack-scale disaggregated memory service over simulated HMC pools.

Multiplexes thousands of concurrent simulated tenants onto a shared
pool of chained-cube shards: an asyncio front end
(:class:`~repro.service.frontend.MemoryService`), a warm-state session
pool (:mod:`repro.service.sessions`), admission control and QoS
(:mod:`repro.service.admission`), per-tenant accounting
(:mod:`repro.service.accounting`) and self-healing recovery policy
(:mod:`repro.service.recovery`).  See ``docs/service.md``.
"""

from repro.service.accounting import (
    TERMINAL_STATUSES,
    AccountingLedger,
    TenantAccount,
)
from repro.service.admission import (
    AdmissionController,
    FabricPort,
    Ticket,
    TokenBucket,
)
from repro.service.config import PriorityClass, ServiceConfig, TenantSpec
from repro.service.frontend import MemoryService, specs_from_profiles
from repro.service.recovery import BreakerState, CircuitBreaker
from repro.service.sessions import SessionPool, SpinUpStats, build_provisioned_shard
from repro.service.shard import Session, Shard

__all__ = [
    "AccountingLedger",
    "AdmissionController",
    "BreakerState",
    "CircuitBreaker",
    "FabricPort",
    "MemoryService",
    "PriorityClass",
    "ServiceConfig",
    "TERMINAL_STATUSES",
    "Session",
    "SessionPool",
    "Shard",
    "SpinUpStats",
    "TenantAccount",
    "TenantSpec",
    "Ticket",
    "TokenBucket",
    "build_provisioned_shard",
    "specs_from_profiles",
]

"""Fault injection and link-error recovery (error simulation).

HMC-Sim's stated goal includes "support for a wide array of simulation
scenarios, including functional simulation, **error simulation** and
performance simulation" (paper §IV.5).  This subpackage supplies the
error-simulation half:

* :mod:`repro.faults.injector` — deterministic bit-error injection into
  packet word streams (BER-based or scheduled);
* :mod:`repro.faults.link_model` — per-link fault models (corrupt /
  drop / clean) that decide each transmission's outcome;
* :mod:`repro.faults.inband` — the link retry protocol, modelled on
  the HMC 1.0 flow: per-link retry/degradation state consulted by the
  six-stage clock engine on every link traversal, so CRC failures and
  IRTRY replays cost real simulated cycles, links degrade FULL → HALF →
  FAILED, and traffic reroutes or dies;
* :mod:`repro.faults.retry` — the gate's counters (:class:`RetryStats`)
  and :class:`LinkRetryExhausted`;
* :mod:`repro.faults.chaos` — the deterministic chaos engine: seeded,
  simulated-cycle-stamped fault campaigns (shard crash, link kill /
  degrade, watchdog trip, fabric latency spike) injected into a
  :mod:`repro.service` run from the single driver coroutine.

In-band models attach to any configured link via
:meth:`repro.core.simulator.HMCSim.attach_link_fault` (or the
``link_ber`` / ``link_drop_rate`` :class:`~repro.core.config.SimConfig`
knobs, which auto-attach one per link).
"""

from repro.faults.chaos import CHAOS_KINDS, ChaosEvent, ChaosSchedule
from repro.faults.inband import (
    HOST_SENDER,
    TX_DEAD,
    TX_OK,
    TX_STALL,
    InbandLinkState,
    LinkHealth,
)
from repro.faults.injector import BitErrorInjector, ScheduledInjector
from repro.faults.link_model import FaultKind, LinkFaultModel
from repro.faults.retry import LinkRetryExhausted, RetryStats

__all__ = [
    "BitErrorInjector",
    "CHAOS_KINDS",
    "ChaosEvent",
    "ChaosSchedule",
    "FaultKind",
    "HOST_SENDER",
    "InbandLinkState",
    "LinkFaultModel",
    "LinkHealth",
    "LinkRetryExhausted",
    "RetryStats",
    "ScheduledInjector",
    "TX_DEAD",
    "TX_OK",
    "TX_STALL",
]

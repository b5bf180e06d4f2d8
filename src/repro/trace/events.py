"""Typed trace events.

Every event carries the internal clock tick at which it was raised plus
its physical locality — device, link, quad, vault, bank — so "entire
application memory traces can be revisited and analyzed for accuracy,
latency characteristics, bandwidth utilization and overall transaction
efficiency" (paper §IV.E).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class EventType(enum.IntFlag):
    """Trace event kinds, usable as a verbosity bitmask.

    The five Figure-5 series map to BANK_CONFLICT, RQST_READ,
    RQST_WRITE, XBAR_RQST_STALL and LATENCY_PENALTY.
    """

    NONE = 0
    #: Potential bank conflict recognised on a vault request queue (§IV.C.3).
    BANK_CONFLICT = 1 << 0
    #: Memory read request processed by a vault.
    RQST_READ = 1 << 1
    #: Memory write request processed by a vault.
    RQST_WRITE = 1 << 2
    #: Atomic (read-modify-write) request processed by a vault.
    RQST_ATOMIC = 1 << 3
    #: Crossbar request could not be routed to a vault (no open slot).
    XBAR_RQST_STALL = 1 << 4
    #: Crossbar response queue congestion.
    XBAR_RSP_STALL = 1 << 5
    #: Vault request queue rejected an arriving packet.
    VAULT_RQST_STALL = 1 << 6
    #: Vault response queue rejected a generated response.
    VAULT_RSP_STALL = 1 << 7
    #: Request arrived on a link not co-located with the destination
    #: quadrant/vault — potential routed-latency penalty (§VI.B).
    LATENCY_PENALTY = 1 << 8
    #: Packet was misrouted (bad cube id / no route).
    MISROUTE = 1 << 9
    #: Response registered with a crossbar response queue.
    RSP_REGISTERED = 1 << 10
    #: Response delivered to the host.
    RSP_DELIVERED = 1 << 11
    #: Device-to-device forward hop (chained topologies).
    CHAIN_HOP = 1 << 12
    #: Packet aged out of a queue (zombie protection).
    PKT_EXPIRED = 1 << 13
    #: Mode register access via MODE_READ / MODE_WRITE packets.
    MODE_ACCESS = 1 << 14
    #: Sub-cycle stage marker (full-granularity tracing).
    SUBCYCLE = 1 << 15
    #: In-DRAM corrected error (single-bit, repaired by SECDED).
    RAS_CE = 1 << 16
    #: In-DRAM detected-uncorrectable error (multi-bit).
    RAS_UE = 1 << 17
    #: Patrol scrubber step completed.
    RAS_SCRUB = 1 << 18
    #: In-band link transmission failed (CRC/drop): IRTRY + replay window.
    LINK_RETRY = 1 << 19
    #: Link demoted to half-width after max_retries consecutive failures.
    LINK_DEGRADED = 1 << 20
    #: Link demoted to FAILED; traffic reroutes or dies.
    LINK_FAILED = 1 << 21
    #: No-progress watchdog fired (livelock abort).
    WATCHDOG = 1 << 22

    #: All RAS (in-DRAM reliability) events.
    RAS = RAS_CE | RAS_UE | RAS_SCRUB

    #: All in-band link fault / degradation events.
    LINK_FAULTS = LINK_RETRY | LINK_DEGRADED | LINK_FAILED

    #: Everything except per-sub-cycle markers.
    STANDARD = (
        BANK_CONFLICT
        | RQST_READ
        | RQST_WRITE
        | RQST_ATOMIC
        | XBAR_RQST_STALL
        | XBAR_RSP_STALL
        | VAULT_RQST_STALL
        | VAULT_RSP_STALL
        | LATENCY_PENALTY
        | MISROUTE
        | RSP_REGISTERED
        | RSP_DELIVERED
        | CHAIN_HOP
        | PKT_EXPIRED
        | MODE_ACCESS
        | RAS_CE
        | RAS_UE
        | RAS_SCRUB
        | LINK_RETRY
        | LINK_DEGRADED
        | LINK_FAILED
        | WATCHDOG
    )
    #: Full verbosity, including sub-cycle markers.
    ALL = STANDARD | SUBCYCLE

    #: The five series plotted in Figure 5.
    FIGURE5 = BANK_CONFLICT | RQST_READ | RQST_WRITE | XBAR_RQST_STALL | LATENCY_PENALTY


@dataclass
class TraceEvent:
    """One trace record: what happened, when, and where."""

    type: EventType
    #: Internal 64-bit clock tick when the event was raised.
    cycle: int
    #: Device (cube) id.
    dev: int = -1
    #: Link id within the device, where applicable.
    link: int = -1
    #: Quadrant id, where applicable.
    quad: int = -1
    #: Vault id within the device, where applicable.
    vault: int = -1
    #: Bank id within the vault, where applicable.
    bank: int = -1
    #: Sub-cycle stage (1..6) for SUBCYCLE-granularity traces.
    stage: int = -1
    #: Packet serial number, where a packet is involved.
    serial: int = -1
    #: Free-form extras (address, tag, errstat...).
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_tuple(self) -> tuple:
        """The tracer's compact tuple of this event (repro.trace.tracer)."""
        return (int(self.type), self.cycle, self.dev, self.link, self.quad,
                self.vault, self.bank, self.stage, self.serial,
                tuple(self.extra.items()))

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict for serialisation; omits unset (-1 / empty) fields."""
        d: Dict[str, Any] = {"type": self.type.name, "cycle": self.cycle}
        for key in ("dev", "link", "quad", "vault", "bank", "stage", "serial"):
            v = getattr(self, key)
            if v != -1:
                d[key] = v
        if self.extra:
            d.update(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        known = {"type", "cycle", "dev", "link", "quad", "vault", "bank", "stage", "serial"}
        etype = d["type"]
        if isinstance(etype, str):
            etype = EventType[etype]
        extra = {k: v for k, v in d.items() if k not in known}
        return cls(
            type=etype,
            cycle=int(d["cycle"]),
            dev=int(d.get("dev", -1)),
            link=int(d.get("link", -1)),
            quad=int(d.get("quad", -1)),
            vault=int(d.get("vault", -1)),
            bank=int(d.get("bank", -1)),
            stage=int(d.get("stage", -1)),
            serial=int(d.get("serial", -1)),
            extra=extra,
        )

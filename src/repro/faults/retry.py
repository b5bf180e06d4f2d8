"""What the in-band link gate counts, and the error a spent retry
budget raises.

The HMC 1.0 link protocol never delivers a corrupted packet to the
logic layer: every packet is CRC-checked on receipt; a failure poisons
the receiver's input stream, an IRTRY (init retry) exchange resets the
stream, and the transmitter replays from its retry buffer starting at
the last acknowledged FRP.  :class:`~repro.faults.inband.InbandLinkState`
runs that flow on every link traversal in simulated time and keeps its
counters in a :class:`RetryStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import E_LINKFAIL, HMCError


class LinkRetryExhausted(HMCError, RuntimeError):
    """Raised when a packet cannot be delivered within max_retries.

    Subclasses both :class:`~repro.core.errors.HMCError` (so the C-style
    facade translates it to :data:`~repro.core.errors.E_LINKFAIL`) and
    ``RuntimeError`` (its historical base, for existing handlers).
    """

    errno = E_LINKFAIL


@dataclass
class RetryStats:
    """Counters for one link's retry gate."""

    #: Logical packets offered to the link.
    packets: int = 0
    #: Physical transmissions (packets + replays).
    transmissions: int = 0
    #: CRC failures detected at the receiver.
    crc_failures: int = 0
    #: Whole transmissions lost on the wire.
    drops: int = 0
    #: IRTRY exchanges (one per detected failure).
    irtry_events: int = 0
    #: Packets eventually delivered after at least one replay.
    recovered: int = 0
    #: Packets abandoned when the link failed under them.
    failed: int = 0
    #: Replay windows opened by failures, in cycles.
    recovery_cycles: int = 0

    def as_dict(self) -> dict:
        return {
            "packets": self.packets,
            "transmissions": self.transmissions,
            "crc_failures": self.crc_failures,
            "drops": self.drops,
            "irtry_events": self.irtry_events,
            "recovered": self.recovered,
            "failed": self.failed,
            "recovery_cycles": self.recovery_cycles,
        }

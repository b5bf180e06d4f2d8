"""Link-level retry: CRC detection + IRTRY-style replay.

The HMC 1.0 link protocol never delivers a corrupted packet to the
logic layer: every packet is CRC-checked on receipt; a failure poisons
the receiver's input stream, an IRTRY (init retry) exchange resets the
stream, and the transmitter replays from its retry buffer starting at
the last acknowledged FRP.  :class:`RetrySession` models that flow for
one link direction at transaction granularity:

* each logical send stamps the packet with an FRP and buffers it;
* the transmission runs through the link's fault model;
* a clean arrival CRC-verifies, acknowledges the pointer and delivers
  the *decoded wire words* (so simulation traffic really does
  round-trip the bit-level encoder);
* a corrupt arrival is detected by CRC — never silently accepted
  (guaranteed for any single-bit error; property-tested) — counted as
  an IRTRY exchange, and replayed after ``retry_delay`` cycles;
* a dropped arrival times out and is replayed the same way;
* ``max_retries`` consecutive failures abandon the packet
  (:class:`LinkRetryExhausted`), modelling a dead lane.

Replay is modelled at transaction granularity: the retry latency is
accumulated in :attr:`RetryStats.recovery_cycles` rather than stalling
the global clock, keeping the error model orthogonal to the six-stage
cycle engine (DESIGN.md substitution notes).

This is the one place wire words exist under a fault model: every
attempt encodes, applies the sampled flips and CRC-checks the decode.
The in-band gate (:mod:`repro.faults.inband`) samples the same outcome
per attempt — 64·W bits of one sequential stream — and takes "any bit
flipped" as the CRC verdict, the property enforced and tested here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import E_LINKFAIL, HMCError
from repro.faults.link_model import FaultKind, LinkFaultModel
from repro.packets.flow import RetryPointerState
from repro.packets.packet import Packet, PacketDecodeError


class LinkRetryExhausted(HMCError, RuntimeError):
    """Raised when a packet cannot be delivered within max_retries.

    Subclasses both :class:`~repro.core.errors.HMCError` (so the C-style
    facade translates it to :data:`~repro.core.errors.E_LINKFAIL`) and
    ``RuntimeError`` (its historical base, for existing handlers).
    """

    errno = E_LINKFAIL


@dataclass
class RetryStats:
    """Counters for one retry session."""

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
    #: Packets abandoned after max_retries.
    failed: int = 0
    #: Modelled latency cost of all replays, in cycles.
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


class RetrySession:
    """Reliable delivery over one faulty link direction."""

    def __init__(
        self,
        fault_model: LinkFaultModel,
        max_retries: int = 8,
        retry_delay: int = 4,
        retry_slots: int = 256,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_delay < 0:
            raise ValueError("retry_delay must be >= 0")
        self.fault_model = fault_model
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self.pointers = RetryPointerState(buffer_slots=retry_slots)
        self.stats = RetryStats()

    def transmit(self, pkt: Packet) -> Packet:
        """Deliver *pkt* across the faulty link, replaying as needed.

        Returns the packet as reconstructed from the delivered wire
        words (bit-identical to the input for a clean transmission).
        Raises :class:`LinkRetryExhausted` when the link never delivers
        a clean copy within ``max_retries`` replays.
        """
        self.stats.packets += 1
        frp = self.pointers.stamp(pkt)
        words = pkt.encode()
        attempts = 0
        while True:
            self.stats.transmissions += 1
            kind, delivered = self.fault_model.transmit(words)
            if kind is FaultKind.DROP:
                self.stats.drops += 1
            else:
                decoded = self._receive(delivered)
                if decoded is not None:
                    if kind is FaultKind.CORRUPT:
                        raise AssertionError(
                            "corrupted transmission passed CRC — impossible for "
                            "single-bit errors; check the injector"
                        )
                    self.pointers.acknowledge(frp)
                    if attempts > 0:
                        self.stats.recovered += 1
                    return decoded
                # Receiver saw a bad CRC (whatever the fault verdict
                # said): poison + IRTRY exchange.
                self.stats.crc_failures += 1
            self.stats.irtry_events += 1
            attempts += 1
            self.stats.recovery_cycles += self.retry_delay
            if attempts > self.max_retries:
                self.stats.failed += 1
                self.pointers.acknowledge(frp)
                raise LinkRetryExhausted(
                    f"packet serial {pkt.serial} abandoned after "
                    f"{attempts - 1} replays"
                )

    @staticmethod
    def _receive(words) -> Optional[Packet]:
        """Receiver side: CRC-checked decode; None on any violation."""
        try:
            return Packet.decode(words, check_crc=True)
        except PacketDecodeError:
            return None

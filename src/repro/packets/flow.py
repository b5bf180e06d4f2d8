"""Link flow control: token buckets and retry-pointer bookkeeping.

The HMC link protocol is credit (token) based: each side of a link holds
tokens representing free FLIT slots in the peer's input buffer.  Sending
a packet consumes ``LNG`` tokens; the receiver returns tokens via the RTC
(return token count) field of response/flow packets — a TRET packet
exists purely to return tokens, and PRET returns retry pointers without
consuming buffer space (paper §III.C; HMC 1.0 §8).

This module provides the small state machines the simulator uses to
model that protocol.  The cycle engine consults :class:`LinkTokens`
before moving a packet across a link; when tokens are exhausted the
packet stalls in place and a stall trace event fires, exactly like a
queue-full condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque
from collections import deque

from repro.packets.packet import FRP_BITS, Packet


class FlowControlError(RuntimeError):
    """Raised on protocol violations (over-return of tokens, etc.)."""


@dataclass
class LinkTokens:
    """Credit state for one direction of a link.

    ``capacity`` is the peer buffer size in FLITs; ``available`` tracks
    the tokens currently held by the sender.  Token conservation —
    ``available + in_flight == capacity`` — is a protocol invariant the
    property tests verify.
    """

    capacity: int
    available: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"token capacity must be positive, got {self.capacity}")
        if self.available < 0:
            self.available = self.capacity
        if self.available > self.capacity:
            raise ValueError("available tokens exceed capacity")

    @property
    def in_flight(self) -> int:
        """Tokens currently consumed by un-returned FLITs."""
        return self.capacity - self.available

    def can_send(self, flits: int) -> bool:
        """True iff a packet of *flits* FLITs may cross the link now."""
        return flits <= self.available

    def consume(self, flits: int) -> None:
        """Spend *flits* tokens for a departing packet."""
        if flits > self.available:
            raise FlowControlError(
                f"insufficient tokens: need {flits}, have {self.available}"
            )
        self.available -= flits

    def restore(self, flits: int) -> None:
        """Return *flits* tokens (receiver freed buffer space)."""
        if self.available + flits > self.capacity:
            raise FlowControlError(
                f"token over-return: {self.available} + {flits} > {self.capacity}"
            )
        self.available += flits


@dataclass
class RetryPointerState:
    """Forward/return retry pointer (FRP/RRP) tracking for one link.

    Every transmitted packet records its FRP — the index of the link
    retry buffer slot holding it.  The peer echoes the highest
    successfully received pointer back as RRP, allowing the sender to
    free retry-buffer entries.  HMC-Sim models this at the bookkeeping
    level (pointer sequencing and buffer occupancy) without simulating
    bit errors on the SERDES lanes.
    """

    buffer_slots: int = 256

    def __post_init__(self) -> None:
        if not 1 <= self.buffer_slots <= 1 << FRP_BITS:
            raise ValueError(
                f"buffer_slots must be 1..{1 << FRP_BITS} (FRP is a "
                f"{FRP_BITS}-bit field), got {self.buffer_slots}"
            )
        self._next_frp = 0
        self._unacked: Deque[int] = deque()

    @property
    def outstanding(self) -> int:
        """Packets transmitted but not yet acknowledged via RRP."""
        return len(self._unacked)

    def stamp(self, pkt: Packet) -> int:
        """Assign the next FRP to *pkt* and record it as unacked."""
        if len(self._unacked) >= self.buffer_slots:
            raise FlowControlError("retry buffer full")
        frp = self._next_frp
        pkt.frp = frp
        self._unacked.append(frp)
        self._next_frp = (self._next_frp + 1) % self.buffer_slots
        return frp

    def acknowledge(self, rrp: int) -> int:
        """Process an incoming RRP; returns the number of slots freed.

        All pointers up to and including *rrp* (in transmit order) are
        retired, mirroring the spec's cumulative-ack semantics.  An RRP
        that matches no outstanding pointer retires *every* outstanding
        pointer: the walk finds no match and frees the whole buffer, so
        the count returned is what was outstanding.
        """
        freed = 0
        while self._unacked:
            head = self._unacked[0]
            self._unacked.popleft()
            freed += 1
            if head == rrp:
                return freed
        # rrp not found: the buffer is empty now.
        return freed

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
from typing import Deque, Optional
from collections import deque

from repro.packets.commands import CMD
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
        retired.  An RRP that matches no outstanding pointer is ignored
        (idempotent acknowledgement), mirroring the spec's cumulative-ack
        semantics.
        """
        freed = 0
        while self._unacked:
            head = self._unacked[0]
            self._unacked.popleft()
            freed += 1
            if head == rrp:
                return freed
        # rrp not found: nothing was outstanding with that pointer.
        return freed


def make_tret(cub: int, rtc: int, link: int = 0) -> Packet:
    """Build a TRET (token-return) flow packet carrying *rtc* tokens."""
    pkt = Packet(cmd=CMD.TRET, cub=cub, slid=link)
    pkt.rtc = min(rtc, (1 << 5) - 1)
    return pkt


def make_pret(cub: int, rrp: int, link: int = 0) -> Packet:
    """Build a PRET (pointer-return) flow packet echoing *rrp*."""
    pkt = Packet(cmd=CMD.PRET, cub=cub, slid=link)
    pkt.rrp = rrp & 0xFF
    return pkt


def make_null(cub: int = 0) -> Packet:
    """Build a NULL flow packet (link idle filler; receivers discard)."""
    return Packet(cmd=CMD.NULL, cub=cub)


@dataclass
class FlowController:
    """Combined per-link-direction flow state used by the cycle engine."""

    token_capacity: int
    retry_slots: int = 256
    tokens: Optional[LinkTokens] = None
    retry: Optional[RetryPointerState] = None

    def __post_init__(self) -> None:
        if self.tokens is None:
            self.tokens = LinkTokens(capacity=self.token_capacity)
        if self.retry is None:
            self.retry = RetryPointerState(buffer_slots=self.retry_slots)

    def try_send(self, pkt: Packet) -> bool:
        """Attempt to move *pkt* across the link; False means stall."""
        flits = pkt.num_flits
        if not self.tokens.can_send(flits):
            return False
        self.tokens.consume(flits)
        self.retry.stamp(pkt)
        return True

    def on_receive(self, pkt: Packet) -> None:
        """Process token/pointer returns piggybacked on an arrival."""
        if pkt.rtc:
            self.tokens.restore(pkt.rtc)
        if pkt.cmd in (CMD.PRET, CMD.TRET) or pkt.is_response:
            self.retry.acknowledge(pkt.rrp)

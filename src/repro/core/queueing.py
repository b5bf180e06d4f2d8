"""The uniform queue structure (paper §IV.A "Queue Structure").

All queueing points in the hierarchy — crossbar request/response queues
and vault request/response queues — share one software representation: a
fixed number of queue slots, each holding a valid designator and storage
for a single packet of up to nine FLITs.  Depths are set by the user at
initialisation time (paper §IV.3, "Flexible Queuing").

For simulation performance, occupancy is backed by a deque so per-cycle
work is O(occupied slots), not O(depth); the registered-slot semantics
(fixed capacity, stall on full, FIFO traversal, positional pass/pop for
weak-ordering reorders) are preserved exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional

from repro.packets.packet import Packet

__all__ = ["PacketQueue", "QueueSlot"]


@dataclass
class QueueSlot:
    """One registered queue slot: a valid bit plus packet storage.

    Exposed for introspection/tests; the engine works with
    :class:`PacketQueue` directly.
    """

    valid: bool = False
    packet: Optional[Packet] = None


class PacketQueue:
    """Fixed-depth FIFO packet queue with registered-slot semantics.

    Parameters
    ----------
    depth:
        Number of slots.  ``push`` on a full queue returns ``False`` — a
        stall the caller must surface (trace event / E_STALL).
    name:
        Diagnostic label, e.g. ``"dev0.link2.xbar_rqst"``.
    """

    __slots__ = ("depth", "name", "_q", "_stamps", "high_water",
                 "total_enqueued", "total_dequeued", "total_stalls",
                 "_act_set", "_act_key", "special_count")

    def __init__(self, depth: int, name: str = "") -> None:
        if depth <= 0:
            raise ValueError(f"queue depth must be positive, got {depth}")
        self.depth = depth
        self.name = name
        self._q: Deque[Packet] = deque()
        self._stamps: Deque[int] = deque()
        # Lifetime statistics.
        self.high_water = 0
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.total_stalls = 0
        # Activity notification: while bound, this queue keeps its key in
        # the given set exactly when it is non-empty (active-set scheduling
        # support; plain (set, key) state so checkpoints pickle cleanly).
        self._act_set: Optional[set] = None
        self._act_key: Optional[int] = None
        #: Queued FLOW/MODE packets (``Packet.is_special``) — lets the
        #: vault issue stage prove a scan useless without walking it.
        self.special_count = 0

    # -- activity binding ------------------------------------------------------

    def bind_activity(self, act_set: Optional[set], key: Optional[int]) -> None:
        """Bind (or unbind, with ``None``) this queue to an active set.

        While bound, ``key`` is present in ``act_set`` iff the queue holds
        at least one packet; the binding is reconciled immediately.
        """
        if self._act_set is not None and self._act_set is not act_set:
            self._act_set.discard(self._act_key)
        self._act_set = act_set
        self._act_key = key
        if act_set is not None:
            if self._q:
                act_set.add(key)
            else:
                act_set.discard(key)

    # -- capacity ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._q)

    @property
    def occupancy(self) -> int:
        """Number of valid slots."""
        return len(self._q)

    @property
    def free_slots(self) -> int:
        return self.depth - len(self._q)

    @property
    def is_full(self) -> bool:
        return len(self._q) >= self.depth

    @property
    def is_empty(self) -> bool:
        return not self._q

    # -- FIFO operations -------------------------------------------------------

    def push(self, pkt: Packet, cycle: int = 0) -> bool:
        """Append *pkt*; returns False (and counts a stall) when full."""
        q = self._q
        n = len(q)
        if n >= self.depth:
            self.total_stalls += 1
            return False
        if not n and self._act_set is not None:
            self._act_set.add(self._act_key)
        q.append(pkt)
        self._stamps.append(cycle)
        self.total_enqueued += 1
        if pkt.is_special:
            self.special_count += 1
        if n >= self.high_water:
            self.high_water = n + 1
        return True

    def peek(self, index: int = 0) -> Optional[Packet]:
        """The packet in FIFO position *index*, or None."""
        if index < 0 or index >= len(self._q):
            return None
        return self._q[index]

    def pop(self) -> Packet:
        """Remove and return the head packet (raises IndexError if empty)."""
        pkt = self._q.popleft()
        self._stamps.popleft()
        self.total_dequeued += 1
        if pkt.is_special:
            self.special_count -= 1
        if not self._q and self._act_set is not None:
            self._act_set.discard(self._act_key)
        return pkt

    def pop_at(self, index: int) -> Packet:
        """Remove and return the packet at FIFO position *index*.

        Supports the weak-ordering reorder points: "arriving packets that
        are destined for ancillary devices may pass those waiting for
        local vault access" (paper §III.C).
        """
        if index == 0:
            return self.pop()
        if index < 0 or index >= len(self._q):
            raise IndexError(f"no packet at queue position {index}")
        self._q.rotate(-index)
        pkt = self._q.popleft()
        self._q.rotate(index)
        self._stamps.rotate(-index)
        self._stamps.popleft()
        self._stamps.rotate(index)
        self.total_dequeued += 1
        if pkt.is_special:
            self.special_count -= 1
        if not self._q and self._act_set is not None:
            self._act_set.discard(self._act_key)
        return pkt

    def stamp_at(self, index: int) -> int:
        """Enqueue cycle of the packet at FIFO position *index*."""
        return self._stamps[index]

    def __iter__(self) -> Iterator[Packet]:
        """Iterate packets in FIFO order without removing them."""
        return iter(self._q)

    def remove_positions(self, positions: List[int]) -> None:
        """Remove the entries at ascending FIFO *positions* in one pass.

        Deletion runs back-to-front so earlier positions stay valid;
        per-element cost is deque ``__delitem__`` (C-level, O(distance
        from the nearer end)), which beats a Python-level prefix rebuild
        for the near-head removals of the routing and vault-issue scans.
        FIFO order of the survivors is preserved; removed entries count
        as dequeued (same accounting as ``pop``).
        """
        if not positions:
            return
        q = self._q
        stamps = self._stamps
        specials = 0
        for i in reversed(positions):
            if q[i].is_special:
                specials += 1
            del q[i]
            del stamps[i]
        if specials:
            self.special_count -= specials
        self.total_dequeued += len(positions)
        if not q and self._act_set is not None:
            self._act_set.discard(self._act_key)

    def expire_older_than(self, cycle: int, max_age: int) -> List[Packet]:
        """Remove and return every packet enqueued more than *max_age*
        cycles before *cycle* (zombie-packet protection, §V.B)."""
        if max_age <= 0:
            return []
        expired: List[Packet] = []
        keep_q: Deque[Packet] = deque()
        keep_s: Deque[int] = deque()
        for pkt, stamp in zip(self._q, self._stamps):
            if cycle - stamp > max_age:
                expired.append(pkt)
                self.total_dequeued += 1
            else:
                keep_q.append(pkt)
                keep_s.append(stamp)
        self._q = keep_q
        self._stamps = keep_s
        if expired:
            self.special_count -= sum(1 for p in expired if p.is_special)
        if not keep_q and self._act_set is not None:
            self._act_set.discard(self._act_key)
        return expired

    # -- slot view --------------------------------------------------------------

    def slots(self) -> List[QueueSlot]:
        """Materialise the registered-slot view (valid bits + storage)."""
        view = [QueueSlot(valid=True, packet=p) for p in self._q]
        view += [QueueSlot() for _ in range(self.depth - len(self._q))]
        return view

    def drain(self) -> List[Packet]:
        """Remove and return all packets in FIFO order."""
        out = list(self._q)
        self.total_dequeued += len(self._q)
        self._q.clear()
        self._stamps.clear()
        self.special_count = 0
        if self._act_set is not None:
            self._act_set.discard(self._act_key)
        return out

    def reset(self) -> None:
        """Clear contents and statistics (device reset)."""
        self._q.clear()
        self._stamps.clear()
        self.high_water = 0
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.total_stalls = 0
        self.special_count = 0
        if self._act_set is not None:
            self._act_set.discard(self._act_key)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PacketQueue({self.name!r}, {len(self._q)}/{self.depth})"

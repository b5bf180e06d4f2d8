"""Request-tag management.

The packet header TAG field is nine bits, so a host may have at most 512
requests outstanding per correlation domain; responses echo the tag and
"it is up to the calling application to decode and correlate the
response packet information to the correct memory transaction request"
(paper §V.C).  :class:`TagPool` hands out tags, remembers what each one
is bound to, and recycles them on response arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.packets.packet import MAX_TAG


class TagPool:
    """Fixed pool of request tags with per-tag context storage."""

    def __init__(self, size: int = MAX_TAG + 1) -> None:
        if not 1 <= size <= MAX_TAG + 1:
            raise ValueError(f"tag pool size must be 1..{MAX_TAG + 1}, got {size}")
        self.size = size
        self._free: Deque[int] = deque(range(size))
        self._bound: Dict[int, Any] = {}
        self.allocated_total = 0
        self.released_total = 0

    def __getstate__(self) -> dict:
        # The free list as a tuple, as PacketQueue pickles its deques:
        # pickle reduces a deque through copyreg._slotnames every call.
        return dict(vars(self), _free=tuple(self._free))

    def __setstate__(self, state: dict) -> None:
        # A pool pickled before the tuple held its free list as a deque.
        vars(self).update(state, _free=deque(state["_free"]))

    @property
    def available(self) -> int:
        return len(self._free)

    @property
    def outstanding(self) -> int:
        return len(self._bound)

    @property
    def exhausted(self) -> bool:
        return not self._free

    def allocate(self, context: Any = None) -> Optional[int]:
        """Take a free tag, binding *context*; None when exhausted."""
        if not self._free:
            return None
        tag = self._free.popleft()
        self._bound[tag] = context
        self.allocated_total += 1
        return tag

    def context(self, tag: int) -> Any:
        """The context bound to an outstanding *tag* (KeyError if free)."""
        return self._bound[tag]

    def release(self, tag: int) -> Any:
        """Return *tag* to the pool; yields its bound context.

        Releasing an unallocated tag raises :class:`KeyError` — a
        duplicate or corrupt response the host should not silently eat.
        """
        context = self._bound.pop(tag)
        self._free.append(tag)
        self.released_total += 1
        return context

    def outstanding_tags(self) -> list:
        return sorted(self._bound)

    def reset(self) -> None:
        self._free = deque(range(self.size))
        self._bound.clear()
        self.allocated_total = 0
        self.released_total = 0

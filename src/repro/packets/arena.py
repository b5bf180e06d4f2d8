"""Preallocated packet arena: the flat hot core's allocation layer.

Packets are the highest-volume allocation in a run — every request and
every response is one object, and a Table I configuration churns tens of
thousands of them through the host → crossbar → vault → crossbar → host
loop.  The arena removes that churn from the steady state:

* a **preallocated pool** of ``Packet`` records is built once; the hot
  builders (:meth:`PacketArena.build_request`, :func:`build_response`'s
  OK path) re-initialise a free record in place instead of constructing
  a fresh object, and the engine hands records back at the two points a
  packet provably leaves the system — the vault issue stage for executed
  memory requests, and the host run loop for delivered responses;
* record re-initialisation rewrites every live column (command,
  address, payload, wire sideband, decode cache, routing metadata) —
  the link-retry layer stamps retry pointers onto in-flight packets, so
  no field can be assumed to survive a lifetime untouched;
* exhaustion degrades gracefully: when the freelist is empty — e.g. a
  caller outside the run loop holds responses forever — the builders
  fall back to ordinary fresh construction and the simulation behaves
  exactly as before, just without recycling.

Correctness invariants (why recycling cannot alias a live packet):

* only records drawn from this arena are ever recycled —
  :meth:`release` ignores foreign packets, so objects built with the
  public :func:`~repro.packets.packet.build_memrequest` (tests, user
  code) are never reused behind the caller's back;
* pooled *requests* are created only inside :class:`~repro.host.host.
  Host`'s send path, which exposes the tag, never the object; the vault
  releases them after ``_execute`` has retired them from the queue;
* pooled *responses* are released only by the host run loop after
  delivery accounting; external ``drain_responses``/``recv`` callers
  keep their packets and the pool simply shrinks around them;
* a double release is a no-op (released records carry a sentinel in
  ``delivered_from`` until re-adopted).

The pool also exposes allocation counters (:meth:`stats`) so the
benchmark harness and ``--profile`` can report how much construction
traffic the flat core absorbed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.packets import packet as _pkt
from repro.packets.commands import CMD
from repro.packets.packet import (
    _MASK64,
    _REQ_CACHE,
    _RSP_CACHE,
    _ZERO_WORDS,
    MAX_ADRS,
    MAX_CUB,
    MAX_TAG,
    ErrStat,
    Packet,
    _class_info,
    is_response,
    request_flits,
    response_cmd_for,
    response_flits,
)

__all__ = ["PacketArena", "ARENA"]

_ERRSTAT_OK = ErrStat.OK

#: ``delivered_from`` sentinel marking a record that is sitting in the
#: freelist.  Any tuple-typed value a live packet could carry compares
#: unequal to this private object.
_FREE = object()


class PacketArena:
    """Fixed-capacity pool of reusable :class:`Packet` records.

    Parameters
    ----------
    capacity:
        Number of records preallocated.  Sized to cover the engine's
        worst-case live set (outstanding requests plus in-flight
        responses); beyond it the builders fall back to fresh
        construction.
    """

    __slots__ = (
        "capacity",
        "_free",
        "_pool",
        "_owned",
        "pooled_builds",
        "fresh_builds",
        "released",
    )

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError(f"arena capacity must be positive, got {capacity}")
        self.capacity = capacity
        pool = []
        for _ in range(capacity):
            p = Packet.__new__(Packet)
            p.delivered_from = _FREE
            pool.append(p)
        #: Strong refs to every owned record for the arena's lifetime —
        #: ownership is tested by ``id()`` and ids must never be reused
        #: by unrelated objects.
        self._pool: Tuple[Packet, ...] = tuple(pool)
        self._free: List[Packet] = pool[:]
        self._owned = frozenset(id(p) for p in pool)
        # Lifetime statistics.
        self.pooled_builds = 0
        self.fresh_builds = 0
        self.released = 0

    # -- core acquire / release ------------------------------------------------

    def _acquire(
        self,
        cmd: CMD,
        cub: int,
        tag: int,
        addr: int,
        payload: Tuple[int, ...],
        slid: int,
        dinv: int,
        info,
    ) -> Packet:
        """Re-initialise a free record (or fall back to a fresh packet).

        Same contract as :func:`packet._fast_new`: the caller guarantees
        *cmd* is a CMD member, *payload* is a masked tuple of exactly the
        command's word count, and tag/addr/cub ranges are valid.
        """
        free = self._free
        if not free:
            self.fresh_builds += 1
            return _pkt._fast_new(cmd, cub, tag, addr, payload, slid, dinv, info)
        p = free.pop()
        self.pooled_builds += 1
        p.cmd = cmd
        p.cub = cub
        p.tag = tag
        p.addr = addr
        p.payload = payload
        p.slid = slid
        # The link-retry layer stamps FRP/RRP/SEQ/RTC onto in-flight
        # packets (packets/flow.py), so these must be re-zeroed on every
        # adoption, not just at pool construction.
        p.seq = 0
        p.rrp = 0
        p.frp = 0
        p.rtc = 0
        p.pb = 0
        p.dinv = dinv
        p.errstat = _ERRSTAT_OK
        p.serial = next(_pkt._packet_serial)
        p.injected_at = -1
        p.completed_at = -1
        p.hops = 0
        p.ingress_link = -1
        p.src_cub = 0
        p.route_stack = []
        p.delivered_from = None
        p.dec_vault = -1
        p.dec_bank = -1
        p.cls, p.is_response, p.expects_response, p.is_special, _ = info
        p.num_flits = 1 + len(payload) // 2
        return p

    def release(self, pkt: Packet) -> bool:
        """Return *pkt* to the freelist if this arena owns it.

        Foreign packets and already-released records are ignored, so
        release sites may call this unconditionally on anything leaving
        the system.  Returns True when the record was actually recycled.
        """
        if id(pkt) not in self._owned or pkt.delivered_from is _FREE:
            return False
        pkt.delivered_from = _FREE
        self._free.append(pkt)
        self.released += 1
        return True

    def owns(self, pkt: Packet) -> bool:
        """True iff *pkt* is one of this arena's records."""
        return id(pkt) in self._owned

    # -- trusted builders ---------------------------------------------------------

    def build_request(
        self,
        cub: int,
        addr: int,
        tag: int,
        cmd: CMD,
        payload: Optional[Sequence[int]] = None,
        link: int = 0,
    ) -> Packet:
        """Pooled :func:`~repro.packets.packet.build_memrequest`.

        Identical packet semantics (validation, payload fit, layout
        cache) — the record just comes from the pool when one is free.
        The caller must not retain the object past the point the engine
        retires it; the host send path qualifies because it exposes only
        the tag.
        """
        info = _REQ_CACHE.get(cmd)
        if info is None:
            if cmd.__class__ is not CMD:
                cmd = CMD(cmd)
            if is_response(cmd):
                raise ValueError(f"{cmd.name} is a response command")
            need_words = (request_flits(cmd) - 1) * 2
            info = (cmd, need_words, _class_info(cmd))
            _REQ_CACHE[cmd] = info
        cmd, need_words, cls_info = info
        if payload:
            words = [int(w) & _MASK64 for w in payload]
            if len(words) < need_words:
                words += [0] * (need_words - len(words))
            payload = tuple(words[:need_words])
        else:
            payload = _ZERO_WORDS[need_words]
        if not 0 <= tag <= MAX_TAG:
            raise ValueError(f"tag out of range: {tag}")
        if not 0 <= addr <= MAX_ADRS:
            raise ValueError(f"address out of range: {addr:#x}")
        if not 0 <= cub <= MAX_CUB:
            raise ValueError(f"cube id out of range: {cub}")
        return self._acquire(cmd, cub, tag, addr, payload, link, 0, cls_info)

    def build_reply(
        self,
        request: Packet,
        data: Optional[Sequence[int]] = None,
    ) -> Packet:
        """Pooled OK-path :func:`~repro.packets.packet.build_response`.

        Trusted variant for the vault execute stage: *data* comes from
        bank storage (or the atomic old-value path), which only ever
        holds masked 64-bit words, so the per-word re-masking of the
        public builder is skipped.  Error responses stay on the public
        builder (cold path).
        """
        info = _RSP_CACHE.get(request.cmd)
        if info is None:
            if not request.expects_response:
                raise ValueError(f"{request.cmd.name} does not expect a response")
            rsp_cmd = response_cmd_for(request.cmd)
            need_words = (response_flits(request.cmd) - 1) * 2
            info = (rsp_cmd, need_words, _class_info(rsp_cmd))
            _RSP_CACHE[request.cmd] = info
        rsp_cmd, need_words, cls_info = info
        if data:
            if len(data) != need_words:
                data = (list(data) + [0] * need_words)[:need_words]
            payload = tuple(data)
        else:
            payload = _ZERO_WORDS[need_words]
        rsp = self._acquire(
            rsp_cmd, request.cub, request.tag, 0, payload, request.slid, 0, cls_info
        )
        rsp.src_cub = request.cub
        return rsp

    # -- diagnostics ---------------------------------------------------------------

    @property
    def free_records(self) -> int:
        return len(self._free)

    @property
    def live_records(self) -> int:
        """Owned records currently adopted by the engine."""
        return self.capacity - len(self._free)

    def stats(self) -> Dict[str, int]:
        """Allocation counters for benchmarks and ``--profile``."""
        return {
            "capacity": self.capacity,
            "free_records": len(self._free),
            "live_records": self.live_records,
            "pooled_builds": self.pooled_builds,
            "fresh_builds": self.fresh_builds,
            "released": self.released,
        }

    def reset_stats(self) -> None:
        self.pooled_builds = 0
        self.fresh_builds = 0
        self.released = 0


#: Process-global arena used by the hot paths (host send loop, vault
#: response builder).  A forked ``WorkerPool`` lane inherits a private
#: copy, exactly like the packet serial counter.
ARENA = PacketArena()

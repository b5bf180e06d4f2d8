"""Vault units — vertical memory stacks with their controllers (§IV.A).

"The vault structure map[s] directly to the notion of a vertically
stacked vault unit...  Each vault contains response and request queues
whose respective depths are configured at initialization time in order
to mimic the presence of a vault controller.  Each vault also contains a
reference to a block of memory bank structures."

The vault implements sub-cycle stages 3 and 4 of the clock engine in
one queue walk, :meth:`Vault.stage34`: bank-conflict recognition
(read-only trace pass) and FIFO request processing, where "all packets
are currently processed in equivalent and constant time as long as
their bank addressing does not conflict".
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, List, Optional

from repro.addressing.address_map import AddressMap
from repro.core.bank import Bank
from repro.core.queueing import PacketQueue
from repro.packets.commands import CMD, REQUEST_DATA_BYTES, CommandClass
from repro.packets.packet import ErrStat, Packet, build_response
from repro.trace.events import EventType
from repro.trace.tracer import Tracer

# Plain-int event masks (avoid IntFlag __rand__ in hot guards).
_EV_BANK_CONFLICT = int(EventType.BANK_CONFLICT)
_EV_VAULT_RSP_STALL = int(EventType.VAULT_RSP_STALL)
_EV_RQST_READ = int(EventType.RQST_READ)
_EV_RQST_WRITE = int(EventType.RQST_WRITE)
_EV_RQST_ATOMIC = int(EventType.RQST_ATOMIC)

#: Byte-write commands (hot-path membership test without rebuilding the
#: tuple per executed packet).
_BWR_CMDS = (CMD.BWR, CMD.P_BWR)

# Preallocated ("busy", flag) extras pairs for the conflict emit loop.
_BUSY_T = ("busy", True)
_BUSY_F = ("busy", False)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.device import HMCDevice

#: Next-free sentinel: no bank busy window is pending.
_FAR = 1 << 62


class Vault:
    """One vault: request/response queues plus the bank stack."""

    __slots__ = (
        "vault_id", "quad_id", "device", "banks", "rqst", "rsp",
        "rd_count", "wr_count", "atomic_count", "mode_count",
        "conflict_count", "issue_stall_cycles", "rsp_stall_count",
        "refresh_count", "_busy_mask", "_next_free",
    )

    def __init__(
        self,
        vault_id: int,
        quad_id: int,
        num_banks: int,
        bank_bytes: int,
        num_drams: int,
        queue_depth: int,
        device: Optional["HMCDevice"] = None,
    ) -> None:
        self.vault_id = vault_id
        self.quad_id = quad_id
        self.device = device
        self.banks: List[Bank] = [
            Bank(b, bank_bytes, num_drams) for b in range(num_banks)
        ]
        #: Incremental per-bank busy state: a pessimistic-superset
        #: bitmask of possibly-busy banks plus the earliest cycle at
        #: which any of them may free.  Banks push updates on occupy();
        #: :meth:`_busy_state` re-validates lazily, so stages 3 and 4
        #: touch only banks whose state actually changed.
        self._busy_mask = 0
        self._next_free = _FAR
        for b in self.banks:
            b._owner = self
        self.rqst = PacketQueue(queue_depth, name=f"vault{vault_id}.rqst")
        self.rsp = PacketQueue(queue_depth, name=f"vault{vault_id}.rsp")
        self.rd_count = 0
        self.wr_count = 0
        self.atomic_count = 0
        self.mode_count = 0
        self.conflict_count = 0
        self.issue_stall_cycles = 0
        self.rsp_stall_count = 0
        self.refresh_count = 0

    def refresh(self, cycle: int, refresh_cycles: int) -> None:
        """DRAM refresh: take every bank of this vault busy at once."""
        for bank in self.banks:
            bank.occupy(cycle, refresh_cycles)
        self.refresh_count += 1

    def _busy_state(self, cycle: int) -> int:
        """Exact busy-bank bitmask at *cycle*, maintained incrementally.

        ``_busy_mask`` is a superset of the truly busy banks and
        ``_next_free`` never exceeds the earliest possible bit-clearing
        cycle, so the mask is exact until the horizon passes; only then
        are the flagged banks re-validated (idle banks are never read).
        """
        mask = self._busy_mask
        if mask and cycle >= self._next_free:
            banks = self.banks
            nf = _FAR
            m, live = mask, 0
            while m:
                low = m & -m
                bu = banks[low.bit_length() - 1].busy_until
                if cycle < bu:
                    live |= low
                    if bu < nf:
                        nf = bu
                m ^= low
            self._busy_mask = mask = live
            self._next_free = nf
        return mask

    # -- stages 3 + 4: the one queue walk ----------------------------------------

    def stage34(
        self,
        cycle: int,
        amap: AddressMap,
        window: int,
        issue_width: int,
        bank_busy_cycles: int,
        tracer: Tracer,
        dev_id: int,
        row_timing: Optional[tuple] = None,
    ) -> tuple:
        """Recognise bank conflicts, then issue requests: one queue walk.

        Stage 3 (§IV.C.3) is read-only ("does not modify any internal
        data representations"): it traces a conflict when a packet among
        the first *window* targets a bank that an earlier windowed packet
        also targets, or a bank still busy from a previous access.
        Stage 4 (§IV.C.4) retires up to *issue_width* requests in FIFO
        order; a packet issues when its bank is free *and* no earlier
        queued packet targets the same bank (preserving the mandated
        link→bank stream order while allowing non-conflicting packets to
        proceed in parallel across banks).  Packets needing a response
        stall in place when the vault response queue is full.

        Either half runs alone — ``window=0`` recognises nothing,
        ``issue_width=0`` returns right after recognition — which is how
        the clock engine brackets SUBCYCLE stage markers.  *row_timing*,
        when given, is ``(hit_cycles, miss_cycles)`` and selects the
        open-row bank timing; otherwise the paper's constant-time closed
        model applies.  Returns ``(conflicts, issued)``.
        """
        rqst = self.rqst
        q = rqst._q
        if not q:
            return 0, 0
        banks = self.banks
        busy_mask = self._busy_state(cycle)
        rsp_q = self.rsp._q
        rsp_depth = self.rsp.depth
        if amap.__class__ is AddressMap:
            bs, bmask, bank_of = amap._bs, amap._bank_mask, None
        else:
            bs, bmask, bank_of = 0, 0, amap.bank_of

        # Stage 3: conflict recognition (read-only pass; the busy mask
        # is static — stage 4's blocked mask covers banks it occupies).
        conflicts = 0
        seen = 0
        trace_on = tracer.live_mask & _EV_BANK_CONFLICT
        for pkt in islice(q, window):
            if pkt.is_special:  # FLOW / MODE: no bank access
                continue
            bank = pkt.dec_bank
            if bank < 0:
                addr = pkt.addr
                bank = (addr >> bs) & bmask if bank_of is None else bank_of(addr)
                pkt.dec_bank = bank
            bit = 1 << bank
            if (seen | busy_mask) & bit:
                conflicts += 1
                banks[bank].conflicts += 1
                if trace_on:
                    tracer.emit_fast(
                        _EV_BANK_CONFLICT, cycle, dev_id, -1, self.quad_id,
                        self.vault_id, bank, -1, pkt.serial,
                        (("addr", pkt.addr),
                         _BUSY_T if busy_mask & bit else _BUSY_F),
                    )
            seen |= bit
        self.conflict_count += conflicts

        # Stage 4: FIFO issue scan.
        if issue_width <= 0:
            return conflicts, 0
        specials = rqst.special_count
        free = len(banks) - busy_mask.bit_count()
        if free == 0 and not specials:
            # Every bank is mid-access and no FLOW/MODE packet is queued:
            # the FIFO scan below could not issue or remove anything.
            self.issue_stall_cycles += 1
            return conflicts, 0
        # Scan the FIFO prefix in place, collecting the positions of
        # retired packets for one batched removal.  The scan stops at
        # the issue-width limit, or as soon as every bank that was free
        # this cycle has been blocked (by an issue or a stall) with no
        # FLOW/MODE packet remaining ahead — past that point the walk is
        # provably side-effect-free, so skipping it is exact.
        issued = 0
        removed: list = []
        blocked = busy_mask  # banks that may not issue this scan
        stall_trace = tracer.live_mask & _EV_VAULT_RSP_STALL
        closed = 0
        for pos, pkt in enumerate(q):
            if issued >= issue_width:
                break
            if pkt.is_special:
                specials -= 1
                # Flow packets carry no memory operation: consume silently.
                if pkt.cls is CommandClass.FLOW:
                    removed.append(pos)
                elif len(rsp_q) >= rsp_depth:
                    self.rsp_stall_count += 1
                else:
                    self._do_mode(pkt, cycle, tracer, dev_id)
                    issued += 1
                    removed.append(pos)
                if not specials and closed >= free:
                    break
                continue
            bank_id = pkt.dec_bank
            if bank_id < 0:
                addr = pkt.addr
                bank_id = (addr >> bs) & bmask if bank_of is None else bank_of(addr)
                pkt.dec_bank = bank_id
            bit = 1 << bank_id
            if blocked & bit:
                # Conflict: this and all later same-bank packets wait.
                continue
            if pkt.expects_response and len(rsp_q) >= rsp_depth:
                self.rsp_stall_count += 1
                if stall_trace:
                    tracer.emit_fast(
                        _EV_VAULT_RSP_STALL, cycle, dev_id, -1,
                        self.quad_id, self.vault_id, -1, -1, pkt.serial, None,
                    )
                # Preserve order: later same-bank packets may not pass.
                blocked |= bit
            else:
                self._execute(pkt, bank_id, cycle, amap, bank_busy_cycles,
                              tracer, dev_id, row_timing)
                blocked |= bit  # one access per bank per cycle
                issued += 1
                removed.append(pos)
            closed += 1
            if closed >= free and not specials:
                break
        if removed:
            rqst.remove_positions(removed)
        if issued == 0 and rqst._q:
            self.issue_stall_cycles += 1
        return conflicts, issued

    # -- operation execution ----------------------------------------------------

    def _bank_rel_addr(self, amap: AddressMap, addr: int) -> int:
        if amap.__class__ is AddressMap and 0 <= addr < amap.capacity_bytes:
            # Classic contiguous map: shift+mask directly, skipping the
            # DecodedAddress construction of the general path.
            return ((addr >> amap._ds) & amap._dram_mask) * amap.block_size + (
                addr & amap._offset_mask
            )
        d = amap.decode(addr)
        return d.dram * amap.block_size + d.offset

    def _push_response(self, rsp: Packet, request: Packet, cycle: int) -> None:
        rsp.route_stack = list(request.route_stack)
        rsp.injected_at = request.injected_at
        rsp.ingress_link = request.ingress_link
        rsp.hops = request.hops
        ok = self.rsp.push(rsp, cycle)
        # Callers check rsp fullness before executing; this cannot fail.
        assert ok, "vault response queue overflow after capacity check"

    def _error_response(
        self, pkt: Packet, errstat: ErrStat, cycle: int, tracer: Tracer, dev_id: int
    ) -> None:
        """Generate an error response "following a failed read or write
        operation" (§IV "error response packets")."""
        if not pkt.expects_response:
            return
        rsp = build_response(pkt, errstat=errstat, dinv=1)
        self._push_response(rsp, pkt, cycle)
        tracer.event(
            EventType.MISROUTE,
            cycle,
            dev=dev_id,
            vault=self.vault_id,
            serial=pkt.serial,
            extra={"errstat": int(errstat), "addr": pkt.addr},
        )

    def _execute(
        self,
        pkt: Packet,
        bank_id: int,
        cycle: int,
        amap: AddressMap,
        bank_busy_cycles: int,
        tracer: Tracer,
        dev_id: int,
        row_timing: Optional[tuple] = None,
    ) -> None:
        bank = self.banks[bank_id]
        cls = pkt.cls
        if cls is CommandClass.READ:
            nbytes = REQUEST_DATA_BYTES[pkt.cmd]
        else:
            nbytes = pkt.data_bytes
            if nbytes < 16:
                nbytes = 16
        rel = self._bank_rel_addr(amap, pkt.addr)
        is_bwr = pkt.cmd in _BWR_CMDS
        align = 8 if is_bwr else 16
        # Requests larger than the residual bank range are failed reads/
        # writes -> error response, not a crash (§IV.2 deliberate
        # misconfiguration support).
        if rel + (8 if is_bwr else nbytes) > bank.capacity_bytes or rel % align != 0:
            self._error_response(pkt, ErrStat.INVALID_ADDRESS, cycle, tracer, dev_id)
            return
        if row_timing is None:
            busy = bank_busy_cycles
        else:
            hit_cycles, miss_cycles = row_timing
            busy = bank.access_busy_cycles(
                row=amap.dram_of(pkt.addr),
                closed_cycles=bank_busy_cycles,
                open_policy=True,
                hit_cycles=hit_cycles,
                miss_cycles=miss_cycles,
            )
        bank.occupy(cycle, busy)
        if is_bwr:
            # BWR: one FLIT of [data word, byte-mask word]; only masked
            # bytes of the addressed 8-byte word are written.
            data = pkt.payload[0] if pkt.payload else 0
            mask = (pkt.payload[1] if len(pkt.payload) > 1 else 0xFF) & 0xFF
            bank.masked_write(rel, data, mask)
            self.wr_count += 1
            if tracer.live_mask & _EV_RQST_WRITE:
                tracer.emit_fast(
                    _EV_RQST_WRITE, cycle, dev_id, -1, self.quad_id,
                    self.vault_id, bank_id, -1, pkt.serial,
                    (("addr", pkt.addr), ("bwr", True)),
                )
            if pkt.expects_response:
                self._push_response(build_response(pkt), pkt, cycle)
        elif cls is CommandClass.READ:
            data = bank.read(rel, nbytes)
            self.rd_count += 1
            if tracer.live_mask & _EV_RQST_READ:
                tracer.emit_fast(
                    _EV_RQST_READ, cycle, dev_id, -1, self.quad_id,
                    self.vault_id, bank_id, -1, pkt.serial,
                    (("addr", pkt.addr),),
                )
            rsp = build_response(pkt, data)
            self._push_response(rsp, pkt, cycle)
        elif cls in (CommandClass.WRITE, CommandClass.POSTED_WRITE):
            bank.write(rel, pkt.payload)
            self.wr_count += 1
            if tracer.live_mask & _EV_RQST_WRITE:
                tracer.emit_fast(
                    _EV_RQST_WRITE, cycle, dev_id, -1, self.quad_id,
                    self.vault_id, bank_id, -1, pkt.serial,
                    (("addr", pkt.addr),),
                )
            if pkt.expects_response:
                rsp = build_response(pkt)
                self._push_response(rsp, pkt, cycle)
        elif cls in (CommandClass.ATOMIC, CommandClass.POSTED_ATOMIC):
            ops = list(pkt.payload[:2]) if pkt.payload else [0, 0]
            if pkt.cmd in (CMD.TWOADD8, CMD.P_2ADD8):
                old = bank.atomic_2add8(rel, ops)
            else:
                old = bank.atomic_add16(rel, ops)
            self.atomic_count += 1
            if tracer.live_mask & _EV_RQST_ATOMIC:
                tracer.emit_fast(
                    _EV_RQST_ATOMIC, cycle, dev_id, -1, self.quad_id,
                    self.vault_id, bank_id, -1, pkt.serial,
                    (("addr", pkt.addr),),
                )
            if pkt.expects_response:
                rsp = build_response(pkt, old)
                self._push_response(rsp, pkt, cycle)
        else:  # pragma: no cover - guarded by caller
            self._error_response(pkt, ErrStat.INVALID_CMD, cycle, tracer, dev_id)

    def _do_mode(self, pkt: Packet, cycle: int, tracer: Tracer, dev_id: int) -> None:
        """Handle in-band MODE_READ / MODE_WRITE register packets (§V.D).

        The sparse physical register index travels in the address field;
        MODE_WRITE data rides in the first payload word.
        """
        from repro.core.errors import RegisterAccessError

        regs = self.device.regs if self.device is not None else None
        self.mode_count += 1
        tracer.event(
            EventType.MODE_ACCESS,
            cycle,
            dev=dev_id,
            vault=self.vault_id,
            serial=pkt.serial,
            extra={"reg": pkt.addr, "write": pkt.cls is CommandClass.MODE_WRITE},
        )
        if regs is None:
            self._error_response(pkt, ErrStat.DEVICE_CRITICAL, cycle, tracer, dev_id)
            return
        try:
            if pkt.cls is CommandClass.MODE_READ:
                value = regs.read_phys(pkt.addr)
                rsp = build_response(pkt, data=[value, 0])
            else:
                regs.write_phys(pkt.addr, pkt.payload[0] if pkt.payload else 0)
                rsp = build_response(pkt)
        except RegisterAccessError:
            self._error_response(pkt, ErrStat.INVALID_ADDRESS, cycle, tracer, dev_id)
            return
        self._push_response(rsp, pkt, cycle)

    # -- diagnostics ---------------------------------------------------------------

    @property
    def total_requests(self) -> int:
        return self.rd_count + self.wr_count + self.atomic_count + self.mode_count

    def reset(self) -> None:
        self.rqst.reset()
        self.rsp.reset()
        for b in self.banks:
            b.reset()
        self._busy_mask = 0
        self._next_free = _FAR
        self.rd_count = self.wr_count = self.atomic_count = self.mode_count = 0
        self.conflict_count = 0
        self.issue_stall_cycles = 0
        self.rsp_stall_count = 0
        self.refresh_count = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Vault({self.vault_id}, quad={self.quad_id}, banks={len(self.banks)})"

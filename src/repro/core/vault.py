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
their bank addressing does not conflict".  The walk, its READ/WRITE
execute and the reply push are C (``_vaultwalk.c``, built on first
import by :mod:`repro.core._native`); MODE packets, error replies, BWR
and the atomics stay here and the walk calls them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

from repro.core.bank import Bank
from repro.core.queueing import PacketQueue
from repro.packets.commands import CMD, CommandClass
from repro.packets.packet import ErrStat, Packet, build_response
from repro.trace.events import EventType
from repro.trace.tracer import Tracer

# Plain-int event masks (avoid IntFlag __rand__ in hot guards).
_EV_RQST_WRITE = int(EventType.RQST_WRITE)
_EV_RQST_ATOMIC = int(EventType.RQST_ATOMIC)

#: Byte-write commands.
_BWR_CMDS = (CMD.BWR, CMD.P_BWR)

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
    #: Every slot in one C call (no descriptor: ``self._flat(self)``).
    _flat = attrgetter(*__slots__)

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

    def __getstate__(self) -> tuple:
        return self._flat(self)  # flat, in __slots__ order

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state, strict=True):
            setattr(self, name, value)

    def refresh(self, cycle: int, refresh_cycles: int) -> None:
        """DRAM refresh: take every bank of this vault busy at once."""
        for bank in self.banks:
            bank.occupy(cycle, refresh_cycles)
        self.refresh_count += 1

    def _error_response(
        self, pkt: Packet, errstat: ErrStat, cycle: int, tracer: Tracer, dev_id: int
    ) -> int:
        """Generate an error response "following a failed read or write
        operation" (§IV "error response packets"); returns the slots
        taken (0 for a posted request)."""
        if not pkt.expects_response:
            return 0
        rsp = build_response(pkt, errstat=errstat, dinv=1)
        self._push_response(rsp, pkt, cycle, tracer)
        tracer.event(
            EventType.MISROUTE,
            cycle,
            dev=dev_id,
            vault=self.vault_id,
            serial=pkt.serial,
            extra={"errstat": int(errstat), "addr": pkt.addr},
        )
        return 1

    def _read_modify_write(
        self, pkt: Packet, bank_id: int, rel: int, cycle: int,
        tracer: Tracer, dev_id: int,
    ) -> int:
        """BWR and the atomics, on a bank the C walk has occupied: returns
        the response-queue slots the reply took (0 or 1)."""
        bank = self.banks[bank_id]
        if pkt.cmd in _BWR_CMDS:
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
                return self._push_response(build_response(pkt), pkt, cycle, tracer)
            return 0
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
            return self._push_response(build_response(pkt, old), pkt, cycle, tracer)
        return 0

    def _do_mode(self, pkt: Packet, cycle: int, tracer: Tracer, dev_id: int) -> int:
        """Handle in-band MODE_READ / MODE_WRITE register packets (§V.D);
        returns the response-queue slots the reply took.

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
            return self._error_response(
                pkt, ErrStat.DEVICE_CRITICAL, cycle, tracer, dev_id
            )
        try:
            if pkt.cls is CommandClass.MODE_READ:
                value = regs.read_phys(pkt.addr)
                rsp = build_response(pkt, data=[value, 0])
            else:
                regs.write_phys(pkt.addr, pkt.payload[0] if pkt.payload else 0)
                rsp = build_response(pkt)
        except RegisterAccessError:
            return self._error_response(
                pkt, ErrStat.INVALID_ADDRESS, cycle, tracer, dev_id
            )
        return self._push_response(rsp, pkt, cycle, tracer)

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
